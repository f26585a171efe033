"""tkgd: teacher-student distillation for temporal knowledge graph link prediction.

The package trains a large scoring model (the teacher) on timestamped facts,
then compresses it into a much smaller student via soft-target distillation,
optionally sharpened by an external language-model judge that rescores the
teacher's top candidates.  Everything runs on plain numpy with hand-written
gradients, so training is deterministic given a seed and a thread cap of one.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# Names re-exported from the submodules, by submodule.  They are imported on
# first access (PEP 562), so importing tkgd or tkgd.cli loads no numpy and the
# command line can cap the BLAS threads before numpy starts its pool.
_EXPORTS = {
    "graph": (
        "CandidateSet",
        "Dataset",
        "DataError",
        "LoadSchema",
        "Quadruple",
        "Vocabulary",
        "build_candidates",
        "filter_candidates",
        "generate_synthetic",
        "load_quadruples",
        "sample_negatives",
        "save_dataset",
    ),
    "numerics": ("ParamTensor", "adagrad_step", "finite_diff_check", "softmax_with_temperature"),
    "models": ("init_params", "score_candidates", "score_quadruple", "ta_tokenize"),
    "evaluate": ("RankingReport", "brute_force_oracle", "evaluate", "rank_of"),
    "distill": (
        "DistillConfig",
        "StudentState",
        "bkd_loss",
        "distill_run",
        "fitnet_hint_loss",
        "huber_alignment_loss",
        "kd_soft_loss",
        "rkd_loss",
        "supervised_loss",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    return value


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Importing a submodule binds it on the package; tkgd.evaluate stays the
        # exported function, as it was when the re-exports were eager.
        if not (name in _SOURCE and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
