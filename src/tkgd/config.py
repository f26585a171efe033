"""Run configuration: an INI file with strict keys and typed defaults.

Each RunConfig field names its INI key ('section.key'), the type its value
is read as and its default; that declaration is the only list of keys.
"""
from __future__ import annotations

import configparser
import hashlib
import logging
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .distill import DistillConfig
from .evaluate import MODES, TIE_POLICIES
from .graph import MAX_DRAW_BOUND, DataError, read_utf8_text
from .models import BACKBONES

logger = logging.getLogger(__name__)

__all__ = ["ConfigError", "RunConfig", "parse_config", "LLM_MODES"]

LLM_MODES = ("none", "remote", "mock-echo", "mock-planted", "mock-noise")

# The longest llm.timeout and llm.min_interval accepted, in seconds (one day).
# Socket timeouts and sleeps overflow near 9.2e9 s, far above it.
MAX_LLM_WAIT_S = 86_400.0

# The largest model.teacher_dim, model.student_dim and train.neg_samples
# accepted, the largest int64: NumPy sizes and draw counts past it raise
# mid-command.
MAX_SIZE = 2**63 - 1

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _key(dotted: str, typ, default):
    """A RunConfig field read from INI key dotted ('section.key') as typ, default when absent."""
    return field(default=default, metadata={"key": dotted, "type": typ})


class ConfigError(Exception):
    """A configuration file could not be read or failed validation."""


@dataclass
class RunConfig:
    """Everything one pipeline run needs, resolved and validated."""

    dataset_path: str = _key("dataset.path", str, "")
    time_field: str = _key("dataset.time_field", str, "begin")
    synthetic: bool = _key("dataset.synthetic", bool, False)
    n_entities: int = _key("dataset.n_entities", int, 50)
    n_relations: int = _key("dataset.n_relations", int, 4)
    n_buckets: int = _key("dataset.n_buckets", int, 10)
    n_facts: int = _key("dataset.n_facts", int, 1000)
    pattern_strength: float = _key("dataset.pattern_strength", float, 0.9)
    backbone: str = _key("model.backbone", str, "ttranse")
    teacher_dim: int = _key("model.teacher_dim", int, 400)
    student_dim: int = _key("model.student_dim", int, 25)
    batch_size: int = _key("train.batch_size", int, 1024)
    max_epochs: int = _key("train.max_epochs", int, 10000)
    lr: float = _key("train.lr", float, 0.1)
    eps: float = _key("train.eps", float, 1e-8)
    neg_samples: int = _key("train.neg_samples", int, 10)
    margin: float = _key("train.margin", float, 1.0)
    eval_every: int = _key("train.eval_every", int, 10)
    method: str = _key("distill.method", str, "ours")
    tau: float = _key("distill.tau", float, 7.0)
    alpha_kd: float = _key("distill.alpha_kd", float, 0.9)
    lambda_llm: float = _key("distill.lambda_llm", float, 0.5)
    beta: float = _key("distill.beta", float, 0.1)
    delta: float = _key("distill.delta", float, 1.0)
    llm_topk: int = _key("distill.llm_topk", int, 10)
    phase1_epochs: int | None = _key("distill.phase1_epochs", int, None)
    phase2_epochs: int | None = _key("distill.phase2_epochs", int, None)
    llm_mode: str = _key("llm.mode", str, "none")
    llm_endpoint: str = _key("llm.endpoint", str, "")
    llm_model: str = _key("llm.model", str, "")
    llm_timeout: float = _key("llm.timeout", float, 30.0)
    llm_retries: int = _key("llm.retries", int, 3)
    llm_min_interval: float = _key("llm.min_interval", float, 0.0)
    eval_mode: str = _key("eval.mode", str, "raw")
    tie_policy: str = _key("eval.tie_policy", str, "pessimistic")
    seed: int = _key("run.seed", int, None)
    out: str = _key("run.out", str, "out")
    threads: int = _key("run.threads", int, 1)

    def distill_phases(self) -> tuple[int, int]:
        """Resolved (phase1, phase2) epoch counts.

        Unset counts derive from max_epochs on an 80/20 split, so a single
        epoch budget drives both training phases by default.
        """
        p1 = self.phase1_epochs
        p2 = self.phase2_epochs
        if p1 is None and p2 is None:
            p1 = (4 * self.max_epochs) // 5
            p2 = self.max_epochs - p1
        elif p1 is None:
            p1 = max(0, self.max_epochs - p2)
        elif p2 is None:
            p2 = max(0, self.max_epochs - p1)
        return p1, p2

    def distill_config(self) -> DistillConfig:
        p1, p2 = self.distill_phases()
        return DistillConfig(
            phase1_epochs=p1,
            phase2_epochs=p2,
            tau=self.tau,
            alpha_kd=self.alpha_kd,
            lambda_llm=self.lambda_llm,
            beta=self.beta,
            delta=self.delta,
            llm_topk=self.llm_topk,
            method=self.method,
        )

    def digest(self) -> str:
        """Stable fingerprint of every resolved setting."""
        lines = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)]
        return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()


def _coerce(raw: str, typ, where: str):
    raw = raw.strip()
    if typ is bool:
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"{where}: expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected {typ.__name__}, got {raw!r}") from None


def _fail(key: str, message: str):
    raise ConfigError(f"{key}: {message}")


def _validate(cfg: RunConfig) -> None:
    if cfg.seed is None:
        _fail("run.seed", "is required")
    if cfg.time_field not in ("begin", "end"):
        _fail("dataset.time_field", f"must be 'begin' or 'end', got {cfg.time_field!r}")
    if cfg.backbone not in BACKBONES:
        _fail("model.backbone", f"must be one of {BACKBONES}, got {cfg.backbone!r}")
    for key, val in (("model.teacher_dim", cfg.teacher_dim), ("model.student_dim", cfg.student_dim)):
        if not 1 <= val <= MAX_SIZE:
            _fail(key, f"must lie in [1, {MAX_SIZE}], got {val}")
    if cfg.teacher_dim < cfg.student_dim:
        logger.warning(
            "teacher_dim %d is smaller than student_dim %d; the capacity gap is inverted",
            cfg.teacher_dim,
            cfg.student_dim,
        )
    if cfg.batch_size < 1:
        _fail("train.batch_size", f"must be at least 1, got {cfg.batch_size}")
    if cfg.max_epochs < 0:
        _fail("train.max_epochs", "must be nonnegative")
    if not cfg.lr > 0:
        _fail("train.lr", "must be positive")
    if not 0 < cfg.eps < math.inf:
        _fail("train.eps", f"must be positive and finite, got {cfg.eps}")
    if not 1 <= cfg.neg_samples <= MAX_SIZE:
        _fail("train.neg_samples", f"must lie in [1, {MAX_SIZE}], got {cfg.neg_samples}")
    if not math.isfinite(cfg.margin):
        _fail("train.margin", f"must be finite, got {cfg.margin}")
    if cfg.eval_every < 1:
        _fail("train.eval_every", "must be at least 1")
    if cfg.synthetic:
        for key, val in (
            ("dataset.n_entities", cfg.n_entities),
            ("dataset.n_relations", cfg.n_relations),
            ("dataset.n_buckets", cfg.n_buckets),
            ("dataset.n_facts", cfg.n_facts),
        ):
            if val < 1:
                _fail(key, f"must be at least 1, got {val}")
            if val > MAX_DRAW_BOUND and key != "dataset.n_facts":
                _fail(key, f"must be at most 2**63, the largest bound NumPy draws below, got {val}")
        if not (0.0 <= cfg.pattern_strength <= 1.0):
            _fail("dataset.pattern_strength", "must lie in [0, 1]")
    elif not cfg.dataset_path:
        _fail("dataset.path", "is required unless dataset.synthetic is on")
    if cfg.llm_mode not in LLM_MODES:
        _fail("llm.mode", f"must be one of {LLM_MODES}, got {cfg.llm_mode!r}")
    if cfg.llm_mode == "remote":
        if not cfg.llm_endpoint:
            _fail("llm.endpoint", "is required when llm.mode is 'remote'")
        if not cfg.llm_model:
            _fail("llm.model", "is required when llm.mode is 'remote'")
    if cfg.llm_retries < 1:
        _fail("llm.retries", "must be at least 1")
    if not 0 < cfg.llm_timeout <= MAX_LLM_WAIT_S:
        _fail("llm.timeout", f"must be positive and at most {MAX_LLM_WAIT_S:g} seconds, got {cfg.llm_timeout}")
    if not 0 <= cfg.llm_min_interval <= MAX_LLM_WAIT_S:
        _fail("llm.min_interval", f"must lie in [0, {MAX_LLM_WAIT_S:g}] seconds, got {cfg.llm_min_interval}")
    if cfg.eval_mode not in MODES:
        _fail("eval.mode", f"must be one of {MODES}, got {cfg.eval_mode!r}")
    if cfg.tie_policy not in TIE_POLICIES:
        _fail("eval.tie_policy", f"must be one of {TIE_POLICIES}, got {cfg.tie_policy!r}")
    if cfg.threads < 1:
        _fail("run.threads", "must be at least 1")
    if not cfg.out:
        _fail("run.out", "must not be empty")
    try:
        cfg.distill_config()
    except ValueError as exc:
        raise ConfigError(f"distill: {exc}") from None


def parse_config(path: str | Path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read an INI file into a validated RunConfig.

    Absent keys take their defaults; unknown sections or keys are errors so
    typos fail loudly.  overrides maps 'section.key' strings (as a CLI flag
    would supply them) onto raw values applied after the file is read.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_utf8_text(path), source=str(path))
    except DataError as exc:  # not UTF-8: the message names the file and the line
        raise ConfigError(str(exc)) from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    specs = {f.metadata["key"]: f for f in fields(RunConfig)}
    sections = {dotted.partition(".")[0] for dotted in specs}
    kwargs = {}

    def put(dotted: str, raw: str) -> None:
        if dotted not in specs:
            raise ConfigError(f"unknown config key {dotted}")
        kwargs[specs[dotted].name] = _coerce(raw, specs[dotted].metadata["type"], dotted)

    for sec in parser.sections():
        if sec not in sections:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, raw in parser[sec].items():
            put(f"{sec}.{key}", raw)
    for dotted, raw in (overrides or {}).items():
        put(dotted, str(raw))
    cfg = RunConfig(**kwargs)
    _validate(cfg)
    return cfg
