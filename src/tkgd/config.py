"""Run configuration: an INI file with strict keys and typed defaults."""
from __future__ import annotations

import configparser
import hashlib
import logging
from dataclasses import dataclass, fields
from pathlib import Path

from .distill import DistillConfig
from .evaluate import MODES, TIE_POLICIES
from .graph import DataError, read_utf8_text
from .models import BACKBONES

logger = logging.getLogger(__name__)

__all__ = ["ConfigError", "RunConfig", "parse_config", "LLM_MODES"]

LLM_MODES = ("none", "remote", "mock-echo", "mock-planted", "mock-noise")

# The longest llm.timeout and llm.min_interval accepted, in seconds (one day).
# Socket timeouts and sleeps overflow near 9.2e9 s, far above it.
MAX_LLM_WAIT_S = 86_400.0

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}

# section -> key -> (python type, default, RunConfig attribute)
_SCHEMA: dict[str, dict[str, tuple]] = {
    "dataset": {
        "path": (str, "", "dataset_path"),
        "time_field": (str, "begin", "time_field"),
        "synthetic": (bool, False, "synthetic"),
        "n_entities": (int, 50, "n_entities"),
        "n_relations": (int, 4, "n_relations"),
        "n_buckets": (int, 10, "n_buckets"),
        "n_facts": (int, 1000, "n_facts"),
        "pattern_strength": (float, 0.9, "pattern_strength"),
    },
    "model": {
        "backbone": (str, "ttranse", "backbone"),
        "teacher_dim": (int, 400, "teacher_dim"),
        "student_dim": (int, 25, "student_dim"),
    },
    "train": {
        "batch_size": (int, 1024, "batch_size"),
        "max_epochs": (int, 10000, "max_epochs"),
        "lr": (float, 0.1, "lr"),
        "eps": (float, 1e-8, "eps"),
        "neg_samples": (int, 10, "neg_samples"),
        "margin": (float, 1.0, "margin"),
        "eval_every": (int, 10, "eval_every"),
    },
    "distill": {
        "method": (str, "ours", "method"),
        "tau": (float, 7.0, "tau"),
        "alpha_kd": (float, 0.9, "alpha_kd"),
        "lambda_llm": (float, 0.5, "lambda_llm"),
        "beta": (float, 0.1, "beta"),
        "delta": (float, 1.0, "delta"),
        "llm_topk": (int, 10, "llm_topk"),
        "phase1_epochs": (int, None, "phase1_epochs"),
        "phase2_epochs": (int, None, "phase2_epochs"),
    },
    "llm": {
        "mode": (str, "none", "llm_mode"),
        "endpoint": (str, "", "llm_endpoint"),
        "model": (str, "", "llm_model"),
        "timeout": (float, 30.0, "llm_timeout"),
        "retries": (int, 3, "llm_retries"),
        "min_interval": (float, 0.0, "llm_min_interval"),
    },
    "eval": {
        "mode": (str, "raw", "eval_mode"),
        "tie_policy": (str, "pessimistic", "tie_policy"),
    },
    "run": {
        "seed": (int, None, "seed"),
        "out": (str, "out", "out"),
        "threads": (int, 1, "threads"),
    },
}


class ConfigError(Exception):
    """A configuration file could not be read or failed validation."""


@dataclass
class RunConfig:
    """Everything one pipeline run needs, resolved and validated."""

    dataset_path: str
    time_field: str
    synthetic: bool
    n_entities: int
    n_relations: int
    n_buckets: int
    n_facts: int
    pattern_strength: float
    backbone: str
    teacher_dim: int
    student_dim: int
    batch_size: int
    max_epochs: int
    lr: float
    eps: float
    neg_samples: int
    margin: float
    eval_every: int
    method: str
    tau: float
    alpha_kd: float
    lambda_llm: float
    beta: float
    delta: float
    llm_topk: int
    phase1_epochs: int | None
    phase2_epochs: int | None
    llm_mode: str
    llm_endpoint: str
    llm_model: str
    llm_timeout: float
    llm_retries: int
    llm_min_interval: float
    eval_mode: str
    tie_policy: str
    seed: int
    out: str
    threads: int

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
        if val < 1:
            _fail(key, f"must be at least 1, got {val}")
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
    if not cfg.eps > 0:
        _fail("train.eps", "must be positive")
    if cfg.neg_samples < 1:
        _fail("train.neg_samples", "must be at least 1")
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

    values = {sec: {key: spec[1] for key, spec in keys.items()} for sec, keys in _SCHEMA.items()}
    for sec in parser.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, raw in parser[sec].items():
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown config key {sec}.{key}")
            values[sec][key] = _coerce(raw, _SCHEMA[sec][key][0], f"{sec}.{key}")
    for dotted, raw in (overrides or {}).items():
        sec, _, key = dotted.partition(".")
        if sec not in _SCHEMA or key not in _SCHEMA[sec]:
            raise ConfigError(f"unknown config key {dotted}")
        values[sec][key] = _coerce(str(raw), _SCHEMA[sec][key][0], dotted)

    kwargs = {}
    for sec, keys in _SCHEMA.items():
        for key, (_typ, _default, attr) in keys.items():
            kwargs[attr] = values[sec][key]
    cfg = RunConfig(**kwargs)
    _validate(cfg)
    return cfg
