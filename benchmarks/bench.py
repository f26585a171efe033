"""Benchmark of the tkgd pipeline: three closed-loop batch workloads.

Run from the root of a checkout:

    python3 benchmarks/bench.py --workload pipeline-tadistmult --seed 1 --seconds 40 --trace 0
    python3 benchmarks/bench.py --smoke

Each run generates a config from the seed, then, while the next round fits in
--seconds, sets the workload up again and runs one pass of its tkgd commands.
It reports the median set-up time and the mean pass time, both in CPU seconds.
Every command runs in this one process through tkgd.cli.main, single-threaded,
with the BLAS thread caps set before NumPy loads.  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of tracer.py
instead of the end-to-end ones.  The last line of standard output is the JSON
result; the run manifest and the spans go to .bench_work/<workload>/.
See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import os

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
if __name__ == "__main__":
    for _var in THREAD_ENV_VARS:
        os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import logging
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

WORK_ROOT = Path(".bench_work")
SRC = Path("src")
# Seed kept out of tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 1009
# Before every pass, set-up repeats until it has used this much CPU time; setup_s is
# the median over the run, so its samples are spread over the whole run.
SETUP_BATCH_S = 0.2
# A trained model must rank at least this many times better than chance (MRR).
MRR_FLOOR_FACTOR = 1.5
MIN_PASSES = 3

# The end-to-end metrics every workload reports (BENCHMARK.json lists them).
END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "ok_checks_ratio": "ratio",
}
# Workload-specific end-to-end metrics, printed and kept in the manifest.
WORKLOAD_UNITS = {
    "teacher_facts_per_s": "facts/s",
    "distill_queries_per_s": "queries/s",
    "cache_fill_queries_per_s": "queries/s",
    "eval_queries_per_s": "queries/s",
    "teacher_valid_mrr": "mrr",
    "student_test_mrr": "mrr",
    "failed_ops_ratio": "ratio",
}

# configs/example.ini, copied so that editing the example does not change the benchmark.
BASE_CONFIG = {
    "dataset": {
        "synthetic": "yes",
        "n_entities": "50",
        "n_relations": "4",
        "n_buckets": "10",
        "n_facts": "1000",
        "pattern_strength": "0.9",
    },
    "model": {"backbone": "tadistmult", "teacher_dim": "32", "student_dim": "4"},
    "train": {
        "batch_size": "128",
        "max_epochs": "300",
        "lr": "0.1",
        "eps": "1e-8",
        "neg_samples": "10",
        "margin": "1.0",
        "eval_every": "25",
    },
    "distill": {
        "method": "ours",
        "tau": "7.0",
        "alpha_kd": "0.9",
        "lambda_llm": "0.5",
        "beta": "0.1",
        "delta": "1.0",
        "llm_topk": "10",
        "phase1_epochs": "32",
        "phase2_epochs": "8",
    },
    "llm": {"mode": "mock-planted"},
    "eval": {"mode": "raw", "tie_policy": "pessimistic"},
    "run": {"threads": "1"},
}


def _merge(base: dict, overrides: dict) -> dict:
    out = {section: dict(values) for section, values in base.items()}
    for section, values in overrides.items():
        out.setdefault(section, {}).update(values)
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One workload: a config, a set-up, and the commands of one timed pass."""

    name = ""
    overrides: dict = {}
    smoke_overrides: dict = {}

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.config = _merge(_merge(BASE_CONFIG, self.overrides), self.smoke_overrides if smoke else {})
        self.config["run"]["seed"] = str(seed)
        self.config_path = work / "run.ini"
        self.dataset = None
        self.dropped: dict[str, int] = {}
        self.generated_splits: dict[str, int] = {}
        self.first_values: dict[str, float] = {}

    def setup(self) -> None:
        """Config, dataset and fixtures; timed and repeated by the runner."""
        from tkgd.graph import generate_synthetic

        _write_ini(self.config_path, self.config)
        ds = self.config["dataset"]
        handler = _DropCounter()
        graph_log = logging.getLogger("tkgd.graph")
        graph_log.addHandler(handler)
        try:
            self.dataset = generate_synthetic(
                int(ds["n_entities"]),
                int(ds["n_relations"]),
                int(ds["n_buckets"]),
                int(ds["n_facts"]),
                float(ds["pattern_strength"]),
                self.seed,
            )
        finally:
            graph_log.removeHandler(handler)
        self.dropped = handler.dropped
        self.generated_splits = {name: len(self.dataset.split(name)) for name in ("train", "valid", "test")}

    def prepare_pass(self, out: Path) -> None:
        """Untimed preparation of a fresh pass directory."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)

    def commands(self, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check_pass(self, out: Path, steps: list[dict], first: bool) -> list[tuple[str, bool, str]]:
        raise NotImplementedError

    def stage_metrics(self, out: Path, steps: list[dict]) -> dict[str, float]:
        raise NotImplementedError

    def trace_checks(self, layers: dict, tracer) -> list[tuple[str, bool, str]]:
        """Counters a traced pass predicts exactly."""
        return []

    def n_train(self) -> int:
        return len(self.dataset.train)

    def same_every_pass(self, label: str, value: float) -> tuple[str, bool, str]:
        """Check that a value deterministic at --threads 1 equals its first pass's value."""
        first = self.first_values.setdefault(label, value)
        return (f"{label} repeats", value == first, f"{value} vs {first}")

    def above_mrr_floor(self, label: str, mrr: float) -> tuple[str, bool, str]:
        floor = MRR_FLOOR_FACTOR * _random_mrr(self.dataset.vocab.n_entities)
        return (f"{label} above floor", mrr > floor, f"{mrr:.4f} vs {floor:.4f}")

    def distill_epochs(self) -> int:
        return int(self.config["distill"]["phase1_epochs"]) + int(self.config["distill"]["phase2_epochs"])

    def _cmd(self, command: str, out: Path, *extra: str) -> list[str]:
        return [command, "--config", str(self.config_path), "--threads", "1", "--out", str(out), *extra]


class _DropCounter(logging.Handler):
    """Collects the per-split duplicate counts the dataset builder logs."""

    PATTERN = re.compile(r"dropped (\d+) duplicate quadruples from (\w+) split")

    def __init__(self):
        super().__init__(logging.WARNING)
        self.dropped: dict[str, int] = {}

    def emit(self, record: logging.LogRecord) -> None:
        m = self.PATTERN.search(record.getMessage())
        if m:
            self.dropped[m.group(2)] = self.dropped.get(m.group(2), 0) + int(m.group(1))


def _write_ini(path: Path, config: dict) -> None:
    lines = []
    for section, values in config.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _step(steps: list[dict], command: str) -> list[dict]:
    return [s for s in steps if s["command"] == command]


def _seconds(steps: list[dict], command: str) -> float:
    return sum(s["s"] for s in _step(steps, command))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _last_valid_mrr(log_path: Path) -> float:
    return next(r["valid_mrr"] for r in reversed(_read_jsonl(log_path)) if "valid_mrr" in r)


def _random_mrr(n_entities: int) -> float:
    """Expected MRR of a uniformly random ranking over n candidates."""
    return sum(1.0 / r for r in range(1, n_entities + 1)) / n_entities


class PipelineTadistmult(Workload):
    """The five-command pipeline on the example config, with short epoch budgets."""

    name = "pipeline-tadistmult"
    # Both budgets are the example's divided by 8 (300 -> 38 teacher epochs,
    # 32 + 8 -> 4 + 1 distill epochs), so train-teacher and distill keep the
    # example's shares of the pass; eval_every stays 25.
    overrides = {
        "train": {"max_epochs": "38"},
        "distill": {"phase1_epochs": "4", "phase2_epochs": "1"},
    }
    smoke_overrides = {
        "dataset": {"n_entities": "20", "n_facts": "200"},
        "train": {"max_epochs": "2"},
        "distill": {"phase1_epochs": "1", "phase2_epochs": "1"},
    }

    def commands(self, out):
        return [
            self._cmd("prepare", out),
            self._cmd("train-teacher", out),
            self._cmd("distill", out),
            self._cmd("evaluate", out),
            self._cmd("export", out),
        ]

    def _mrrs(self, out: Path) -> tuple[float, float]:
        return _last_valid_mrr(out / "train_teacher_log.jsonl"), _read_json(out / "eval_report.json")["metrics"]["mrr"]

    def check_pass(self, out, steps, first):
        from tkgd.checkpoint import load_checkpoint
        from tkgd.evaluate import brute_force_oracle

        report = _read_json(out / "eval_report.json")["metrics"]
        checks = [
            ("eval n_queries", report["n_queries"] == 2 * len(self.dataset.test), str(report["n_queries"])),
        ]
        teacher_mrr, student_mrr = self._mrrs(out)
        checks.append(self.same_every_pass("teacher_valid_mrr", teacher_mrr))
        checks.append(self.same_every_pass("student_test_mrr", student_mrr))
        if not self.smoke:  # two smoke epochs are too few to judge quality
            checks.append(self.above_mrr_floor("teacher_valid_mrr", teacher_mrr))
            checks.append(self.above_mrr_floor("student_test_mrr", student_mrr))
        if first:
            params, _header = load_checkpoint(out / "student.ckpt")
            oracle = brute_force_oracle(params, self.dataset, split="test", mode="raw")
            diffs = [abs(report["mr"] - oracle.mr), abs(report["mrr"] - oracle.mrr)]
            diffs += [abs(report["hits"][str(k)] - v) for k, v in oracle.hits.items()]
            checks.append(("student report equals brute_force_oracle", max(diffs) <= 1e-9, f"max diff {max(diffs):.3g}"))
        return checks

    def stage_metrics(self, out, steps):
        train = self.n_train()
        teacher_mrr, student_mrr = self._mrrs(out)
        return {
            "teacher_facts_per_s": train * int(self.config["train"]["max_epochs"]) / _seconds(steps, "train-teacher"),
            "distill_queries_per_s": 2 * train * self.distill_epochs() / _seconds(steps, "distill"),
            "eval_queries_per_s": 2 * len(self.dataset.test) / _seconds(steps, "evaluate"),
            "teacher_valid_mrr": teacher_mrr,
            "student_test_mrr": student_mrr,
        }


class LlmReplayTtranse(Workload):
    """Cold cache-llm fill, then a phase-2-weighted distill replaying the warm cache."""

    name = "llm-replay-ttranse"
    overrides = {
        "model": {"backbone": "ttranse"},
        "train": {"max_epochs": "40"},
        "distill": {"phase1_epochs": "1", "phase2_epochs": "8"},
    }
    smoke_overrides = {
        "dataset": {"n_entities": "20", "n_facts": "200"},
        "train": {"max_epochs": "2"},
        "distill": {"phase1_epochs": "1", "phase2_epochs": "1"},
    }

    def setup(self):
        super().setup()
        self.fixture = self.work / "fixture"
        shutil.rmtree(self.fixture, ignore_errors=True)
        code = _run_cli(self._cmd("train-teacher", self.fixture))["rc"]
        if code != 0:
            raise RuntimeError(f"set-up train-teacher exited {code}")

    def prepare_pass(self, out):
        super().prepare_pass(out)
        shutil.copyfile(self.fixture / "teacher.ckpt", out / "teacher.ckpt")

    def commands(self, out):
        return [self._cmd("cache-llm", out), self._cmd("distill", out), self._cmd("evaluate", out)]

    def check_pass(self, out, steps, first):
        fill = _step(steps, "cache-llm")[0]["stdout"]
        m = re.search(r"\((\d+) of (\d+) queries were already cached\)", fill)
        calls = re.search(r"handle calls (\d+)", fill)
        distill_log = _read_jsonl(out / "distill_log.jsonl")
        report = _read_json(out / "eval_report.json")["metrics"]
        records = len(_read_jsonl(out / "llm_cache.jsonl"))
        checks = [
            ("cold fill starts empty", m is not None and int(m.group(2)) == 2 * self.n_train()
             and int(m.group(1)) == int(m.group(2)) - records, fill.strip().replace("\n", " | ")),
            ("cold fill calls the handle once per record", calls is not None and int(calls.group(1)) == records,
             f"{calls.group(1) if calls else None} calls, {records} records"),
            ("warm replay makes 0 handle calls", distill_log[-1]["llm_calls"] == 0, str(distill_log[-1]["llm_calls"])),
            ("warm replay runs phase 2", any(r["phase"] == 2 for r in distill_log), ""),
            ("eval n_queries", report["n_queries"] == 2 * len(self.dataset.test), str(report["n_queries"])),
            self.same_every_pass("student_test_mrr", report["mrr"]),
        ]
        if not self.smoke:  # two smoke epochs are too few to judge quality
            checks.append(self.above_mrr_floor("student_test_mrr", report["mrr"]))
        if first:
            if not self.smoke:
                teacher_mrr = _last_valid_mrr(self.fixture / "train_teacher_log.jsonl")
                checks.append(self.above_mrr_floor("teacher_valid_mrr", teacher_mrr))
            checks += self._alignment_checks(distill_log)
        return checks

    def _alignment_checks(self, distill_log: list[dict]) -> list[tuple[str, bool, str]]:
        """Compare the replay with an untimed distill at lambda_llm = 0.

        Phase 1 is identical in both.  In phase 2 the alignment term must
        change every epoch's loss, and its gradient must move the student, so
        the last epoch's validation MRR must differ too.
        """
        out = self.work / "lambda0"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        shutil.copyfile(self.fixture / "teacher.ckpt", out / "teacher.ckpt")
        config = _merge(self.config, {"distill": {"lambda_llm": "0"}})
        _write_ini(out / "run.ini", config)
        if _run_cli(["distill", "--config", str(out / "run.ini"), "--threads", "1", "--out", str(out)])["rc"] != 0:
            return [("lambda_llm = 0 distill exits 0", False, "")]
        plain = _read_jsonl(out / "distill_log.jsonl")
        phase1 = [(a["train_loss"], b["train_loss"]) for a, b in zip(distill_log, plain) if a["phase"] == 1]
        phase2 = [(a["train_loss"], b["train_loss"]) for a, b in zip(distill_log, plain) if a["phase"] == 2]
        last_mrr = (distill_log[-1]["valid_mrr"], plain[-1]["valid_mrr"])
        return [
            ("phase 1 matches the lambda_llm = 0 distill", len(plain) == len(distill_log)
             and all(a == b for a, b in phase1), str(phase1)),
            ("alignment changes every phase-2 loss", bool(phase2) and all(a != b for a, b in phase2), str(phase2)),
            ("alignment moves the student", last_mrr[0] != last_mrr[1], f"valid MRR {last_mrr[0]} vs {last_mrr[1]}"),
        ]

    def trace_checks(self, layers, tracer):
        checks = [
            ("no LSTM runs", layers["models.lstm_forward.calls"] == 0, ""),
            ("warm replay cache_hit_ratio is 1.0", layers["llm.cache_hit_ratio"] == 1.0,
             str(layers["llm.cache_hit_ratio"])),
        ]
        for layer in ("llm.complete", "llm.ScoreCache.put"):
            calls = tracer.total(layer, "cli.distill")
            checks.append((f"warm replay makes no {layer} call", calls == 0, str(calls)))
        return checks

    def stage_metrics(self, out, steps):
        train = self.n_train()
        return {
            "cache_fill_queries_per_s": 2 * train / _seconds(steps, "cache-llm"),
            "distill_queries_per_s": 2 * train * self.distill_epochs() / _seconds(steps, "distill"),
            "eval_queries_per_s": 2 * len(self.dataset.test) / _seconds(steps, "evaluate"),
            "teacher_valid_mrr": _last_valid_mrr(self.fixture / "train_teacher_log.jsonl"),
            "student_test_mrr": _read_json(out / "eval_report.json")["metrics"]["mrr"],
        }


class EvalLarge(Workload):
    """Filtered evaluation of valid and test at the larger size, no training."""

    name = "eval-large"
    overrides = {
        "dataset": {"n_entities": "500", "n_relations": "20", "n_buckets": "50", "n_facts": "20000"},
        "eval": {"mode": "filtered"},
    }
    smoke_overrides = {
        "dataset": {"n_entities": "60", "n_relations": "4", "n_buckets": "8", "n_facts": "600"},
    }
    # Valid and test are whole time buckets, so their sizes change with the seed
    # (1490 rows at the least over seeds 1-120).  The pass evaluates a fixed
    # number of rows of each, so its work is the same for every seed.
    ROWS_PER_SPLIT = 1200
    SMOKE_ROWS_PER_SPLIT = 30

    def __init__(self, work, seed, smoke):
        super().__init__(work, seed, smoke)
        self.data_dir = work / "data"
        self.config["dataset"].update({"synthetic": "no", "path": str(self.data_dir)})

    def setup(self):
        from tkgd.checkpoint import save_checkpoint
        from tkgd.graph import Dataset, load_quadruples, save_dataset
        from tkgd.models import init_params

        super().setup()
        rows = self.SMOKE_ROWS_PER_SPLIT if self.smoke else self.ROWS_PER_SPLIT
        ds = self.dataset
        if min(len(ds.valid), len(ds.test)) < rows:
            raise RuntimeError(
                f"seed {self.seed} gives {len(ds.valid)} valid and {len(ds.test)} test rows, fewer than {rows}"
            )
        shutil.rmtree(self.data_dir, ignore_errors=True)
        save_dataset(Dataset(vocab=ds.vocab, train=ds.train, valid=ds.valid[:rows], test=ds.test[:rows], rule=ds.rule),
                     self.data_dir)
        self.dataset = load_quadruples(self.data_dir)
        v = self.dataset.vocab
        params = init_params(
            "tadistmult", int(self.config["model"]["teacher_dim"]), v.n_entities, v.n_relations, v.n_buckets,
            seed=self.seed,
        )
        self.checkpoint = self.work / "params.ckpt"
        save_checkpoint(params, self.checkpoint, dataset_digest=self.dataset.digest(), n_buckets=v.n_buckets)
        self.mrr: dict[str, float] = {}

    def commands(self, out):
        ckpt = ("--checkpoint", str(self.checkpoint))
        return [
            self._cmd("evaluate", out / "valid", *ckpt, "--split", "valid"),
            self._cmd("evaluate", out / "test", *ckpt, "--split", "test"),
        ]

    def check_pass(self, out, steps, first):
        checks = []
        for split in ("valid", "test"):
            report = _read_json(out / split / "eval_report.json")["metrics"]
            expected = 2 * len(self.dataset.split(split))
            checks.append((f"{split} n_queries", report["n_queries"] == expected, f"{report['n_queries']} vs {expected}"))
            first_mrr = self.mrr.setdefault(split, report["mrr"])
            checks.append((f"{split} MRR repeats", report["mrr"] == first_mrr, f"{report['mrr']} vs {first_mrr}"))
        return checks

    def trace_checks(self, layers, tracer):
        return [
            ("no language model runs", layers["llm.score_query.calls"] == 0, ""),
            ("no training runs", layers["numerics.adagrad_step.calls"] == 0, ""),
        ]

    def stage_metrics(self, out, steps):
        queries = 2 * (len(self.dataset.valid) + len(self.dataset.test))
        return {"eval_queries_per_s": queries / _seconds(steps, "evaluate")}


WORKLOADS = {w.name: w for w in (PipelineTadistmult, LlmReplayTtranse, EvalLarge)}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def _run_cli(argv: list[str]) -> dict:
    """One tkgd command in this process; stdout is captured, failures are counted."""
    from tkgd import cli

    buf = io.StringIO()
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed step, reported and counted
        traceback.print_exc()
        rc = -1
    elapsed, cpu = time.perf_counter() - start, time.process_time() - start_cpu
    if rc != 0:
        print(f"bench: `tkgd {' '.join(argv)}` exited {rc}\n{buf.getvalue()}", file=sys.stderr)
    return {"command": argv[0], "rc": rc, "s": elapsed, "cpu_s": cpu, "stdout": buf.getvalue()}


def _run_pass(workload: Workload, out: Path, tracer=None, run_id: int = 0) -> dict:
    workload.prepare_pass(out)
    steps = []
    if tracer is not None:
        tracer.start(run_id)
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        for argv in workload.commands(out):
            steps.append(_run_cli(argv))
        wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
    finally:
        if tracer is not None:
            tracer.stop()
    layers = tracer.pass_metrics() if tracer is not None else None
    return {"wall_s": wall, "cpu_s": cpu, "steps": steps, "layers": layers}


def _llm_answers(out: Path) -> tuple[int, int]:
    """(answers, unusable answers) recorded in the pass's score cache."""
    records = []
    for path in out.rglob("llm_cache.jsonl"):
        records += _read_jsonl(path)
    return len(records), sum(1 for r in records if r.get("parse_failed"))


def _commit() -> str:
    """The checked-out commit; git may not look above the checkout for a repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(Path.cwd().parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_identity() -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "tkgd").glob("*.py")):
        h.update(path.name.encode() + b"\x00" + path.read_bytes())
    return {"commit": _commit(), "source_sha256": h.hexdigest()}


def _manifest(workload: Workload, seconds: float, trace: bool) -> dict:
    import numpy

    ds = workload.dataset
    requested = workload.config["dataset"]
    splits = workload.generated_splits
    return {
        **_source_identity(),
        "workload": workload.name,
        "seed": workload.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "threads": int(workload.config["run"]["threads"]),
        "blas_caps": {var: os.environ.get(var) for var in THREAD_ENV_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "config": workload.config,
        "dataset": {
            "requested": requested,
            "entities": ds.vocab.n_entities,
            "relations": ds.vocab.n_relations,
            "buckets": ds.vocab.n_buckets,
            "buckets_requested": int(requested["n_buckets"]),
            "splits_after_dedupe": splits,
            "splits_used": {name: len(ds.split(name)) for name in ("train", "valid", "test")},
            "duplicates_dropped": workload.dropped,
            "facts_dropped_total": int(requested["n_facts"]) - sum(splits.values()),
        },
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object (and writes the manifest)."""
    work = WORK_ROOT / workload_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    root_log = logging.getLogger()
    for handler in list(root_log.handlers):
        root_log.removeHandler(handler)
    log_handler = logging.FileHandler(work / "program.log", encoding="utf-8")
    log_handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root_log.addHandler(log_handler)
    root_log.setLevel(logging.INFO)

    import tkgd.cli  # noqa: F401  (imports are process start-up, not set-up)

    workload = WORKLOADS[workload_name](work, seed, smoke)
    setup_samples: list[float] = []

    def set_up() -> None:
        batch: list[float] = []
        while not batch or sum(batch) < SETUP_BATCH_S:
            start = time.process_time()
            workload.setup()
            batch.append(time.process_time() - start)
        setup_samples.extend(batch)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    passes, traced_passes = [], []
    checks: list[tuple[str, bool, str]] = []
    # ops: commands, output checks and language-model answers; checks: commands and output checks
    counts = {"attempted": 0, "failed": 0, "checks": 0, "checks_failed": 0}

    def checked_pass(traced: bool) -> dict:
        out = work / f"pass{len(passes) + len(traced_passes)}"
        res = _run_pass(workload, out, tracer if traced else None, run_id=len(traced_passes))
        ok_steps = all(s["rc"] == 0 for s in res["steps"])
        pass_checks = [("every step exits 0", ok_steps, "")]
        try:
            if ok_steps:
                pass_checks += workload.check_pass(out, res["steps"], first=not checks)
                res["stage"] = workload.stage_metrics(out, res["steps"])
            if traced:
                pass_checks += workload.trace_checks(res["layers"], tracer)
        except Exception as exc:  # unreadable or missing output fails the pass, not the benchmark
            traceback.print_exc()
            pass_checks.append(("outputs readable", False, repr(exc)))
        answers, unusable = _llm_answers(out)
        if answers:
            pass_checks.append(("every language-model answer is usable", unusable == 0, f"{unusable} of {answers}"))
        n_checks = len(res["steps"]) + len(pass_checks)
        n_failed = sum(s["rc"] != 0 for s in res["steps"]) + sum(not ok for _, ok, _ in pass_checks)
        counts["checks"] += n_checks
        counts["checks_failed"] += n_failed
        counts["attempted"] += n_checks + answers
        counts["failed"] += n_failed + unusable
        checks.extend(pass_checks)
        return res

    # a traced pass pair costs more than two untraced passes, and the traced
    # metrics carry no bound, so one pair is enough
    min_passes = 1 if smoke or trace else MIN_PASSES
    start = time.perf_counter()
    rounds: list[float] = []  # wall time of each set-up plus pass (pair)
    while len(passes) < min_passes or time.perf_counter() - start + statistics.median(rounds) < seconds:
        round_start = time.perf_counter()
        set_up()
        passes.append(checked_pass(traced=False))
        if tracer is not None:
            traced_passes.append(checked_pass(traced=True))
        rounds.append(time.perf_counter() - round_start)
        if not all(ok for _, ok, _ in checks):
            break
    attempted, failed = counts["attempted"], counts["failed"]

    correct = all(ok for _, ok, _ in checks)
    good = [p for p in passes if "stage" in p]
    stage = {}
    if good:
        stage = {k: statistics.median(p["stage"][k] for p in good) for k in good[0]["stage"]}
    e2e = {
        "setup_s": statistics.median(setup_samples),
        # the mean, not a quantile: a shared host can slow a process by a fifth or
        # more for tens of seconds at a time, and a quantile jumps between the slow
        # and the fast level where the mean moves with the time spent at each
        "pipeline_s": statistics.mean(p["cpu_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_checks_ratio": 1.0 - counts["checks_failed"] / counts["checks"],
    }
    if trace:
        from tracer import per_layer_units

        units = per_layer_units()
        layers = {k: statistics.median(p["layers"][k] for p in traced_passes) for k in traced_passes[0]["layers"]}
        layers["trace.overhead_s"] = statistics.mean(p["cpu_s"] for p in traced_passes) - e2e["pipeline_s"]
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in units.items()}
        tracer.write(work / "spans.jsonl")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    manifest = _manifest(workload, seconds, trace)
    manifest.update(
        {
            "setup_s_samples": setup_samples,
            "passes": [[{k: s[k] for k in ("command", "rc", "s", "cpu_s")} for s in p["steps"]] for p in passes],
            "pass_wall_s": [p["wall_s"] for p in passes],
            "pass_cpu_s": [p["cpu_s"] for p in passes],
            "traced_pass_wall_s": [p["wall_s"] for p in traced_passes],
            "traced_pass_cpu_s": [p["cpu_s"] for p in traced_passes],
            "end_to_end": e2e,
            "workload_metrics": {**stage, "failed_ops_ratio": failed / attempted},
            "checks": [{"check": name, "ok": ok, "detail": detail} for name, ok, detail in checks],
            "result": result,
        }
    )
    (work / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    _print_summary(workload.name, e2e, manifest["workload_metrics"], checks, work)
    log_handler.close()
    root_log.removeHandler(log_handler)
    return result


def _print_summary(name: str, e2e: dict, workload_metrics: dict, checks, work: Path) -> None:
    units = {**END_TO_END_UNITS, **WORKLOAD_UNITS}
    print(f"workload {name}")
    for key, value in {**e2e, **workload_metrics}.items():
        print(f"  {key:<26} {value:14.6g} {units[key]}")
    for check, ok, detail in checks:
        if not ok:
            print(f"  FAILED CHECK {check}: {detail}")
    print(f"  manifest {work / 'manifest.json'}")


# ---------------------------------------------------------------------------
# smoke mode
# ---------------------------------------------------------------------------


def smoke() -> int:
    """Every workload at a tiny size, traced and untraced; asserts names, units and predicted zeros."""
    from tracer import per_layer_units

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if end_to_end != END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from the metrics bench.py emits")
    if per_layer != per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from the metrics tracer.py emits")
    if sorted(WORKLOADS) != sorted(w["name"] for w in spec["workloads"]):
        problems.append("BENCHMARK.json workloads differ from bench.py")
    for name in WORKLOADS:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result = run(name, seed=HELD_OUT_SEED, seconds=0.0, trace=trace, smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{name} trace={int(trace)}: emitted metrics differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: output checks failed")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace and name == "llm-replay-ttranse" and values["models.lstm_forward.calls"] != 0:
                problems.append("models.lstm_forward.calls is not 0 on llm-replay-ttranse")
            if trace and name == "eval-large" and values["llm.score_query.calls"] != 0:
                problems.append("llm.score_query.calls is not 0 on eval-large")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at a tiny size and check the output")
    args = parser.parse_args(argv)
    if not (SRC / "tkgd" / "__init__.py").is_file():
        print(f"bench: {SRC / 'tkgd'} not found; run from the root of a tkgd checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
