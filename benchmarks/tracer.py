"""Span tracer that measures tkgd's layers from outside the package.

The tracer replaces each traced function with a wrapper under every name the
package looks it up by (a module global, a name imported into another module,
or a class attribute), records one span per call, and puts the originals back
when the traced pass ends.  Nothing under src/tkgd is modified.

A span is (run id, span id, name, start ns, end ns, parent span id).  Spans
stay in memory and are written out once, when the benchmark ends.  A span's
self time is its duration minus the durations of its direct children; the
package is single-threaded, so children never overlap.
"""
from __future__ import annotations

import importlib
import json
import os
import time
from pathlib import Path

import numpy as np

MODULES = ("graph", "numerics", "models", "evaluate", "training", "distill", "llm", "checkpoint", "cli")

# (span name, module, attribute path) of every traced callable.
FUNCTIONS = (
    ("graph.generate_synthetic", "graph", "generate_synthetic"),
    ("graph.build_candidates", "graph", "build_candidates"),
    ("graph.filter_candidates", "graph", "filter_candidates"),
    ("numerics.adagrad_step", "numerics", "adagrad_step"),
    ("models.lstm_forward", "models", "lstm_forward"),
    ("models.lstm_backward", "models", "lstm_backward"),
    ("models.score_candidates", "models", "score_candidates"),
    ("models.batch_candidate_scores", "models", "batch_candidate_scores"),
    ("models.batch_candidate_backprop", "models", "batch_candidate_backprop"),
    ("models.supervised_gradients", "models", "supervised_gradients"),
    ("models.GradAccum.apply", "models", "GradAccum.apply"),
    ("evaluate.rank_of", "evaluate", "rank_of"),
    ("evaluate.evaluate", "evaluate", "evaluate"),
    ("training.train_supervised", "training", "train_supervised"),
    ("distill.distill_run", "distill", "distill_run"),
    ("distill.huber_alignment_loss", "distill", "huber_alignment_loss"),
    ("distill.minmax_normalize", "distill", "minmax_normalize"),
    ("llm.make_query", "llm", "make_query"),
    ("llm.parse_scores", "llm", "parse_scores"),
    ("llm.score_query", "llm", "score_query"),
    ("llm.ScoreCache.get", "llm", "ScoreCache.get"),
    ("llm.ScoreCache.put", "llm", "ScoreCache.put"),
    ("llm.ScoreCache.load", "llm", "ScoreCache.__init__"),
    # the only language-model handle the workloads build (llm mode mock-planted)
    ("llm.complete", "llm", "PlantedRuleTeacher.complete"),
    ("checkpoint.save_checkpoint", "checkpoint", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "checkpoint", "load_checkpoint"),
    ("cli", "cli", "main"),
)

# Layers reported as .calls and .s.  A cli.main span is named after its command.
LAYERS = tuple(name for name, _m, _a in FUNCTIONS if name not in ("cli", "llm.ScoreCache.load"))
COMMANDS = ("prepare", "train-teacher", "distill", "evaluate", "cache-llm", "export")
SELF_TIME = ("training.train_supervised", "distill.distill_run")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for cmd in COMMANDS:
        units[f"cli.{cmd}.calls"] = "count"
        units[f"cli.{cmd}.s"] = "s"
    for name in SELF_TIME:
        units[f"{name}.self_s"] = "s"
    units.update(
        {
            "models.lstm_forward.useful_ratio": "ratio",
            "llm.score_query.p50_us": "us",
            "llm.score_query.p99_us": "us",
            "llm.cache_hit_ratio": "ratio",
            "llm.unusable_ratio": "ratio",
            "llm.ScoreCache.load_s": "s",
            "checkpoint.save_checkpoint.bytes": "bytes",
            "trace.spans": "count",
            "trace.overhead_s": "s",
        }
    )
    return units


class Tracer:
    """Records spans for one traced pass at a time; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._run = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._reset_counters()

    def _reset_counters(self) -> None:
        self._command = ""
        self._first = len(self.spans)
        # (command, counter) -> count; the command is the enclosing cli step
        self.counts: dict[tuple[str, str], int] = {}
        self.outer_ns: dict[str, int] = {}
        self.ckpt_bytes = 0
        # lstm_forward usefulness: distinct (params object, tokens, optimizer step).
        # Params objects are kept alive for the pass so that their ids stay unique.
        self._encodings: set[tuple] = set()
        self._params_refs: dict[int, object] = {}
        self._owner: dict[int, int] = {}
        self._steps: dict[int, int] = {}

    # -- patching -----------------------------------------------------------

    def start(self, run_id: int) -> None:
        """Patch every traced name and start a pass with the given run id."""
        self._run = run_id
        self._reset_counters()
        modules = {m: importlib.import_module(f"tkgd.{m}") for m in MODULES}
        modules_all = [importlib.import_module("tkgd"), *modules.values()]
        for name, mod, attr in FUNCTIONS:
            owner = modules[mod]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                original = owner.__dict__[leaf]
                self._patch(owner, leaf, original, self._wrap(name, original))
                continue
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original)
            for module in modules_all:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def stop(self) -> None:
        """Put every original back."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key: str, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            if name == "cli":
                span_name = "cli." + str(args[0][0])
                tracer._command = span_name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = not active.get(span_name)
            active[span_name] = active.get(span_name, 0) + 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                active[span_name] -= 1
                spans[idx] = (tracer._run, idx, span_name, start, end, parent)
                if outer:
                    tracer.outer_ns[span_name] = tracer.outer_ns.get(span_name, 0) + end - start
                tracer._count(span_name)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, key: str) -> None:
        k = (self._command, key)
        self.counts[k] = self.counts.get(k, 0) + 1

    # -- per-call hooks ---------------------------------------------------------

    def _after_models_lstm_forward(self, args, kwargs, result) -> None:
        tokens = kwargs.get("tokens", args[0] if args else None)
        params = kwargs.get("params", args[1] if len(args) > 1 else None)
        pid = id(params)
        if pid not in self._params_refs:
            self._params_refs[pid] = params
            for tensor in params.tables().values():
                self._owner[id(tensor)] = pid
        key = (pid, np.asarray(tokens).tobytes(), self._steps.get(pid, 0))
        self._encodings.add(key)

    def _after_numerics_adagrad_step(self, args, kwargs, result) -> None:
        param = kwargs.get("param", args[0] if args else None)
        pid = self._owner.get(id(param))
        if pid is not None:
            self._steps[pid] = self._steps.get(pid, 0) + 1

    def _after_llm_ScoreCache_get(self, args, kwargs, result) -> None:
        if result is not None:
            self._count("llm.ScoreCache.get.hit")

    def _after_llm_score_query(self, args, kwargs, result) -> None:
        if not result.usable:
            self._count("llm.score_query.unusable")

    def _after_checkpoint_save_checkpoint(self, args, kwargs, result) -> None:
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        self.ckpt_bytes += os.path.getsize(path)

    # -- aggregation ------------------------------------------------------------

    def total(self, key: str, command: str | None = None) -> int:
        return sum(n for (cmd, k), n in self.counts.items() if k == key and command in (None, cmd))

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass traced since the last start()."""
        spans = self.spans[self._first :]
        first = self._first
        child_ns = [0] * len(spans)
        score_ns = []
        for _run, _idx, name, start, end, parent in spans:
            if parent >= first:
                child_ns[parent - first] += end - start
            if name == "llm.score_query":
                score_ns.append(end - start)
        self_ns: dict[str, int] = {}
        for (_run, _idx, name, start, end, _parent), child in zip(spans, child_ns):
            self_ns[name] = self_ns.get(name, 0) + (end - start - child)

        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = self.total(name)
            out[f"{name}.s"] = self.outer_ns.get(name, 0) / 1e9
        for cmd in COMMANDS:
            out[f"cli.{cmd}.calls"] = self.total(f"cli.{cmd}")
            out[f"cli.{cmd}.s"] = self.outer_ns.get(f"cli.{cmd}", 0) / 1e9
        for name in SELF_TIME:
            out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
        forwards = out["models.lstm_forward.calls"]
        out["models.lstm_forward.useful_ratio"] = len(self._encodings) / forwards if forwards else 0.0
        score_us = np.asarray(score_ns or [0], dtype=np.float64) / 1e3
        out["llm.score_query.p50_us"] = float(np.percentile(score_us, 50))
        out["llm.score_query.p99_us"] = float(np.percentile(score_us, 99))
        gets = self.total("llm.ScoreCache.get", "cli.distill")
        out["llm.cache_hit_ratio"] = self.total("llm.ScoreCache.get.hit", "cli.distill") / gets if gets else 0.0
        queries = out["llm.score_query.calls"]
        out["llm.unusable_ratio"] = self.total("llm.score_query.unusable") / queries if queries else 0.0
        out["llm.ScoreCache.load_s"] = self.outer_ns.get("llm.ScoreCache.load", 0) / 1e9
        out["checkpoint.save_checkpoint.bytes"] = self.ckpt_bytes
        out["trace.spans"] = len(spans)
        return out

    def write(self, path: Path) -> None:
        """Write every recorded span as JSON lines.

        The first line maps name ids to span names; each further line is
        [run, span id, name id, start ns, end ns, parent span id or -1].
        """
        names: dict[str, int] = {}
        with path.open("w", encoding="utf-8") as fh:
            rows = []
            for run, idx, name, start, end, parent in self.spans:
                rows.append(f"[{run},{idx},{names.setdefault(name, len(names))},{start},{end},{parent}]\n")
            fh.write(json.dumps({"names": list(names), "columns": ["run", "span", "name", "start_ns", "end_ns", "parent"]}) + "\n")
            fh.writelines(rows)
