"""End-to-end pipeline tests driven through the command-line entry point."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tkgd.checkpoint import load_checkpoint
from tkgd.cli import main
from tkgd.graph import generate_synthetic
from tkgd.models import init_params

BASE_CONFIG = """\
[dataset]
synthetic = yes
n_entities = 12
n_relations = 2
n_buckets = 4
n_facts = 90
pattern_strength = 0.9

[model]
backbone = ttranse
teacher_dim = 8
student_dim = 4

[train]
batch_size = 32
max_epochs = 4
lr = 0.1
neg_samples = 4
eval_every = 2

[distill]
method = ours
phase1_epochs = 2
phase2_epochs = 1
lambda_llm = 0.5
llm_topk = 5

[llm]
mode = mock-planted

[run]
seed = 13
out = out
"""


def _write(tmp_path, text=BASE_CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _with(text, **overrides):
    """Replace whole 'key = value' lines in the base config."""
    lines = []
    for line in text.splitlines():
        key = line.split("=")[0].strip()
        if key in overrides:
            line = f"{key} = {overrides.pop(key)}"
        lines.append(line)
    assert not overrides, f"keys not present in template: {sorted(overrides)}"
    return "\n".join(lines) + "\n"


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(code: str) -> str:
    """stdout of code run by a new interpreter that imports tkgd from this checkout."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _loaded_tables(path):
    params, _ = load_checkpoint(path)
    return {name: t.values for name, t in params.tables().items()}


class TestLazyPackage:
    """The package re-exports load on first use, so the command line caps threads before numpy loads."""

    def test_importing_the_cli_loads_no_numpy(self):
        assert _fresh_python("import sys, tkgd.cli; print('numpy' in sys.modules)") == "False"

    def test_only_the_remote_teacher_loads_requests(self):
        assert _fresh_python("import sys, tkgd.llm; print('requests' in sys.modules)") == "False"

    def test_reexports_resolve_after_their_submodules(self):
        code = """
import sys, types
import tkgd.evaluate, tkgd.graph
import tkgd
from tkgd import *
from tkgd import evaluate
wrong = [n for n in tkgd.__all__ if getattr(tkgd, n) is not getattr(sys.modules[getattr(tkgd, n).__module__], n)]
print(wrong, isinstance(evaluate, types.FunctionType), tkgd.graph.__name__, 'numpy' in sys.modules)
"""
        assert _fresh_python(code) == "[] True tkgd.graph True"


class TestPipeline:
    def test_full_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)

        assert main(["prepare", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "entities     12" in out
        assert "digest" in out
        assert (tmp_path / "out" / "data" / "train.txt").exists()

        assert main(["train-teacher", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "teacher checkpoint written" in out
        assert (tmp_path / "out" / "teacher.ckpt").exists()
        log_lines = (tmp_path / "out" / "train_teacher_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 4
        assert json.loads(log_lines[0])["phase"] == "supervised"

        assert main(["distill", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "student checkpoint written" in out
        assert (tmp_path / "out" / "student.ckpt").exists()
        assert (tmp_path / "out" / "llm_cache.jsonl").exists()
        records = [json.loads(ln) for ln in (tmp_path / "out" / "distill_log.jsonl").read_text().splitlines()]
        assert [r["phase"] for r in records] == [1, 1, 2]
        assert records[-1]["llm_calls"] > 0

        assert main(["evaluate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "MRR" in out
        report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
        assert report["split"] == "test"
        assert report["checkpoint_dim"] == 4
        assert set(report["metrics"]["hits"]) == {"1", "3", "10"}

        assert main(["export", "--config", cfg]) == 0
        text = (tmp_path / "out" / "embeddings.txt").read_text()
        assert text.startswith("# entities 12 4")

        assert main(["cache-llm", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "cache holds" in out

    def test_zero_epoch_teacher_is_the_seeded_init(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, _with(BASE_CONFIG, max_epochs="0"))
        assert main(["train-teacher", "--config", cfg]) == 0
        loaded = _loaded_tables(tmp_path / "out" / "teacher.ckpt")
        dataset = generate_synthetic(12, 2, 4, 90, 0.9, seed=13)
        want = init_params("ttranse", 8, 12, 2, len(dataset.vocab.time_buckets), seed=13)
        for name, values in loaded.items():
            assert np.array_equal(values, want.tables()[name].values), name

    def test_same_seed_reproduces_checkpoint_bytes(self, tmp_path, monkeypatch):
        blobs = []
        for sub in ("a", "b"):
            workdir = tmp_path / sub
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            cfg = _write(workdir)
            assert main(["train-teacher", "--config", cfg]) == 0
            assert main(["distill", "--config", cfg]) == 0
            blobs.append(
                (
                    (workdir / "out" / "teacher.ckpt").read_bytes(),
                    (workdir / "out" / "student.ckpt").read_bytes(),
                )
            )
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]

    def test_seed_override_changes_the_data(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["prepare", "--config", cfg, "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["prepare", "--config", cfg, "--seed", "2"]) == 0
        second = capsys.readouterr().out
        digest = lambda out: [ln for ln in out.splitlines() if "digest" in ln]
        assert digest(first) != digest(second)


class TestDistillVariants:
    def test_bkd_never_calls_llm(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, _with(BASE_CONFIG, method="bkd", mode="none"))
        assert main(["train-teacher", "--config", cfg]) == 0
        assert main(["distill", "--config", cfg]) == 0
        records = [json.loads(ln) for ln in (tmp_path / "out" / "distill_log.jsonl").read_text().splitlines()]
        assert len(records) == 2  # phase 1 only
        assert all(r["llm_calls"] == 0 for r in records)
        assert not (tmp_path / "out" / "llm_cache.jsonl").exists()

    def test_warm_cache_run_is_call_free_and_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, _with(BASE_CONFIG, mode="mock-echo"))
        assert main(["train-teacher", "--config", cfg]) == 0
        assert main(["distill", "--config", cfg]) == 0
        records = [json.loads(ln) for ln in (tmp_path / "out" / "distill_log.jsonl").read_text().splitlines()]
        assert records[-1]["llm_calls"] > 0
        first_student = (tmp_path / "out" / "student.ckpt").read_bytes()

        assert main(["distill", "--config", cfg]) == 0
        records = [json.loads(ln) for ln in (tmp_path / "out" / "distill_log.jsonl").read_text().splitlines()]
        assert records[-1]["llm_calls"] == 0
        assert (tmp_path / "out" / "student.ckpt").read_bytes() == first_student

    def test_disabled_alignment_matches_no_llm_run(self, tmp_path, monkeypatch):
        tables = {}
        for name, mode in (("none_run", "none"), ("noise_run", "mock-noise")):
            workdir = tmp_path / name
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            cfg = _write(workdir, _with(BASE_CONFIG, lambda_llm="0", mode=mode))
            assert main(["train-teacher", "--config", cfg]) == 0
            assert main(["distill", "--config", cfg]) == 0
            tables[name] = _loaded_tables(workdir / "out" / "student.ckpt")
        for name in tables["none_run"]:
            assert np.array_equal(tables["none_run"][name], tables["noise_run"][name]), name


class TestEvaluateCommand:
    def test_repeat_evaluation_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["train-teacher", "--config", cfg]) == 0
        assert main(["distill", "--config", cfg]) == 0
        assert main(["evaluate", "--config", cfg]) == 0
        first = (tmp_path / "out" / "eval_report.json").read_bytes()
        assert main(["evaluate", "--config", cfg]) == 0
        assert (tmp_path / "out" / "eval_report.json").read_bytes() == first

    def test_student_evaluates_without_other_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["train-teacher", "--config", cfg]) == 0
        assert main(["distill", "--config", cfg]) == 0
        kept = tmp_path / "student_only.ckpt"
        kept.write_bytes((tmp_path / "out" / "student.ckpt").read_bytes())
        for leftover in (tmp_path / "out").iterdir():
            leftover.unlink() if leftover.is_file() else None
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(kept), "--split", "valid"]) == 0
        report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
        assert report["split"] == "valid"

    def test_teacher_checkpoint_evaluates_too(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["train-teacher", "--config", cfg]) == 0
        teacher = str(tmp_path / "out" / "teacher.ckpt")
        assert main(["evaluate", "--config", cfg, "--checkpoint", teacher]) == 0
        report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
        assert report["checkpoint_dim"] == 8


class TestDatasetDigest:
    @pytest.mark.parametrize("command", ["distill", "evaluate"])
    def test_hashed_once_per_command(self, command, tmp_path, monkeypatch):
        from tkgd.graph import Dataset

        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["train-teacher", "--config", cfg]) == 0
        if command == "evaluate":
            assert main(["distill", "--config", cfg]) == 0
        calls = []
        digest = Dataset.digest
        monkeypatch.setattr(Dataset, "digest", lambda self: calls.append(1) or digest(self))
        assert main([command, "--config", cfg]) == 0
        assert len(calls) == 1


class TestFailureModes:
    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg = _write(tmp_path, BASE_CONFIG + "\n[model]\nhidden = 3\n")
        assert main(["prepare", "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_nonzero(self, tmp_path, capsys):
        assert main(["prepare", "--config", str(tmp_path / "absent.ini")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_distill_without_teacher_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["distill", "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err

    def test_vocabulary_mismatch_detected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["train-teacher", "--config", cfg]) == 0
        teacher = str(tmp_path / "out" / "teacher.ckpt")
        bigger = _write(tmp_path, _with(BASE_CONFIG, n_entities="13"), name="bigger.ini")
        assert main(["evaluate", "--config", bigger, "--checkpoint", teacher]) == 1
        assert "does not match the dataset" in capsys.readouterr().err

    def test_bucket_count_mismatch_detected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, _with(BASE_CONFIG, n_buckets="3"))
        assert main(["train-teacher", "--config", cfg]) == 0
        teacher = str(tmp_path / "out" / "teacher.ckpt")
        more = _write(tmp_path, _with(BASE_CONFIG, n_buckets="8"), name="more.ini")
        capsys.readouterr()
        assert main(["evaluate", "--config", more, "--checkpoint", teacher]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "time buckets" in err
        assert "Traceback" not in err

    def test_single_entity_dataset_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, _with(BASE_CONFIG, n_entities="1", n_facts="8"))
        assert main(["train-teacher", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "at least two entities" in err
        assert "Traceback" not in err

    def test_cache_llm_requires_llm_mode(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, _with(BASE_CONFIG, mode="none"))
        assert main(["train-teacher", "--config", cfg]) == 0
        assert main(["cache-llm", "--config", cfg]) == 1
        assert "nothing to cache" in capsys.readouterr().err


class TestCacheLlmCommand:
    def test_populates_then_replays(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["train-teacher", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["cache-llm", "--config", cfg]) == 0
        first = capsys.readouterr().out
        calls = int(re.search(r"handle calls (\d+)", first).group(1))
        responses = int(re.search(r"cache holds (\d+)", first).group(1))
        assert calls == responses > 0  # repeated prompts are deduplicated in-run
        assert main(["cache-llm", "--config", cfg]) == 0
        second = capsys.readouterr().out
        assert "handle calls 0" in second
        hit, total = map(int, re.search(r"\((\d+) of (\d+) queries", second).groups())
        assert hit == total

    def test_query_file_drives_the_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["train-teacher", "--config", cfg]) == 0
        queries = tmp_path / "queries.tsv"
        queries.write_text("# a comment line\ne0\tr0\te1\t1900\tobject\ne0\tr0\te1\t1900\tsubject\n")
        capsys.readouterr()
        assert main(["cache-llm", "--config", cfg, "--queries", str(queries)]) == 0
        out = capsys.readouterr().out
        assert "cache holds 2 responses" in out

    def test_bad_query_file_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["train-teacher", "--config", cfg]) == 0
        queries = tmp_path / "queries.tsv"
        queries.write_text("e0\tr0\te1\t1900\tboth\n")
        assert main(["cache-llm", "--config", cfg, "--queries", str(queries)]) == 1
        assert "slot" in capsys.readouterr().err
