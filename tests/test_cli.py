"""End-to-end pipeline tests driven through the command-line entry point."""
import ctypes
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tkgd import cli
from tkgd.checkpoint import load_checkpoint
from tkgd.cli import main
from tkgd.config import RunConfig
from tkgd.graph import generate_synthetic, save_dataset
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


def _rewrite_header(path, edit):
    """Apply edit to a checkpoint's JSON header in place and rewrite the content digest to match."""
    blob = path.read_bytes()
    n = int.from_bytes(blob[4:8], "little")
    header = json.loads(blob[8 : 8 + n])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = blob[8 + n : -32]
    digest = hashlib.sha256(new + payload).digest()
    path.write_bytes(blob[:4] + len(new).to_bytes(4, "little") + new + payload + digest)


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
        # requests is no dependency; the remote teacher imports urllib.request when it first posts
        code = "import sys, tkgd.llm; print('requests' in sys.modules, 'urllib.request' in sys.modules)"
        assert _fresh_python(code) == "False False"

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


class TestEmptyValidationSplit:
    def test_train_teacher_and_distill_skip_evaluation(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, _with(BASE_CONFIG, n_buckets="2"))  # two buckets leave valid empty
        assert main(["prepare", "--config", cfg]) == 0
        assert re.search(r"train/valid/test \d+/0/\d+", capsys.readouterr().out)

        assert main(["train-teacher", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "teacher checkpoint written" in out
        assert "last validation MRR" not in out
        assert (tmp_path / "out" / "teacher.ckpt").exists()
        log = [json.loads(line) for line in (tmp_path / "out" / "train_teacher_log.jsonl").read_text().splitlines()]
        assert len(log) == 4
        assert not any("valid_mrr" in rec for rec in log)

        assert main(["distill", "--config", cfg]) == 0
        assert (tmp_path / "out" / "student.ckpt").exists()


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

    def test_entity_count_numpy_cannot_draw(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, _with(BASE_CONFIG, n_entities=str(2**70)))
        capsys.readouterr()
        assert main(["prepare", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "2**63" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value",
        [("timeout", v) for v in ("inf", "nan", "0", "-1", "1e10")]
        + [("min_interval", v) for v in ("inf", "-inf", "nan", "-0.5", "1e10")],
    )
    def test_bad_llm_timing(self, tmp_path, monkeypatch, capsys, key, value):
        # past about 9.2e9 s (inf included) a socket timeout raises OverflowError mid-request
        monkeypatch.chdir(tmp_path)
        remote = f"[llm]\nmode = remote\nendpoint = http://127.0.0.1:9/chat\nmodel = m\n{key} = {value}\n"
        cfg = _write(tmp_path, BASE_CONFIG.replace("[llm]\nmode = mock-planted\n", remote))
        capsys.readouterr()
        assert main(["cache-llm", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: llm.{key}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section, key, command",
        [("model", "teacher_dim", "train-teacher"), ("model", "student_dim", "distill"),
         ("train", "neg_samples", "train-teacher")],
    )
    @pytest.mark.parametrize("value", [2**63, 10**23])
    def test_size_past_int64_refused(self, tmp_path, monkeypatch, capsys, section, key, command, value):
        # 10**23 ended in a traceback: TypeError from init_params' np.sqrt, OverflowError from negative sampling
        monkeypatch.chdir(tmp_path)
        if command == "distill":
            assert main(["train-teacher", "--config", _write(tmp_path, name="teacher.ini")]) == 0
        cfg = _write(tmp_path, _with(BASE_CONFIG, **{key: str(value)}))
        capsys.readouterr()
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {section}.{key}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["n_entities", "n_relations", "n_buckets"])
    @pytest.mark.parametrize("value", [2**63 + 1, 10**23])
    def test_synthetic_count_past_draw_bound_refused(self, tmp_path, monkeypatch, capsys, key, value):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, _with(BASE_CONFIG, **{key: str(value)}))
        capsys.readouterr()
        assert main(["prepare", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: dataset.{key}: ") and "2**63" in err
        assert "Traceback" not in err

    def test_entity_count_at_draw_bound_accepted(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["prepare", "--config", _write(tmp_path, _with(BASE_CONFIG, n_entities=str(2**63)))]) == 0

    @pytest.mark.parametrize("key, value", [("eps", "inf"), ("margin", "nan"), ("margin", "inf"), ("margin", "-inf")])
    def test_nonfinite_training_value_refused(self, tmp_path, monkeypatch, capsys, key, value):
        # margin = nan made every loss 0 and eps = inf every Adagrad step 0: nothing trained, exit 0
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, BASE_CONFIG.replace("[train]\n", f"[train]\n{key} = {value}\n"))
        capsys.readouterr()
        assert main(["train-teacher", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: train.{key}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "dotted, value",
        [
            (f.metadata["key"], {int: "abc", float: "abc", bool: "maybe"}[f.metadata["type"]])
            for f in fields(RunConfig)
            if f.metadata["type"] is not str
        ],
    )
    def test_unreadable_value_names_its_key(self, tmp_path, monkeypatch, capsys, dotted, value):
        # every declared key that is not a string, so a key added later is swept too
        monkeypatch.chdir(tmp_path)
        section, _, key = dotted.partition(".")
        cfg = _write(tmp_path, f"[{section}]\n{key} = {value}\n")
        capsys.readouterr()
        assert main(["prepare", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {dotted}: ")
        assert "Traceback" not in err

    def test_time_field_must_be_begin_or_end(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, BASE_CONFIG.replace("[dataset]\n", "[dataset]\ntime_field = middle\n"))
        capsys.readouterr()
        assert main(["prepare", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: dataset.time_field: ")
        assert "'middle'" in err

    @pytest.mark.parametrize("key, value", [("method", "nope"), ("phase1_epochs", "-1"), ("phase2_epochs", "-1")])
    def test_bad_distill_setting(self, tmp_path, monkeypatch, capsys, key, value):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, _with(BASE_CONFIG, **{key: value}))
        capsys.readouterr()
        assert main(["prepare", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: distill: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "blob, problem",
        [
            (b"{}", "missing key 'n_entities'"),
            (b'{"n_entities": 12}', "missing key 'offsets'"),
            (b'{"n_entities": "12", "offsets": {"r0": 1}}', "n_entities must be an integer"),
            (b'{"n_entities": 12, "offsets": {"r0": 1.5}}', "offsets must map relation names to integers"),
            (b"[12]", "expected a JSON object"),
            (b'{"n_entities": 12,', "not valid JSON"),
            (b'{"n_entities": 12, "offsets": {"r\xff": 1}}', "not valid JSON"),
        ],
    )
    def test_malformed_rule_json(self, tmp_path, monkeypatch, capsys, blob, problem):
        monkeypatch.chdir(tmp_path)
        data = tmp_path / "data"
        save_dataset(generate_synthetic(12, 2, 4, 90, 0.9, seed=13), data)
        (data / "rule.json").write_bytes(blob)
        cfg = _write(tmp_path, BASE_CONFIG.replace("synthetic = yes", f"synthetic = no\npath = {data}"))
        capsys.readouterr()
        assert main(["prepare", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert str(data / "rule.json") in err and problem in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda h: h.pop("n_entities"), "'n_entities'"),
            (lambda h: h.update(n_entities="12"), "'n_entities'"),
            (lambda h: h.update(n_relations=True), "'n_relations'"),
            (lambda h: h.update(dim=8.0), "'dim'"),
            (lambda h: h.pop("n_buckets"), "'n_buckets'"),
            (lambda h: h.pop("tensors"), "'tensors'"),
            (lambda h: h["tensors"][0].__setitem__(1, ["12", 8]), "'tensors'"),
            (lambda h: h["tensors"][1].__setitem__(1, [-2, 8]), "'tensors'"),
            (lambda h: h["tensors"][2].append("extra"), "'tensors'"),
            (lambda h: h["tensors"].append("time_emb"), "'tensors'"),
            (lambda h: h.update(tensors={"entity_emb": [12, 8]}), "'tensors'"),
        ],
    )
    def test_malformed_checkpoint_header_exits_cleanly(self, tmp_path, monkeypatch, capsys, edit, field):
        """A checkpoint whose digest holds but whose header lacks or mistypes a field is refused by name."""
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["train-teacher", "--config", cfg]) == 0
        path = tmp_path / "out" / "teacher.ckpt"
        _rewrite_header(path, edit)
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and str(path) in errors[0] and field in errors[0], err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "backbone, tensor, shape",
        [
            ("ttranse", 0, [8, 12]),  # entity_emb transposed
            ("ttranse", 1, [16]),  # relation_emb flattened
            ("tadistmult", 0, [8, 12]),  # entity_emb transposed
        ],
    )
    def test_checkpoint_shapes_off_the_header_sizes_exit_cleanly(
        self, tmp_path, monkeypatch, capsys, backbone, tensor, shape
    ):
        """A digest-valid header whose tensor shapes disagree with its sizes is refused by name, never scored."""
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, _with(BASE_CONFIG, backbone=backbone))
        assert main(["train-teacher", "--config", cfg]) == 0
        path = tmp_path / "out" / "teacher.ckpt"

        def reshape(header):
            assert np.prod(shape) == np.prod(header["tensors"][tensor][1])  # same byte count, so only shapes differ
            header["tensors"][tensor][1] = shape

        _rewrite_header(path, reshape)
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and str(path) in errors[0] and "'tensors'" in errors[0], err
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

    def test_corrupt_cache_lines_skipped(self, tmp_path, monkeypatch, capsys, caplog):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["train-teacher", "--config", cfg]) == 0
        assert main(["cache-llm", "--config", cfg]) == 0
        cache = Path("out") / "llm_cache.jsonl"  # as the config names it, relative to the working directory
        n_records = len(cache.read_text().splitlines())
        with cache.open("a") as fh:
            fh.write('[1]\n"abc"\nnull\n{"key": [1], "scores": [1, 2, 3, 4, 5]}\n')
        capsys.readouterr()
        with caplog.at_level(logging.WARNING, logger="tkgd.llm"):
            assert main(["cache-llm", "--config", cfg]) == 0
        out, err = capsys.readouterr()
        assert "handle calls 0" in out
        assert "Traceback" not in err
        assert [r.getMessage() for r in caplog.records if r.name == "tkgd.llm"] == [
            f"{cache}:{n_records + i}: skipping corrupt cache record" for i in range(1, 5)
        ]

    @pytest.mark.parametrize("bad", [[1, 2], "abc"], ids=["short", "string"])
    def test_malformed_cached_scores_exit_cleanly(self, tmp_path, monkeypatch, capsys, bad):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["train-teacher", "--config", cfg]) == 0
        assert main(["cache-llm", "--config", cfg]) == 0
        cache = tmp_path / "out" / "llm_cache.jsonl"
        records = [json.loads(line) for line in cache.read_text().splitlines()]
        records[0]["scores"] = bad  # the first query's record: the replay looks it up first
        cache.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        capsys.readouterr()
        assert main(["cache-llm", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cache record {records[0]['key'][:12]}: scores must be a list of 5 numbers, got {bad!r}\n"

    def test_bad_query_file_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["train-teacher", "--config", cfg]) == 0
        queries = tmp_path / "queries.tsv"
        queries.write_text("e0\tr0\te1\t1900\tboth\n")
        assert main(["cache-llm", "--config", cfg, "--queries", str(queries)]) == 1
        assert "slot" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [("nope\tr0\te1\t1905\tobject", "unknown entity name: 'nope'"),
         ("e0\tr9\te1\t1905\tobject", "unknown relation name: 'r9'")],
        ids=["entity", "relation"],
    )
    def test_unknown_name_names_file_and_line(self, tmp_path, monkeypatch, capsys, line, message):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["train-teacher", "--config", cfg]) == 0
        queries = tmp_path / "queries.tsv"
        queries.write_text(f"# queries\ne0\tr0\te1\t1900\tobject\n{line}\n")
        capsys.readouterr()
        assert main(["cache-llm", "--config", cfg, "--queries", str(queries)]) == 1
        assert capsys.readouterr().err == f"error: {queries}:3: {message}\n"


class _FakeLibc:
    """A C library handle whose mallopt records its calls into events and returns ret."""

    def __init__(self, events, ret=1):
        def mallopt(param, value):
            events.append(("mallopt", param, value))
            return ret

        self.mallopt = mallopt


def _no_handle(exc_type):
    """A CDLL stand-in that cannot open the C library."""

    def open_libc(name):
        raise exc_type("no C library handle")

    return open_libc


class TestAllocatorSettings:
    """main pins glibc's malloc thresholds once per process, before any command; other C libraries stay as they are."""

    @pytest.fixture(autouse=True)
    def fresh_process(self):
        cli._keep_freed_heap.cache_clear()
        yield
        cli._keep_freed_heap.cache_clear()  # the next main() applies the real settings again

    def _libc(self, monkeypatch, open_libc):
        monkeypatch.setattr(cli, "ctypes", SimpleNamespace(CDLL=open_libc, c_int=ctypes.c_int))

    def test_set_once_before_dispatch(self, tmp_path, monkeypatch):
        events, handles = [], []

        def open_libc(name):
            events.append(("CDLL", name))
            handles.append(_FakeLibc(events))
            return handles[-1]

        self._libc(monkeypatch, open_libc)
        monkeypatch.setitem(cli._DISPATCH, "prepare", lambda cfg, outdir, args: events.append("prepare") or 0)
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["prepare", "--config", cfg]) == 0
        assert main(["prepare", "--config", cfg]) == 0
        # M_MMAP_THRESHOLD = 32 MiB, then M_TRIM_THRESHOLD = 64 MiB
        assert events == [("CDLL", None), ("mallopt", -3, 33554432), ("mallopt", -1, 67108864), "prepare", "prepare"]
        assert handles[0].mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert handles[0].mallopt.restype is ctypes.c_int

    def test_set_before_a_parse_error(self, monkeypatch, capsys):
        events = []
        self._libc(monkeypatch, lambda name: _FakeLibc(events))
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        assert [e[1] for e in events] == [-3, -1]

    @pytest.mark.parametrize(
        "open_libc",
        [
            _no_handle(OSError),
            _no_handle(TypeError),  # Windows: CDLL(None)
            lambda name: SimpleNamespace(),  # a C library without mallopt (macOS)
            lambda name: _FakeLibc([], ret=0),  # musl's stub: refuses every parameter
        ],
        ids=["oserror", "typeerror", "no-mallopt", "refused"],
    )
    def test_every_command_keeps_its_exit_code(self, open_libc, tmp_path, monkeypatch, capsys):
        self._libc(monkeypatch, open_libc)
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["distill", "--config", cfg]) == 1  # no teacher checkpoint yet
        for command in ("prepare", "train-teacher", "cache-llm", "distill", "evaluate", "export"):
            assert main([command, "--config", cfg]) == 0, command
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--config", cfg, "--split", "nope"])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err


class TestParser:
    def test_built_once_and_reusable_after_an_error(self, capsys):
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["evaluate", "--config", "x", "--split", "nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        args = parser.parse_args(["evaluate", "--config", "x"])
        assert (args.command, args.split, args.checkpoint, args.seed) == ("evaluate", "test", None, None)
        args = parser.parse_args(["distill", "--config", "y", "--teacher", "t", "--seed", "3"])
        assert (args.command, args.teacher, args.seed) == ("distill", "t", 3)
        assert not hasattr(args, "split")


class TestNonUtf8Input:
    """An input file that is not UTF-8 is named with its line: one error line, or a skipped cache record."""

    @staticmethod
    def _one_error_line(capsys, where):
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert where in err and "not UTF-8" in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_split_file(self, newline, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        data = tmp_path / "data"
        save_dataset(generate_synthetic(12, 2, 4, 90, 0.9, seed=13), data)
        train = data / "train.txt"
        lines = train.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].replace("\t", "\txx", 1)
        train.write_bytes(newline.join(lines).encode("utf-8").replace(b"xx", b"\xff") + b"\n")
        cfg = _write(tmp_path, BASE_CONFIG.replace("synthetic = yes", f"synthetic = no\npath = {data}"))
        capsys.readouterr()
        assert main(["prepare", "--config", cfg]) == 1
        self._one_error_line(capsys, f"{train}:3:")

    def test_query_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["train-teacher", "--config", cfg]) == 0
        queries = tmp_path / "queries.tsv"
        queries.write_bytes(b"# queries\ne0\tr0\te1\t1900\tobject\ne0\tr\xff\te1\t1900\tsubject\n")
        capsys.readouterr()
        assert main(["cache-llm", "--config", cfg, "--queries", str(queries)]) == 1
        self._one_error_line(capsys, f"{queries}:3:")

    @pytest.mark.parametrize("command", ["prepare", "distill"])
    def test_config_file(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(BASE_CONFIG.replace("n_entities = 12", "n_entities = 12 # caf\xe9").encode("latin-1"))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 1
        self._one_error_line(capsys, f"{cfg}:3:")

    def test_cache_record_skipped(self, tmp_path, monkeypatch, capsys, caplog):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path)
        assert main(["train-teacher", "--config", cfg]) == 0
        assert main(["cache-llm", "--config", cfg]) == 0
        cache = Path("out") / "llm_cache.jsonl"  # as the config names it, relative to the working directory
        records = cache.read_bytes().splitlines(keepends=True)
        # a record as UTF-16 behind its byte-order mark: json.loads would accept these bytes as they are
        utf16 = b"\xff\xfe" + records[0].rstrip(b"\n").decode("utf-8").encode("utf-16-le") + b"\n"
        cache.write_bytes(records[0] + utf16 + b"\xff\n" + b"".join(records[1:]))
        capsys.readouterr()
        with caplog.at_level(logging.WARNING, logger="tkgd.llm"):
            assert main(["distill", "--config", cfg]) == 0
        out, err = capsys.readouterr()
        assert "llm calls 0" in out  # every record after the bad lines still loaded
        assert "Traceback" not in err
        assert [r.getMessage() for r in caplog.records if r.name == "tkgd.llm"] == [
            f"{cache}:{n}: skipping corrupt cache record" for n in (2, 3)
        ]
