"""Config parsing/validation and the binary checkpoint format."""
import logging
import os
import re
from pathlib import Path

import numpy as np
import pytest

from tkgd.checkpoint import CheckpointError, export_embeddings, load_checkpoint, save_checkpoint
from tkgd.config import ConfigError, parse_config
from tkgd.graph import Vocabulary
from tkgd.models import GATES, TADistMultParams, init_params

GATE_SLICE_CKPT = Path(__file__).parent / "fixtures" / "tadistmult_gates.ckpt"


def _write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = """
[dataset]
path = data/some_dir

[run]
seed = 11
"""


class TestParseConfig:
    def test_defaults_fill_in(self, tmp_path):
        cfg = parse_config(_write_config(tmp_path, MINIMAL))
        assert cfg.teacher_dim == 400
        assert cfg.student_dim == 25
        assert cfg.batch_size == 1024
        assert cfg.tau == 7.0
        assert cfg.alpha_kd == 0.9
        assert cfg.lambda_llm == 0.5
        assert cfg.beta == 0.1
        assert cfg.llm_topk == 10
        assert cfg.method == "ours"
        assert cfg.llm_mode == "none"
        assert cfg.eval_mode == "raw"
        assert cfg.tie_policy == "pessimistic"
        assert cfg.threads == 1
        assert cfg.seed == 11

    def test_seed_is_required(self, tmp_path):
        with pytest.raises(ConfigError, match="run.seed"):
            parse_config(_write_config(tmp_path, "[dataset]\npath = x\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.ini")

    def test_unknown_key_rejected(self, tmp_path):
        text = MINIMAL + "\n[model]\nstudnet_dim = 10\n"
        with pytest.raises(ConfigError, match="studnet_dim"):
            parse_config(_write_config(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        text = MINIMAL + "\n[optimizer]\nlr = 0.1\n"
        with pytest.raises(ConfigError, match="optimizer"):
            parse_config(_write_config(tmp_path, text))

    def test_type_mismatch_names_the_key(self, tmp_path):
        text = MINIMAL + "\n[train]\nbatch_size = many\n"
        with pytest.raises(ConfigError, match="train.batch_size"):
            parse_config(_write_config(tmp_path, text))

    def test_invalid_value_names_the_key(self, tmp_path):
        text = MINIMAL + "\n[model]\nstudent_dim = 0\n"
        with pytest.raises(ConfigError, match="student_dim"):
            parse_config(_write_config(tmp_path, text))

    def test_remote_mode_needs_endpoint_and_model(self, tmp_path):
        text = MINIMAL + "\n[llm]\nmode = remote\n"
        with pytest.raises(ConfigError, match="llm.endpoint"):
            parse_config(_write_config(tmp_path, text))
        text = MINIMAL + "\n[llm]\nmode = remote\nendpoint = http://x\n"
        with pytest.raises(ConfigError, match="llm.model"):
            parse_config(_write_config(tmp_path, text))

    def test_synthetic_flag_drops_path_requirement(self, tmp_path):
        text = "[dataset]\nsynthetic = yes\n\n[run]\nseed = 1\n"
        cfg = parse_config(_write_config(tmp_path, text))
        assert cfg.synthetic is True
        assert cfg.n_entities == 50
        with pytest.raises(ConfigError, match="dataset.path"):
            parse_config(_write_config(tmp_path, "[run]\nseed = 1\n", name="bare.ini"))

    def test_overrides_apply_after_file(self, tmp_path):
        path = _write_config(tmp_path, MINIMAL + "\n[model]\nstudent_dim = 30\n")
        cfg = parse_config(path, overrides={"model.student_dim": "12", "run.seed": "99"})
        assert cfg.student_dim == 12
        assert cfg.seed == 99

    def test_override_unknown_key_rejected(self, tmp_path):
        path = _write_config(tmp_path, MINIMAL)
        with pytest.raises(ConfigError, match="model.hidden"):
            parse_config(path, overrides={"model.hidden": "4"})

    def test_inverted_capacity_gap_warns_but_parses(self, tmp_path, caplog):
        text = MINIMAL + "\n[model]\nteacher_dim = 8\nstudent_dim = 25\n"
        with caplog.at_level(logging.WARNING, logger="tkgd.config"):
            cfg = parse_config(_write_config(tmp_path, text))
        assert cfg.teacher_dim == 8
        assert any("capacity" in rec.message for rec in caplog.records)


class TestPhaseDerivation:
    def test_both_unset_splits_eighty_twenty(self, tmp_path):
        text = MINIMAL + "\n[train]\nmax_epochs = 100\n"
        cfg = parse_config(_write_config(tmp_path, text))
        assert cfg.distill_phases() == (80, 20)

    def test_rounding_favors_phase_two(self, tmp_path):
        text = MINIMAL + "\n[train]\nmax_epochs = 7\n"
        cfg = parse_config(_write_config(tmp_path, text))
        p1, p2 = cfg.distill_phases()
        assert (p1, p2) == (5, 2)
        assert p1 + p2 == 7

    def test_one_set_other_takes_remainder(self, tmp_path):
        text = MINIMAL + "\n[train]\nmax_epochs = 10\n\n[distill]\nphase2_epochs = 3\n"
        cfg = parse_config(_write_config(tmp_path, text))
        assert cfg.distill_phases() == (7, 3)
        text = MINIMAL + "\n[train]\nmax_epochs = 10\n\n[distill]\nphase1_epochs = 4\n"
        cfg = parse_config(_write_config(tmp_path, text))
        assert cfg.distill_phases() == (4, 6)

    def test_both_set_win_over_budget(self, tmp_path):
        text = MINIMAL + "\n[distill]\nphase1_epochs = 2\nphase2_epochs = 9\n"
        cfg = parse_config(_write_config(tmp_path, text))
        assert cfg.distill_phases() == (2, 9)


class TestDistillChecks:
    """distill.method and the phase counts are checked once, by DistillConfig."""

    @pytest.mark.parametrize(
        "line, problem",
        [("method = nope", "unknown distillation method 'nope'"),
         ("phase1_epochs = -1", "must be nonnegative"),
         ("phase2_epochs = -1", "must be nonnegative")],
    )
    def test_reported_under_distill(self, tmp_path, line, problem):
        with pytest.raises(ConfigError, match=r"^distill: ") as err:
            parse_config(_write_config(tmp_path, MINIMAL + f"\n[distill]\n{line}\n"))
        assert problem in str(err.value)


class TestConfigDigest:
    def test_stable_for_equal_configs(self, tmp_path):
        a = parse_config(_write_config(tmp_path, MINIMAL, name="a.ini"))
        b = parse_config(_write_config(tmp_path, MINIMAL, name="b.ini"))
        assert a.digest() == b.digest()

    def test_sensitive_to_any_setting(self, tmp_path):
        a = parse_config(_write_config(tmp_path, MINIMAL, name="a.ini"))
        b = parse_config(_write_config(tmp_path, MINIMAL + "\n[distill]\ntau = 6\n", name="b.ini"))
        assert a.digest() != b.digest()


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("backbone", ["ttranse", "tadistmult"])
    def test_bitwise_round_trip(self, tmp_path, backbone):
        params = init_params(backbone, 6, 9, 3, 4, seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path, dataset_digest="d" * 64, config_digest="c" * 64, n_buckets=4)
        loaded, header = load_checkpoint(path)
        assert header["backbone"] == backbone
        assert header["dim"] == 6
        assert header["n_entities"] == 9
        assert header["n_relations"] == 3
        assert header["n_buckets"] == 4
        assert header["dataset_digest"] == "d" * 64
        for name in params.tables():
            assert np.array_equal(loaded.tables()[name].values, params.tables()[name].values), name
            assert np.all(loaded.tables()[name].accum == 0.0)
        if backbone == "tadistmult":
            assert loaded.n_relations == 3

    def test_expectations_enforced(self, tmp_path):
        params = init_params("ttranse", 400, 9, 3, 4, seed=0)
        path = tmp_path / "teacher.ckpt"
        save_checkpoint(params, path)
        with pytest.raises(CheckpointError, match="dimension"):
            load_checkpoint(path, expect_dim=25)
        with pytest.raises(CheckpointError, match="backbone"):
            load_checkpoint(path, expect_backbone="tadistmult")
        loaded, _ = load_checkpoint(path, expect_backbone="ttranse", expect_dim=400)
        assert loaded.dim == 400

    def test_dataset_digest_mismatch_only_warns(self, tmp_path, caplog):
        params = init_params("ttranse", 4, 5, 2, 2, seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path, dataset_digest="a" * 64)
        with caplog.at_level(logging.WARNING, logger="tkgd.checkpoint"):
            loaded, _ = load_checkpoint(path, dataset_digest="b" * 64)
        assert loaded is not None
        assert any("different dataset" in rec.message for rec in caplog.records)


class TestCheckpointContract:
    def test_save_refuses_bucket_count_off_the_time_table(self, tmp_path):
        params = init_params("ttranse", 4, 5, 2, 3, seed=0)
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match="time_emb"):
            save_checkpoint(params, path, n_buckets=4)
        assert not path.exists()

    def test_save_refuses_relation_count_off_the_token_table(self, tmp_path):
        good = init_params("tadistmult", 3, 4, 2, 2, seed=0)
        params = TADistMultParams(*good.tables().values(), n_relations=3)
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match="token_emb"):
            save_checkpoint(params, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "vocab, message",
        [
            (Vocabulary([f"e{i}" for i in range(6)], ["r0", "r1"], [1, 2, 3]), "5 entities, 2 relations"),
            (Vocabulary([f"e{i}" for i in range(5)], ["r0"], [1, 2, 3]), "5 entities, 1 relations"),
            (Vocabulary([f"e{i}" for i in range(5)], ["r0", "r1"], [1, 2]), "dataset (2 time buckets)"),
        ],
    )
    def test_load_refuses_a_vocabulary_of_other_counts(self, tmp_path, vocab, message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params("ttranse", 4, 5, 2, 3, seed=0), path)
        with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*" + re.escape(message)):
            load_checkpoint(path, vocab=vocab)

    def test_load_accepts_a_matching_vocabulary(self, tmp_path):
        vocab = Vocabulary([f"e{i}" for i in range(5)], ["r0", "r1"], [1, 2, 3])
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params("ttranse", 4, 5, 2, 3, seed=0), path)
        loaded, _ = load_checkpoint(path, vocab=vocab)
        assert loaded.time_emb.shape == (3, 4)
        # tadistmult embeds digits, not buckets, so only the entity and relation counts must agree
        save_checkpoint(init_params("tadistmult", 4, 5, 2, 3, seed=0), path, n_buckets=3)
        other_buckets = Vocabulary(vocab.entity_names, vocab.relation_names, [1, 2, 3, 4, 5])
        loaded, _ = load_checkpoint(path, vocab=other_buckets)
        assert loaded.n_relations == 2

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params("ttranse", 4, 5, 2, 3, seed=0), path)
        before = path.read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            save_checkpoint(init_params("ttranse", 4, 5, 2, 3, seed=1), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


class TestGateSliceLayout:
    def test_committed_file_loads_and_resaves_byte_for_byte(self, tmp_path):
        """The file layout keeps one tensor per LSTM gate, as files written before
        the gates were stacked into w, u and b.  The fixture was written by that
        earlier code with

        PYTHONPATH=src python -c "from tkgd.models import init_params; from tkgd.checkpoint import save_checkpoint; save_checkpoint(init_params('tadistmult', 3, 4, 2, 2, seed=0), 'tests/fixtures/tadistmult_gates.ckpt')"
        """
        fixture = GATE_SLICE_CKPT.read_bytes()
        loaded, header = load_checkpoint(GATE_SLICE_CKPT)
        names = [name for name, _shape in header["tensors"]]
        assert names == ["entity_emb", "token_emb"] + [f"{p}_{g}" for p in ("w", "u", "b") for g in GATES]
        assert loaded.b.values.tolist() == [0.0] * 3 + [1.0] * 3 + [0.0] * 6
        assert loaded.w.shape == (12, 3) and loaded.u.shape == (12, 3)

        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(loaded, resaved)
        assert resaved.read_bytes() == fixture
        fresh = tmp_path / "fresh.ckpt"
        save_checkpoint(init_params("tadistmult", 3, 4, 2, 2, seed=0), fresh)
        assert fresh.read_bytes() == fixture


class TestCheckpointCorruption:
    def _saved(self, tmp_path):
        params = init_params("ttranse", 4, 5, 2, 2, seed=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        return path

    def test_flipped_payload_byte_detected(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-40] ^= 0xFF  # inside the payload, ahead of the 32-byte digest
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        path.write_bytes(blob[:3])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic_detected(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"WHAT"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_wrong_version_detected(self, tmp_path):
        import hashlib
        import json

        path = self._saved(tmp_path)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8 : 8 + header_len])
        header["format_version"] = 99
        new_header = json.dumps(header, sort_keys=True).encode("utf-8")
        payload = blob[8 + header_len : -32]
        digest = hashlib.sha256(new_header + payload).digest()
        path.write_bytes(
            blob[:4] + len(new_header).to_bytes(4, "little") + new_header + payload + digest
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_header_that_is_not_an_object_detected(self, tmp_path):
        import hashlib

        path = self._saved(tmp_path)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[4:8], "little")
        payload = blob[8 + header_len : -32]
        new_header = b"[1, 2]"
        digest = hashlib.sha256(new_header + payload).digest()
        path.write_bytes(blob[:4] + len(new_header).to_bytes(4, "little") + new_header + payload + digest)
        with pytest.raises(CheckpointError, match="JSON object"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")


class TestCheckpointSizes:
    def test_student_file_much_smaller_than_teacher(self, tmp_path):
        teacher = init_params("ttranse", 400, 50, 4, 10, seed=0)
        student = init_params("ttranse", 25, 50, 4, 10, seed=1)
        t_path = tmp_path / "teacher.ckpt"
        s_path = tmp_path / "student.ckpt"
        save_checkpoint(teacher, t_path)
        save_checkpoint(student, s_path)
        assert s_path.stat().st_size < t_path.stat().st_size / 10


class TestExportEmbeddings:
    def test_translation_export_blocks(self, tmp_path):
        params = init_params("ttranse", 3, 4, 2, 2, seed=0)
        vocab = Vocabulary(["a", "b", "c", "d"], ["r0", "r1"], [1900, 1950])
        out = tmp_path / "emb.txt"
        export_embeddings(params, vocab, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "# entities 4 3"
        assert lines[1].startswith("a\t")
        assert "# relations 2 3" in lines
        assert "# time-buckets 2 3" in lines
        assert any(ln.startswith("1950\t") for ln in lines)
        # rows parse back to the stored values
        first_row = np.array([float(v) for v in lines[1].split("\t")[1].split()])
        assert np.allclose(first_row, params.entity_emb.values[0], atol=0)

    def test_recurrent_export_blocks(self, tmp_path):
        params = init_params("tadistmult", 3, 4, 2, 2, seed=0)
        vocab = Vocabulary(["a", "b", "c", "d"], ["r0", "r1"], [1900, 1950])
        out = tmp_path / "emb.txt"
        export_embeddings(params, vocab, out)
        text = out.read_text()
        assert "# relation-tokens 2 3" in text
        assert "# digit-tokens 10 3" in text
        assert "digit:9\t" in text
        assert "w_input" not in text
