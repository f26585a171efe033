"""Binary model checkpoints: versioned header, fixed tensor order, content digest.

Layout: 4-byte magic, 4-byte little-endian header length, UTF-8 JSON header,
parameter tensors flattened as little-endian 32-bit floats in the order the
header declares, then a 32-byte SHA-256 of header plus payload.  The header
carries the backbone tag, dimensions, vocabulary sizes, and the digests of the
dataset and config that produced the parameters, so a checkpoint can refuse to
load into the wrong model and can flag a vocabulary mismatch before it turns
into silently shuffled entities.

The recurrent backbone keeps its LSTM as three stacked tensors w, u and b, but
the file keeps them as twelve per-gate slices named w_input ... b_output (gates
in models.GATES order), the layout of files written before the tensors were
stacked.  Saving splits the tensors, loading concatenates the slices back, so
every existing file stays readable and re-saves byte for byte.
"""
from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path

import numpy as np

from .graph import Vocabulary, _is_int
from .models import BACKBONES, GATES, Params, TADistMultParams, TTransEParams
from .numerics import ParamTensor

logger = logging.getLogger(__name__)

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint", "export_embeddings"]

MAGIC = b"TKGD"
FORMAT_VERSION = 1
_DIGEST_BYTES = 32
_LSTM_TENSORS = ("w", "u", "b")


def _file_tensors(params: Params) -> list[tuple[str, np.ndarray]]:
    """(name, array) pairs in file order, the LSTM tensors split per gate."""
    out = []
    for name, t in params.tables().items():
        if params.backbone == "tadistmult" and name in _LSTM_TENSORS:
            out.extend((f"{name}_{gate}", part) for gate, part in zip(GATES, np.split(t.values, len(GATES))))
        else:
            out.append((name, t.values))
    return out


class CheckpointError(Exception):
    """A checkpoint file is unreadable, corrupt, or incompatible."""


def _is_tensor_entry(entry) -> bool:
    """True for a header tensor entry [name, [sizes]] with every size an integer >= 0."""
    if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str) and isinstance(entry[1], list)):
        return False
    return all(_is_int(size) and size >= 0 for size in entry[1])


def save_checkpoint(
    params: Params,
    path: str | Path,
    *,
    dataset_digest: str = "",
    config_digest: str = "",
    n_buckets: int | None = None,
) -> None:
    """Serialize params to path; see the module docstring for the layout."""
    path = Path(path)
    tensors = _file_tensors(params)
    translation = params.backbone == "ttranse"
    n_relations = params.relation_emb.shape[0] if translation else params.n_relations
    if n_buckets is None:
        n_buckets = params.time_emb.shape[0] if translation else 0
    header = {
        "format_version": FORMAT_VERSION,
        "backbone": params.backbone,
        "dim": params.dim,
        "n_entities": int(params.entity_emb.shape[0]),
        "n_relations": int(n_relations),
        "n_buckets": int(n_buckets),
        "tensors": [[name, list(t.shape)] for name, t in tensors],
        "dataset_digest": dataset_digest,
        "config_digest": config_digest,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(t, dtype="<f4").tobytes() for _name, t in tensors)
    digest = hashlib.sha256(header_bytes + payload).digest()
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header_bytes).to_bytes(4, "little"))
        fh.write(header_bytes)
        fh.write(payload)
        fh.write(digest)


def load_checkpoint(
    path: str | Path,
    *,
    expect_backbone: str | None = None,
    expect_dim: int | None = None,
    dataset_digest: str | None = None,
) -> tuple[Params, dict]:
    """Read a checkpoint back into parameters; returns (params, header).

    The header's integer fields (dim, n_entities, n_relations, n_buckets)
    and its [name, [sizes]] tensor list are type-checked, and the content
    digest and declared shapes are verified against the actual bytes, before
    anything is built; each failure is a CheckpointError naming the file and
    the field.  expect_backbone and expect_dim reject incompatible
    checkpoints outright; a dataset_digest that disagrees with the header
    only warns, since evaluating on a different split of the same vocabulary
    is legitimate.
    Accumulators come back zeroed: a loaded model starts a fresh
    optimizer state.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if len(blob) < 8:
        raise CheckpointError(f"{path}: truncated checkpoint (only {len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic {blob[:4]!r})")
    header_len = int.from_bytes(blob[4:8], "little")
    if len(blob) < 8 + header_len + _DIGEST_BYTES:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    header_bytes = blob[8 : 8 + header_len]
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: unreadable header: not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version!r} (this build reads {FORMAT_VERSION})")
    backbone = header.get("backbone")
    if backbone not in BACKBONES:
        raise CheckpointError(f"{path}: unknown backbone {backbone!r}")

    for key in ("dim", "n_entities", "n_relations", "n_buckets"):
        if not _is_int(header.get(key)):
            raise CheckpointError(f"{path}: header field {key!r} must be an integer, got {header.get(key)!r}")
    tensors = header.get("tensors")
    if not (isinstance(tensors, list) and all(map(_is_tensor_entry, tensors))):
        raise CheckpointError(f"{path}: header field 'tensors' must list [name, [sizes >= 0]] pairs")
    counts = [int(np.prod(shape, dtype=np.int64)) for _name, shape in tensors]
    payload_len = 4 * int(sum(counts))
    expected_total = 8 + header_len + payload_len + _DIGEST_BYTES
    if len(blob) != expected_total:
        raise CheckpointError(
            f"{path}: payload size mismatch (file has {len(blob)} bytes, header implies {expected_total})"
        )
    payload = blob[8 + header_len : 8 + header_len + payload_len]
    digest = blob[8 + header_len + payload_len :]
    if hashlib.sha256(header_bytes + payload).digest() != digest:
        raise CheckpointError(f"{path}: content digest mismatch; the file is corrupt")

    if expect_backbone is not None and backbone != expect_backbone:
        raise CheckpointError(f"{path}: checkpoint backbone is {backbone!r}, expected {expect_backbone!r}")
    if expect_dim is not None and header.get("dim") != expect_dim:
        raise CheckpointError(f"{path}: checkpoint dimension is {header.get('dim')}, expected {expect_dim}")
    if dataset_digest is not None and header.get("dataset_digest") and header["dataset_digest"] != dataset_digest:
        logger.warning(
            "%s: checkpoint was trained on a different dataset (digest %s... vs %s...)",
            path,
            header["dataset_digest"][:12],
            dataset_digest[:12],
        )

    arrays = []
    offset = 0
    for (_name, shape), count in zip(tensors, counts):
        flat = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        arrays.append(flat.reshape([int(s) for s in shape]).astype(np.float32, copy=True))
        offset += 4 * count
    names = [name for name, _shape in tensors]
    if backbone == "ttranse":
        if names != ["entity_emb", "relation_emb", "time_emb"]:
            raise CheckpointError(f"{path}: unexpected tensor list {names} for backbone {backbone!r}")
        params: Params = TTransEParams(*(ParamTensor(a) for a in arrays))
    else:
        if names != ["entity_emb", "token_emb"] + [f"{p}_{g}" for p in _LSTM_TENSORS for g in GATES]:
            raise CheckpointError(f"{path}: unexpected tensor list {names} for backbone {backbone!r}")
        by_name = dict(zip(names, arrays))
        lstm = [np.concatenate([by_name[f"{p}_{g}"] for g in GATES]) for p in _LSTM_TENSORS]
        params = TADistMultParams(*(ParamTensor(a) for a in arrays[:2] + lstm), n_relations=header["n_relations"])
    return params, header


def export_embeddings(params: Params, vocab: Vocabulary, path: str | Path) -> None:
    """Dump embeddings as plain text, one named row per line.

    Format: comment lines '# <table> <rows> <dim>' introduce each block;
    data lines are '<name>\\t<v1> <v2> ...' with full float precision.
    Entities come first, then relations, then time buckets (translation
    backbone) or relation and digit tokens (recurrent backbone).  LSTM
    matrices are internal weights, not embeddings, and are not exported.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    def block(fh, title: str, names: list[str], matrix: np.ndarray) -> None:
        fh.write(f"# {title} {matrix.shape[0]} {matrix.shape[1]}\n")
        for name, row in zip(names, matrix):
            fh.write(name + "\t" + " ".join(repr(float(v)) for v in row) + "\n")

    with path.open("w", encoding="utf-8") as fh:
        block(fh, "entities", vocab.entity_names, params.entity_emb.values)
        if params.backbone == "ttranse":
            block(fh, "relations", vocab.relation_names, params.relation_emb.values)
            block(fh, "time-buckets", [str(y) for y in vocab.time_buckets], params.time_emb.values)
        else:
            tokens = params.token_emb.values
            block(fh, "relation-tokens", vocab.relation_names, tokens[: params.n_relations])
            block(
                fh,
                "digit-tokens",
                [f"digit:{d}" for d in range(10)],
                tokens[params.n_relations : params.n_relations + 10],
            )
