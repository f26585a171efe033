"""Binary model checkpoints: versioned header, fixed tensor order, content digest.

Layout: 4-byte magic, 4-byte little-endian header length, UTF-8 JSON header,
parameter tensors flattened as little-endian 32-bit floats in the order the
header declares, then a 32-byte SHA-256 of header plus payload.  The header
carries the backbone tag, dimensions, vocabulary sizes, and the digests of the
dataset and config that produced the parameters, so a checkpoint can refuse to
load into the wrong model and can flag a vocabulary mismatch before it turns
into silently shuffled entities.

The contract: the header's tensor list is exactly _file_layout of its backbone,
dim, n_entities, n_relations and n_buckets.  Saving refuses parameters whose
shapes disagree with it, and loading refuses a header whose list differs from
it, so a file's tensors always have the shapes its sizes promise.

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
import math
from pathlib import Path

import numpy as np

from .graph import Vocabulary, _is_int, _write_atomic
from .models import BACKBONES, GATES, N_DIGIT_TOKENS, Params, TADistMultParams, TTransEParams
from .numerics import ParamTensor

logger = logging.getLogger(__name__)

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint", "export_embeddings"]

MAGIC = b"TKGD"
FORMAT_VERSION = 1
_DIGEST_BYTES = 32
_LSTM_TENSORS = ("w", "u", "b")


def _file_layout(backbone: str, dim: int, n_entities: int, n_relations: int, n_buckets: int) -> list[list]:
    """The header's tensor list, [name, [sizes]] in file order, for a backbone and its sizes."""
    if backbone == "ttranse":
        return [["entity_emb", [n_entities, dim]], ["relation_emb", [n_relations, dim]], ["time_emb", [n_buckets, dim]]]
    gates = [[f"{p}_{g}", [dim] if p == "b" else [dim, dim]] for p in _LSTM_TENSORS for g in GATES]
    return [["entity_emb", [n_entities, dim]], ["token_emb", [n_relations + N_DIGIT_TOKENS, dim]], *gates]


def _file_arrays(params: Params) -> list[np.ndarray]:
    """The arrays _file_layout names, in file order: the LSTM tensors split per gate."""
    out = []
    for name, t in params.tables().items():
        out.extend(np.split(t.values, len(GATES)) if name in _LSTM_TENSORS else [t.values])
    return out


class CheckpointError(Exception):
    """A checkpoint file is unreadable, corrupt, or incompatible."""


def save_checkpoint(
    params: Params,
    path: str | Path,
    *,
    dataset_digest: str = "",
    config_digest: str = "",
    n_buckets: int | None = None,
) -> None:
    """Serialize params to path through a temporary file; see the module docstring for the layout.

    Raises ValueError, writing nothing, when the shapes disagree with the layout the header sizes imply.
    """
    path = Path(path)
    translation = params.backbone == "ttranse"
    n_relations = params.relation_emb.shape[0] if translation else params.n_relations
    if n_buckets is None:
        n_buckets = params.time_emb.shape[0] if translation else 0
    sizes = {
        "dim": int(params.dim),
        "n_entities": int(params.entity_emb.shape[0]),
        "n_relations": int(n_relations),
        "n_buckets": int(n_buckets),
    }
    layout = _file_layout(params.backbone, **sizes)
    arrays = _file_arrays(params)
    shapes = [list(a.shape) for a in arrays]
    if shapes != [shape for _name, shape in layout]:
        raise ValueError(f"cannot save {path}: tensor shapes {shapes} do not match the layout {layout} of {sizes}")
    header = {
        "format_version": FORMAT_VERSION,
        "backbone": params.backbone,
        **sizes,
        "tensors": layout,
        "dataset_digest": dataset_digest,
        "config_digest": config_digest,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for a in arrays)
    digest = hashlib.sha256(header_bytes + payload).digest()
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(path, MAGIC + len(header_bytes).to_bytes(4, "little") + header_bytes + payload + digest)


def load_checkpoint(
    path: str | Path,
    *,
    expect_backbone: str | None = None,
    expect_dim: int | None = None,
    dataset_digest: str | None = None,
    vocab: Vocabulary | None = None,
) -> tuple[Params, dict]:
    """Read a checkpoint back into parameters; returns (params, header).

    The header's integer fields (dim, n_entities, n_relations, n_buckets)
    are type-checked, its tensor list must equal the layout they imply, and
    the file size and content digest are verified against the actual bytes,
    before anything is built; each failure is a CheckpointError naming the
    file and the field.  expect_backbone and expect_dim reject incompatible
    checkpoints outright.  vocab, when given, must have the header's entity
    and relation counts and, for ttranse, which embeds each bucket, its
    bucket count; a mismatch is a CheckpointError.  A dataset_digest that
    disagrees with the header only warns, since evaluating on a different
    split of the same vocabulary is legitimate.
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

    sizes = {key: header.get(key) for key in ("dim", "n_entities", "n_relations", "n_buckets")}
    for key, value in sizes.items():
        if not (_is_int(value) and value >= 0):
            raise CheckpointError(f"{path}: header field {key!r} must be an integer >= 0, got {value!r}")
    layout = _file_layout(backbone, **sizes)
    if header.get("tensors") != layout:
        raise CheckpointError(f"{path}: header field 'tensors' is {header.get('tensors')!r}, expected {layout}")
    counts = [math.prod(shape) for _name, shape in layout]
    payload_len = 4 * sum(counts)
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
    if expect_dim is not None and sizes["dim"] != expect_dim:
        raise CheckpointError(f"{path}: checkpoint dimension is {sizes['dim']}, expected {expect_dim}")
    if dataset_digest is not None and header.get("dataset_digest") and header["dataset_digest"] != dataset_digest:
        logger.warning(
            "%s: checkpoint was trained on a different dataset (digest %s... vs %s...)",
            path,
            header["dataset_digest"][:12],
            dataset_digest[:12],
        )
    if vocab is not None:
        if (sizes["n_entities"], sizes["n_relations"]) != (vocab.n_entities, vocab.n_relations):
            raise CheckpointError(
                f"{path}: checkpoint vocabulary ({sizes['n_entities']} entities, "
                f"{sizes['n_relations']} relations) does not match the dataset "
                f"({vocab.n_entities} entities, {vocab.n_relations} relations)"
            )
        if backbone == "ttranse" and sizes["n_buckets"] != vocab.n_buckets:
            raise CheckpointError(
                f"{path}: checkpoint has {sizes['n_buckets']} time buckets, "
                f"which does not match the dataset ({vocab.n_buckets} time buckets)"
            )

    arrays = []
    offset = 0
    for (_name, shape), count in zip(layout, counts):
        flat = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        arrays.append(flat.reshape(shape).astype(np.float32, copy=True))
        offset += 4 * count
    if backbone == "ttranse":
        params: Params = TTransEParams(*(ParamTensor(a) for a in arrays))
    else:
        slices = arrays[2:]
        lstm = [np.concatenate(slices[i : i + len(GATES)]) for i in range(0, len(slices), len(GATES))]
        params = TADistMultParams(*(ParamTensor(a) for a in arrays[:2] + lstm), n_relations=sizes["n_relations"])
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
                [f"digit:{d}" for d in range(N_DIGIT_TOKENS)],
                tokens[params.n_relations : params.n_relations + N_DIGIT_TOKENS],
            )
