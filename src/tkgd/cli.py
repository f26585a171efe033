"""Command-line pipeline: prepare data, train, distill, evaluate, export.

Heavy imports happen inside the command dispatch so the thread cap can be
written to the BLAS environment variables before numpy loads; that is what
makes --threads 1 bitwise reproducible.
"""
from __future__ import annotations

import argparse
import configparser
import ctypes
import functools
import json
import logging
import os
import sys
from pathlib import Path

logger = logging.getLogger(__name__)

__all__ = ["main"]

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_COMMANDS = {
    "prepare": "build or load the dataset and write it to the output directory",
    "train-teacher": "supervised training of the high-capacity model",
    "distill": "train the student against the teacher checkpoint",
    "evaluate": "rank the test split with a checkpoint and write reports",
    "cache-llm": "pre-populate the language-model score cache offline",
    "export": "dump a checkpoint's embeddings as plain text",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tkgd", description="temporal knowledge-graph distillation pipeline")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run configuration file")
        p.add_argument("--threads", type=int, default=None, help="worker thread cap (1 = bitwise deterministic)")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--out", default=None, help="override run.out output directory")
        if name in ("evaluate", "export"):
            p.add_argument("--checkpoint", default=None, help="checkpoint to load (default: student in run.out)")
        if name == "evaluate":
            p.add_argument("--split", default="test", choices=("train", "valid", "test"), help="split to rank")
        if name == "distill":
            p.add_argument("--teacher", default=None, help="teacher checkpoint (default: teacher.ckpt in run.out)")
        if name == "export":
            p.add_argument("--dest", default=None, help="output text file (default: embeddings.txt in run.out)")
        if name == "cache-llm":
            p.add_argument(
                "--queries",
                default=None,
                help="TSV query list: subject, relation, object, year, slot; "
                "default derives the queries the distillation phase would issue",
            )
    return parser


def _peek_threads(config_path: str) -> int:
    """Read run.threads without importing anything numeric."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(config_path, encoding="utf-8")
        return parser.getint("run", "threads", fallback=1)
    except (configparser.Error, ValueError):
        return 1


def _cap_threads(n: int) -> None:
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(n)


# glibc maps each block of M_MMAP_THRESHOLD (-3) bytes or more on its own and
# unmaps it when freed, and trims free memory at the heap top once it exceeds
# M_TRIM_THRESHOLD (-1); both start at 128 KiB.  Every training step then faulted
# its NumPy temporaries in again, zero-filled: 97k minor faults in a desk-size
# tadistmult train-teacher, 1.5k with these settings.  32 MiB is the largest mmap
# threshold on 64-bit; the trim threshold sits above it.  M_TOP_PAD = 16 MiB alone
# clears the desk-size churn too, but at E=500 it raised distill's faults from
# 85k to 460k, where these thresholds lower them to 27k.
_MALLOPT_SETTINGS = ((-3, 32 << 20), (-1, 64 << 20))


@functools.cache
def _keep_freed_heap() -> None:
    """Apply _MALLOPT_SETTINGS once per process; a libc without mallopt is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle (Windows) or no mallopt (macOS)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOPT_SETTINGS:
        mallopt(param, value)  # a 0 return (musl's stub, or a refused value) changes nothing


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _resolve_dataset(cfg):
    from .graph import LoadSchema, generate_synthetic, load_quadruples

    if cfg.synthetic:
        return generate_synthetic(
            cfg.n_entities, cfg.n_relations, cfg.n_buckets, cfg.n_facts, cfg.pattern_strength, cfg.seed
        )
    return load_quadruples(cfg.dataset_path, LoadSchema(time_field=cfg.time_field))


def _make_llm_handle(cfg, teacher, dataset):
    from . import llm

    if cfg.llm_mode == "none":
        return None
    if cfg.llm_mode == "remote":
        return llm.RemoteTeacher(
            cfg.llm_endpoint,
            cfg.llm_model,
            timeout=cfg.llm_timeout,
            max_retries=cfg.llm_retries,
            min_interval=cfg.llm_min_interval,
        )
    model_id = cfg.llm_model or cfg.llm_mode
    if cfg.llm_mode == "mock-echo":
        if teacher is None:
            raise ValueError("llm.mode mock-echo needs a teacher checkpoint")
        return llm.EchoTeacher(teacher, dataset.vocab, model_id=model_id)
    if cfg.llm_mode == "mock-planted":
        if dataset.rule is None:
            raise ValueError("llm.mode mock-planted needs a dataset with a planted rule")
        return llm.PlantedRuleTeacher(dataset.rule, model_id=model_id)
    return llm.NoiseTeacher(cfg.seed, model_id=model_id)


def _print_report(report, split: str) -> None:
    print(f"split {split} ({report.mode}, {report.tie_policy} ties)   queries {report.n_queries}")
    print(f"  MR       {report.mr:10.3f}")
    print(f"  MRR      {100.0 * report.mrr:10.2f}")
    for k in sorted(report.hits):
        print(f"  Hits@{k:<3d} {100.0 * report.hits[k]:10.2f}")


def _cmd_prepare(cfg, outdir: Path, args) -> int:
    from .graph import save_dataset

    dataset = _resolve_dataset(cfg)
    data_dir = outdir / "data"
    save_dataset(dataset, data_dir)
    v = dataset.vocab
    print(f"dataset written to {data_dir}")
    print(f"  entities     {v.n_entities}")
    print(f"  relations    {v.n_relations}")
    print(f"  time buckets {v.n_buckets}")
    print(f"  train/valid/test {len(dataset.train)}/{len(dataset.valid)}/{len(dataset.test)}")
    print(f"  digest {dataset.digest()}")
    return 0


def _cmd_train_teacher(cfg, outdir: Path, args) -> int:
    import numpy as np

    from .checkpoint import save_checkpoint
    from .models import init_params
    from .training import train_supervised

    dataset = _resolve_dataset(cfg)
    v = dataset.vocab
    params = init_params(cfg.backbone, cfg.teacher_dim, v.n_entities, v.n_relations, v.n_buckets, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 2)
    best, log = train_supervised(
        params,
        dataset,
        rng,
        epochs=cfg.max_epochs,
        batch_size=cfg.batch_size,
        lr=cfg.lr,
        eps=cfg.eps,
        neg_samples=cfg.neg_samples,
        margin=cfg.margin,
        eval_every=cfg.eval_every,
        eval_mode=cfg.eval_mode,
        tie_policy=cfg.tie_policy,
    )
    ckpt = outdir / "teacher.ckpt"
    save_checkpoint(best, ckpt, dataset_digest=dataset.digest(), config_digest=cfg.digest(), n_buckets=v.n_buckets)
    _write_jsonl(outdir / "train_teacher_log.jsonl", log)
    final_mrr = next((r["valid_mrr"] for r in reversed(log) if "valid_mrr" in r), None)
    print(f"teacher checkpoint written to {ckpt}")
    if final_mrr is not None:
        print(f"  last validation MRR {100.0 * final_mrr:.2f}")
    return 0


def _cmd_distill(cfg, outdir: Path, args) -> int:
    import numpy as np

    from .checkpoint import load_checkpoint, save_checkpoint
    from .distill import distill_run, make_student
    from .llm import ScoreCache

    dataset = _resolve_dataset(cfg)
    dataset_digest = dataset.digest()
    v = dataset.vocab
    teacher_path = Path(args.teacher) if args.teacher else outdir / "teacher.ckpt"
    teacher, _ = load_checkpoint(
        teacher_path, expect_backbone=cfg.backbone, expect_dim=cfg.teacher_dim, dataset_digest=dataset_digest, vocab=v
    )
    student = make_student(
        cfg.backbone,
        cfg.student_dim,
        v.n_entities,
        v.n_relations,
        v.n_buckets,
        seed=cfg.seed + 1,
        method=cfg.method,
        teacher_dim=cfg.teacher_dim,
    )
    handle = _make_llm_handle(cfg, teacher, dataset)
    cache = ScoreCache(outdir / "llm_cache.jsonl") if handle is not None else None
    rng = np.random.default_rng(cfg.seed + 3)
    try:
        best, log = distill_run(
            teacher,
            student,
            dataset,
            handle,
            cfg.distill_config(),
            rng,
            llm_cache=cache,
            lr=cfg.lr,
            eps=cfg.eps,
            batch_size=cfg.batch_size,
            eval_every=cfg.eval_every,
            eval_mode=cfg.eval_mode,
            tie_policy=cfg.tie_policy,
        )
    finally:
        if cache is not None:
            cache.close()
    ckpt = outdir / "student.ckpt"
    save_checkpoint(best.params, ckpt, dataset_digest=dataset_digest, config_digest=cfg.digest(), n_buckets=v.n_buckets)
    _write_jsonl(outdir / "distill_log.jsonl", log)
    calls = log[-1]["llm_calls"] if log else 0
    print(f"student checkpoint written to {ckpt}")
    print(f"  method {cfg.method}, epochs {len(log)}, llm calls {calls}")
    return 0


def _cmd_evaluate(cfg, outdir: Path, args) -> int:
    from .checkpoint import load_checkpoint
    from .evaluate import evaluate

    dataset = _resolve_dataset(cfg)
    dataset_digest = dataset.digest()
    ckpt_path = Path(args.checkpoint) if args.checkpoint else outdir / "student.ckpt"
    params, header = load_checkpoint(ckpt_path, dataset_digest=dataset_digest, vocab=dataset.vocab)
    report = evaluate(params, dataset, split=args.split, mode=cfg.eval_mode, tie_policy=cfg.tie_policy)
    _print_report(report, args.split)
    machine = {
        "split": args.split,
        "metrics": report.as_dict(),
        "checkpoint_backbone": header["backbone"],
        "checkpoint_dim": header["dim"],
        "dataset_digest": dataset_digest,
        "config_digest": cfg.digest(),
    }
    report_path = outdir / "eval_report.json"
    report_path.write_text(json.dumps(machine, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"machine report written to {report_path}")
    return 0


def _read_query_file(path: Path, vocab):
    """(quads, slots) of a TSV query list, its years mapped to buckets in one call."""
    import numpy as np

    from .graph import DataError, parse_time_token, read_utf8_text

    ids, years, slots = [], [], []
    for lineno, line in enumerate(read_utf8_text(path).split("\n"), start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise DataError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(parts)}")
        s, p, o, year_token, slot = parts
        if slot not in ("subject", "object"):
            raise DataError(f"{path}:{lineno}: slot must be 'subject' or 'object', got {slot!r}")
        year = parse_time_token(year_token)
        if year is None:
            raise DataError(f"{path}:{lineno}: query year must be concrete, got {year_token!r}")
        try:
            ids.append((vocab.entity_id(s), vocab.relation_id(p), vocab.entity_id(o)))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        years.append(year)
        slots.append(slot)
    quads = np.column_stack([np.array(ids, dtype=np.int64).reshape(-1, 3), vocab.buckets_for_years(years)])
    return quads, slots


def _cmd_cache_llm(cfg, outdir: Path, args) -> int:
    from contextlib import closing

    from .checkpoint import load_checkpoint
    from .distill import phase2_queries
    from .llm import ScoreCache, resolve_topk

    dataset = _resolve_dataset(cfg)
    teacher, _ = load_checkpoint(
        outdir / "teacher.ckpt",
        expect_backbone=cfg.backbone,
        expect_dim=cfg.teacher_dim,
        dataset_digest=dataset.digest(),
        vocab=dataset.vocab,
    )
    handle = _make_llm_handle(cfg, teacher, dataset)
    if handle is None:
        raise ValueError("llm.mode is 'none'; nothing to cache")
    if args.queries:
        quads, slots = _read_query_file(Path(args.queries), dataset.vocab)
    else:
        quads, slots = phase2_queries(dataset.train)

    with closing(ScoreCache(outdir / "llm_cache.jsonl")) as cache:
        _, _, _, hits = resolve_topk(
            handle, teacher, dataset.vocab, quads, slots, cfg.llm_topk, cfg.batch_size, cache=cache
        )
    print(f"cache holds {len(cache)} responses ({hits} of {len(slots)} queries were already cached)")
    print(f"  handle calls {handle.calls}")
    return 0


def _cmd_export(cfg, outdir: Path, args) -> int:
    from .checkpoint import export_embeddings, load_checkpoint

    dataset = _resolve_dataset(cfg)
    ckpt_path = Path(args.checkpoint) if args.checkpoint else outdir / "student.ckpt"
    params, _ = load_checkpoint(ckpt_path, dataset_digest=dataset.digest(), vocab=dataset.vocab)
    dest = Path(args.dest) if args.dest else outdir / "embeddings.txt"
    export_embeddings(params, dataset.vocab, dest)
    print(f"embeddings written to {dest}")
    return 0


_DISPATCH = {
    "prepare": _cmd_prepare,
    "train-teacher": _cmd_train_teacher,
    "distill": _cmd_distill,
    "evaluate": _cmd_evaluate,
    "cache-llm": _cmd_cache_llm,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _build_parser().parse_args(argv)
    threads = args.threads if args.threads is not None else _peek_threads(args.config)
    _cap_threads(max(1, threads))
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    from .checkpoint import CheckpointError
    from .config import ConfigError, parse_config
    from .graph import DataError
    from .llm import LlmError

    overrides = {}
    if args.seed is not None:
        overrides["run.seed"] = str(args.seed)
    if args.out is not None:
        overrides["run.out"] = args.out
    if args.threads is not None:
        overrides["run.threads"] = str(args.threads)
    try:
        cfg = parse_config(args.config, overrides)
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        return _DISPATCH[args.command](cfg, outdir, args)
    except (ConfigError, DataError, CheckpointError, LlmError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
