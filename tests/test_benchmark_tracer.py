"""The benchmark's span tracer must find every function it traces in tkgd."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("tkgd_benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for span, module, attr in tracer.FUNCTIONS:
        owner = importlib.import_module(f"tkgd.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        # the tracer patches a method in the class's own namespace, so an inherited one does not count
        found = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
        assert callable(found), f"span {span}: tkgd.{module}.{attr} is missing or not callable"
