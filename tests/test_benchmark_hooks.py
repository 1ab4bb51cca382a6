"""The names the benchmark's span tracer (``perfbench/tracer.py``) wraps and
the kernel backend its worker reports exist in the package, so that a
refactor which moves one of them fails here and not only in a benchmark
run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve():
    tracer = load_tracer()
    for name, (module, path) in tracer.TARGETS.items():
        importlib.import_module(module)
        for owner, attr in tracer._resolve(module, path):
            fn = getattr(owner, attr, None)
            assert callable(fn), f"{name}: {module}.{path} is not callable"
            if name in tracer.CACHED:
                assert hasattr(fn, "cache_info"), f"{name} is not an lru_cache"
    assert callable(importlib.import_module("wreathmac.hodge")._triples)
    assert importlib.import_module("wreathmac.kernels").BACKEND == "python"
