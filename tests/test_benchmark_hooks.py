"""The names the benchmark's span tracer (``perfbench/tracer.py``) wraps and
the kernel backend its worker reports exist in the package, and the values
it reads have the shape it reads, so that a refactor which moves or reshapes
one of them fails here and not only in a benchmark run."""

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


def test_bgcd_returns_the_gcd_as_int_lists():
    # tracer._post_bgcd reads the gcd in the kernels' recursive dense form
    # (a constant is one row of one entry); a tuple would make every gcd
    # look non-constant and algebra.gcd_useful_ratio read 1.0
    kernels = importlib.import_module("wreathmac.kernels")
    tracer = load_tracer().Tracer()
    # w^2 - z^2 and w^2 + (z + 2) w + 2z share w + z; w + 1 and w + 2 nothing
    for a, b, gcd, useful in (
        ([[0, 0, -1], [], [1]], [[0, 2], [2, 1], [1]], [[0, 1], [1]], 1),
        ([[1], [1]], [[2], [1]], [[1]], 0),
    ):
        g = kernels.bgcd(a, b)
        assert isinstance(g, list) and g == gcd
        assert all(type(row) is list and all(type(c) is int for c in row) for row in g)
        before = tracer.counters["bgcd_useful"]
        tracer._post_bgcd((a, b), g)
        assert tracer.counters["bgcd_useful"] - before == useful
