"""The names the benchmark's span tracer (``perfbench/tracer.py``) wraps and
the kernel backend its worker reports exist in the package, the values it
reads have the shape it reads, and the recorded failures of its reference
outputs still fail with the recorded text and the others keep their
recorded digests, so that a refactor which moves or reshapes one of them
fails here and not only in a benchmark run."""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


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


def test_recorded_sweep_failures_keep_their_text():
    # the benchmark digests a failing item's "<type>: <message>" (as
    # perfbench/worker.py does) and compares it with refs.json
    from wreathmac import cli

    workloads = load_perfbench("workloads")
    refs = json.loads((PERFBENCH / "refs.json").read_text())["sweep"]
    failures = 0
    for band in workloads.SWEEP_BANDS:
        for classes in band:
            ref = refs[workloads.config_key(*workloads.SWEEP_GKN, classes)]
            if "error" not in ref:
                continue
            failures += 1
            argv = workloads.compute_argv(*workloads.SWEEP_GKN, classes)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(argv)
            except Exception as exc:
                assert type(exc).__name__ == ref["error"], classes
                text = f"{type(exc).__name__}: {exc}"
                assert hashlib.sha256(text.encode()).hexdigest() == ref["digest"], text
            else:
                raise AssertionError(f"{classes} no longer fails")
    assert failures == 6


@pytest.mark.parametrize("workload", ["ladder", "sweep"])
def test_succeeding_items_keep_their_digests(workload):
    # every recorded output other than the failures above: stdout's sha256
    # and the exit code, as perfbench/worker.py computes them
    workloads = load_perfbench("workloads")
    worker = load_perfbench("worker")
    refs = json.loads((PERFBENCH / "refs.json").read_text())[workload]
    if workload == "ladder":
        configs = workloads.LADDER
    else:
        tuples = [workloads.SWEEP_WARMUP] + [c for band in workloads.SWEEP_BANDS for c in band]
        configs = [(*workloads.SWEEP_GKN, classes) for classes in tuples]
    checked = set()
    for config in configs:
        key = workloads.config_key(*config)
        ref = refs[key]
        if "error" in ref:
            continue
        out = worker.run_cli(workloads.compute_argv(*config))
        assert (out["rc"], out["digest"]) == (ref["rc"], ref["digest"]), key
        checked.add(key)
    assert checked == {key for key, ref in refs.items() if "error" not in ref}
    assert len(checked) == {"ladder": 14, "sweep": 19}[workload]
