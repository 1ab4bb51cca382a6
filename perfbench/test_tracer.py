"""The benchmark's own test: every per-layer metric is measured, and timing
runs carry no wrapper.

    python3 -m pytest perfbench/test_tracer.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

RANK2 = next(cfg for cfg in wl.LADDER if cfg[2] == 2)


def _worker(trace: bool) -> dict:
    job = {"items": [wl.compute_argv(*RANK2)], "trace": trace, "budget_s": 60}
    res = run.run_worker(job, 120)
    assert res["items"][0]["status"] == "ok"
    return res["done"]


def test_every_layer_records_a_call():
    report = tracer.merge([_worker(True)["trace"]])
    for name in tracer.TARGETS:
        assert report["spans"][name][0] > 0, f"{name}: no call recorded"
    for key, v in report["counters"].items():
        if key != "bgcd_useful":
            assert v > 0, f"counter {key} is 0"
    for name, (hits, misses) in report["caches"].items():
        assert hits + misses > 0, f"{name}: no cache lookup recorded"


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = set(tracer.layer_metrics(tracer.merge([_worker(True)["trace"]])))
    names |= {"process.outside_items_s", "trace.wall_s", "trace.overhead_s", "trace.unaccounted_s"}
    assert names == {m["name"] for m in spec["per_layer"]}


def test_install_rebinds_every_reference():
    sys.path.insert(0, str(run.SRC))
    import wreathmac.cli  # noqa: F401

    originals = {}
    for module, path in tracer.TARGETS.values():
        for owner, attr in tracer._resolve(module, path):
            originals[id(getattr(owner, attr))] = attr
    tr = tracer.Tracer()
    tr.install()
    try:
        left = [
            (m.__name__, attr)
            for m in tracer._wreathmac_modules()
            if not m.__name__.startswith("wreathmac._kernels")
            for owner in [m] + [v for v in vars(m).values() if isinstance(v, type)]
            for attr, v in vars(owner).items()
            if id(v) in originals and not hasattr(v, tracer.MARK)
        ]
        assert not left, f"references not rebound: {left}"
    finally:
        tr.uninstall()
    assert tracer.count_wrapped() == 0


def test_timing_runs_carry_no_wrapper():
    assert _worker(False)["wrapped"] == 0
    assert _worker(True)["wrapped"] > 0
