"""wreathmac benchmark: one run of one workload.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
Workloads (see README.md in this directory):

  ladder  the 14 acceptance configurations, each ``compute --json`` in a
          fresh worker process, as ``python -m wreathmac.cli`` runs it
  sweep   one worker process running ``compute --json`` for seeded class
          tuples at (g, k, n) = (0, 2, 4), after a warm-up item

Both run their items through ``worker.py``, which calls ``cli.main``.

A run repeats passes over the workload's inputs until ``--seconds`` have
passed (at least one pass) and reports medians.  Every item's output is
checked against ``refs.json``.  With ``--trace 0`` the last line carries the
end-to-end metrics; with ``--trace 1`` the run adds one traced pass and the
last line carries the per-layer metrics.  Human-readable lines starting with
``#`` come first.  At most one worker process runs at a time.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS_PATH = HERE / "refs.json"
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDENS_PATH = SRC / "wreathmac" / "fixtures" / "hodge_goldens.json"

# the kernel backend the baselines were taken on; runs on another backend
# are refused, because their times are not comparable
BASELINE_BACKEND = "python"
# an item over this budget is killed and counted as a timeout (no item a
# seed can draw takes more than 9 s at the baseline)
ITEM_BUDGET_S = 60.0
# every item of a run ends within this many seconds of its start: no pass
# starts that could overrun it, and item budgets are cut to it
RUN_DEADLINE_S = 150.0
# set-up probes: workers started before the passes that only start, import
# and (on sweep) run the warm-up item; the first also reports the kernel
# backend.  setup_s is the median start-up time of the probes and of the
# untraced pass workers: 1 + 14 per pass on ladder, 2 + 1 per pass on sweep,
# whose warm-up item's time varies by about 15 % from process to process
SETUP_PROBES = {"ladder": 1, "sweep": 2}

DOCUMENTED_RC = (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(job: dict, timeout_s: float) -> dict:
    """Run one ``worker.py`` process to its end and collect its report.  A
    worker past ``timeout_s`` is killed and its missing items count as
    timeouts.  ``startup_s`` is the time from starting the process to its
    "ready" line (interpreter start, imports, any warm-up item), and
    ``process_s`` the time until it has exited."""
    out = {"ready": None, "items": [], "done": None, "startup_s": None}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        cwd=ROOT,
        env=child_env(),
        text=True,
    )
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if not line.endswith("\n"):
                break  # cut short by the kill
            msg = json.loads(line)
            if "ready" in msg:
                out["ready"] = msg
                out["startup_s"] = time.perf_counter() - t0
            elif "item" in msg:
                out["items"].append(msg)
            elif "done" in msg:
                out["done"] = msg
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    out["process_s"] = time.perf_counter() - t0
    while len(out["items"]) < len(job["items"]):
        out["items"].append({"status": "timeout", "s": 0.0})
    return out


# ---------------------------------------------------------------------------
# passes: each returns "wall_s", "items", "startups" (start-up time of each
# worker), "outside_s" (time inside wall_s spent in worker processes outside
# their items), "done" (the workers' final reports) and, on sweep, "checked"
# (the warm-up item, verified like the others)


def budget(deadline: float) -> float:
    """An item's time budget, cut short by the run's deadline."""
    return max(min(ITEM_BUDGET_S, deadline - time.perf_counter()), 0.1)


def ladder_pass(cfgs: list[tuple], trace: bool, deadline: float) -> dict:
    """Each configuration in a fresh worker process, as a CLI user pays."""
    items, startups, done, outside = [], [], [], 0.0
    t0 = time.perf_counter()
    for cfg in cfgs:
        b = budget(deadline)
        res = run_worker({"items": [wl.compute_argv(*cfg)], "trace": trace, "budget_s": b}, b + 10)
        it = res["items"][0]
        it["cfg"] = cfg
        items.append(it)
        outside += res["process_s"] - it["s"]
        if res["startup_s"] is not None:
            startups.append(res["startup_s"])
        if res["done"]:
            done.append(res["done"])
    return {"wall_s": time.perf_counter() - t0, "items": items, "startups": startups,
            "outside_s": outside, "done": done}


def sweep_job(tuples: list[tuple], trace: bool, budget_s: float) -> dict:
    g, k, n = wl.SWEEP_GKN
    return {
        "items": [wl.compute_argv(g, k, n, t) for t in tuples],
        "warmup": wl.compute_argv(g, k, n, wl.SWEEP_WARMUP),
        "trace": trace,
        "budget_s": budget_s,
    }


def warmup_item(res: dict) -> dict:
    """A sweep worker's warm-up item, keyed for verification."""
    warm = res["ready"]["warmup"] if res["ready"] else {"status": "timeout", "s": 0.0}
    return {**warm, "cfg": (*wl.SWEEP_GKN, wl.SWEEP_WARMUP)}


def sweep_pass(tuples: list[tuple], trace: bool, deadline: float) -> dict:
    """All tuples in one worker process, after a warm-up item; the timed
    pass is the items alone."""
    res = run_worker(sweep_job(tuples, trace, budget(deadline)), deadline - time.perf_counter() + 10)
    items = res["items"]
    for t, it in zip(tuples, items):
        it["cfg"] = (*wl.SWEEP_GKN, t)
    return {
        "wall_s": sum(it["s"] for it in items),
        "items": items,
        "startups": [res["startup_s"]] if res["startup_s"] is not None else [],
        "outside_s": 0.0,
        "checked": [warmup_item(res)],
        "done": [res["done"]] if res["done"] else [],
    }


# ---------------------------------------------------------------------------
# verification


def load_goldens() -> dict:
    """Golden outputs keyed like the items: (g, k, n, sorted classes)."""
    out = {}
    for entry in json.loads(GOLDENS_PATH.read_text()).values():
        key = (entry["g"], entry["k"], entry["n"], tuple(sorted(entry["classes"])))
        out[key] = entry
    return out


def golden_mismatch(it: dict, goldens: dict) -> bool:
    """True when an item has a golden entry and its output disagrees."""
    g, k, n, classes = it["cfg"]
    entry = goldens.get((g, k, n, tuple(sorted(classes))))
    if entry is None or "stdout" not in it:
        return False
    out = json.loads(it["stdout"])

    def terms(x):
        return sorted(tuple(t) for t in x)

    if "zw" in entry and (terms(out["hb"]) != terms(entry["zw"]) or out["d"] != entry["d"]):
        return True
    return "e" in entry and terms(out["e_poly"]) != terms(entry["e"])


def verdict(it: dict, refs: dict, goldens: dict) -> str:
    """"ok", "known_failure" (reproduces a recorded failure) or the reason
    the item failed."""
    ref = refs.get(wl.config_key(*it["cfg"]))
    if it["status"] == "timeout":
        return "timeout"
    if ref is None:
        return "no_reference"
    if it["status"] == "error":
        if ref.get("error") == it["error"] and ref["digest"] == it["digest"]:
            return "known_failure"
        return "exception"
    if it["rc"] not in DOCUMENTED_RC:
        return "undocumented_exit"
    if it["rc"] != ref.get("rc") or it["digest"] != ref["digest"]:
        return "mismatch"
    if golden_mismatch(it, goldens):
        return "golden_mismatch"
    return "ok"


# ---------------------------------------------------------------------------
# one run


def median(xs):
    return statistics.median(xs) if xs else 0.0


def check_layout():
    if not (SRC / "wreathmac" / "cli.py").is_file() or not REFS_PATH.is_file():
        sys.exit(f"error: {SRC / 'wreathmac'} or {REFS_PATH} not found; "
                 "run from the root of a wreathmac checkout")
    # byte-compile once, so no timed process pays for it
    if not compileall.compile_dir(str(SRC), quiet=1):
        sys.exit("error: src does not compile")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("ladder", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    check_layout()
    refs = json.loads(REFS_PATH.read_text())
    wrefs = refs[args.workload]
    goldens = load_goldens()

    t_run = time.perf_counter()
    sweep = args.workload == "sweep"
    probe_job = sweep_job([], False, ITEM_BUDGET_S) if sweep else {"items": [], "budget_s": 60}
    n_probes = 1 if args.trace else SETUP_PROBES[args.workload]  # traced runs report no setup_s
    probes = [run_worker(probe_job, ITEM_BUDGET_S + 10) for _ in range(n_probes)]
    if probes[0]["ready"] is None:
        sys.exit("error: the benchmark worker did not start")
    backend, pyver = probes[0]["ready"]["backend"], probes[0]["ready"]["python"]
    if backend != BASELINE_BACKEND:
        sys.exit(f"error: kernel backend {backend!r} differs from the baseline backend "
                 f"{BASELINE_BACKEND!r}; times would not be comparable")

    deadline = t_run + RUN_DEADLINE_S
    if sweep:
        run_pass, inputs = sweep_pass, wl.sweep_draw(args.seed)
    else:
        run_pass, inputs = ladder_pass, wl.ladder_order(args.seed)

    # a traced run makes one untraced pass, to measure the tracing overhead
    passes = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(run_pass(inputs, False, deadline))
        now = time.perf_counter()
        if args.trace or now - t0 >= args.seconds or now + (now - start) > deadline:
            break
    traced = run_pass(inputs, True, deadline) if args.trace else None

    checked = [warmup_item(p) for p in probes] if sweep else []
    for p in passes + ([traced] if traced else []):
        checked += p["items"] + p.get("checked", [])
    for it in checked:
        it["verdict"] = verdict(it, wrefs, goldens)
    wrapped = sum(d["wrapped"] for p in passes for d in p["done"])
    if wrapped:
        sys.exit(f"error: {wrapped} span wrappers installed during a timing run")

    timed = [it for p in passes for it in p["items"]]
    unexpected = [it for it in checked if it["verdict"] not in ("ok", "known_failure")]
    known = [it for it in timed if it["verdict"] == "known_failure"]
    failed_timed = [it for it in timed if it["verdict"] != "ok"]
    item_times = [it["s"] for it in timed]

    print(f"# workload={args.workload} seed={args.seed} backend={backend} python={pyver} "
          f"passes={len(passes)} items={len(timed)}")
    print("# pass wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes + ([traced] if traced else [])))
    print(f"# failed_frac {len(failed_timed) / len(timed):.4f} "
          f"({len(known)} known failures, {len(unexpected)} unexpected)")
    for it in unexpected:
        print(f"# FAILED {it['verdict']}: {wl.config_key(*it['cfg'])}")
    print(f"# item_p50_s {median(item_times):.4f} s (n={len(item_times)})")
    for n in (4, 5):
        xs = [it["s"] for it in timed if it["cfg"][2] == n and it["verdict"] == "ok"]
        if args.workload == "ladder" and xs:
            print(f"# rank{n}_s {median(xs):.4f} s (n={len(xs)})")

    if traced:
        merged = tracer.merge([d["trace"] for d in traced["done"]])
        metrics = tracer.layer_metrics(merged)
        metrics["process.outside_items_s"] = traced["outside_s"]
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - median([p["wall_s"] for p in passes])
        metrics["trace.unaccounted_s"] = (traced["wall_s"] - tracer.self_total(merged)
                                          - traced["outside_s"])
        print(f"# hodge.e_polynomial.calls per item "
              f"{metrics['hodge.e_polynomial.calls'] / len(traced['items']):.4g}")
        kind = "per_layer"
    else:
        startups = [p["startup_s"] for p in probes if p["startup_s"] is not None]
        startups += [s for p in passes for s in p["startups"]]
        metrics = {
            "setup_s": median(startups),
            "wall_s": median([p["wall_s"] for p in passes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads(SPEC_PATH.read_text())[kind]}
    if set(units) != set(metrics):
        sys.exit(f"error: {kind} metrics differ from {SPEC_PATH.name}")
    for name, v in metrics.items():
        print(f"# {name} {v:.6g} {units[name]}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(checked),
        "failed": len(unexpected),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
