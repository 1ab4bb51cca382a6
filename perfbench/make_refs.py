"""Regenerate ``refs.json``: the output digest of every item any seed can
draw, and of the sweep's warm-up item.

    python3 perfbench/make_refs.py

Run it only at a commit whose outputs are known to be right: a later run
of the benchmark counts every difference from these digests as a failure.
Items run one at a time in worker processes, as in the benchmark; it takes
about 3 minutes.
"""

from __future__ import annotations

import json

import run
import workloads as wl

BUDGET_S = 600


def refs_of(items: list[dict]) -> dict:
    goldens = run.load_goldens()
    out = {}
    for it in items:
        key = wl.config_key(*it["cfg"])
        if it["status"] == "timeout" or run.golden_mismatch(it, goldens):
            raise SystemExit(f"{key}: {it['status']}, or differs from its golden")
        out[key] = {k: it[k] for k in ("rc", "error", "digest") if k in it}
    return out


def main():
    items = {"ladder": [], "sweep": []}
    for cfg in wl.LADDER:
        res = run.run_worker({"items": [wl.compute_argv(*cfg)], "budget_s": BUDGET_S}, BUDGET_S + 10)
        items["ladder"].append({**res["items"][0], "cfg": cfg})
    tuples = [t for band in wl.SWEEP_BANDS for t in band]
    res = run.run_worker(run.sweep_job(tuples, False, BUDGET_S), BUDGET_S * (len(tuples) + 1))
    items["sweep"] = [run.warmup_item(res)] + [
        {**it, "cfg": (*wl.SWEEP_GKN, t)} for t, it in zip(tuples, res["items"])
    ]
    refs = {name: refs_of(its) for name, its in items.items()}
    run.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
