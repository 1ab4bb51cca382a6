"""Benchmark the compiled kernels against the pure-Python fallback.

Backend selection happens at import time, so each measurement runs in a
subprocess with WREATHMAC_PURE set accordingly.  The bivariate gcd is the
same pure-Python code under both backends, so it has no row of its own; it
is part of the rank-4 row.

    python benchmarks/bench_kernels.py
"""

import json
import os
import subprocess
import sys

WORKLOADS = {
    "poly-mul": """
import random, time
from wreathmac import kernels
rng = random.Random(1)
polys = [{(rng.randrange(0, 14), rng.randrange(0, 14)): rng.randrange(-9, 10) or 1
          for _ in range(60)} for _ in range(40)]
start = time.perf_counter()
for a in polys:
    for b in polys:
        kernels.pmul(a, b)
print(time.perf_counter() - start)
""",
    "rank4-polynomial": """
import time
from wreathmac.hodge import ProblemSpec, compute_hodge
from wreathmac.classtypes import parse_simple_type as pt
start = time.perf_counter()
spec = ProblemSpec(0, 2, 4, (pt("0,0:1 1"), pt("0,0:1 1"), pt("2,0:"), pt("2,0:")))
compute_hodge(spec)
print(time.perf_counter() - start)
""",
}


def run(code: str, pure: bool) -> float:
    env = dict(os.environ, WREATHMAC_PURE="1" if pure else "0")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def main():
    from wreathmac.kernels import BACKEND

    if BACKEND != "cython":
        print("note: compiled kernels unavailable; both columns use pure Python")
    results = {}
    for name, code in WORKLOADS.items():
        compiled = run(code, pure=False)
        pure = run(code, pure=True)
        results[name] = {"compiled_s": compiled, "pure_s": pure, "speedup": pure / compiled}
        print(f"{name:18s} compiled {compiled:8.3f}s   pure {pure:8.3f}s   x{pure / compiled:.2f}")
    print(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
