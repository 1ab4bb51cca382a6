"""Benchmark worker: runs a list of items in one fresh process, each as
``python -m wreathmac.cli`` would run it (``cli.main`` with its exit code).

Takes one JSON job as its argument and writes one JSON line per event to stdout:
``{"ready": ...}`` (with the kernel backend and Python version) after import
and warm-up, one ``{"item": ...}`` line per
item, then ``{"done": ...}``.  The program's own stdout is captured per item
and reduced to a digest, so protocol lines never mix with it.

Job keys:
  items     argv lists for ``wreathmac.cli.main``, run in order
  warmup    optional item run before "ready" and reported separately
  trace     install the span wrappers of ``tracer.py`` for the items
  budget_s  per-item time budget; an item over it is interrupted and
            reported with status "timeout"
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import signal
import sys
import time


class ItemTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def error_digest(kind: str, message: str) -> str:
    return digest_text(f"{kind}: {message}")


def run_cli(argv):
    from wreathmac import cli

    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # as ``python -m wreathmac.cli`` exits
            rc = exc.code
    return {"rc": rc or 0, "digest": digest_text(buf.getvalue()), "stdout": buf.getvalue()}


def run_item(argv, budget_s):
    """Run one item under the time budget; never raises."""
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    try:
        out = run_cli(argv)
        out["status"] = "ok"
    except ItemTimeout:
        out = {"status": "timeout"}
    except Exception as exc:  # the item's failure is the measurement
        out = {
            "status": "error",
            "error": type(exc).__name__,
            "digest": error_digest(type(exc).__name__, str(exc)),
        }
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    out["s"] = time.perf_counter() - t0
    return out


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main():
    job = json.loads(sys.argv[1])
    signal.signal(signal.SIGALRM, _on_alarm)
    import wreathmac.cli  # noqa: F401
    from wreathmac import kernels

    import tracer

    budget = job["budget_s"]
    ready = {"ready": True, "backend": kernels.BACKEND, "python": platform.python_version()}
    if job.get("warmup") is not None:
        ready["warmup"] = run_item(job["warmup"], budget)
    # installed after the warm-up, so the trace covers the items only
    tr = tracer.Tracer() if job.get("trace") else None
    if tr is not None:
        tr.install()
    emit(ready)
    for i, item in enumerate(job["items"]):
        emit({"item": i, **run_item(item, budget)})
    emit(
        {
            "done": True,
            "wrapped": tracer.count_wrapped(),
            "trace": tr.report() if tr is not None else None,
        }
    )


if __name__ == "__main__":
    main()
