"""Set-up time of one workload: import hsob, then finish the first request of each kind.

Run as a script (``python3 bench/warmup.py <workload>``) it measures one
fresh process and prints ``{"setup_s": ..., "failed": ...}``.  ``run.py``
calls :func:`timed_setup` too, for the process that then runs the workload.
Nothing here imports numpy or hsob before the clock starts.  The time is
put at the reference speed of ``speed.py`` by the fixed loop's times,
taken in the same process right after.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
#: fixed-loop runs that measure the speed of a set-up process
SPEED_LOOPS = 9


def import_path_ok() -> bool:
    """Put the checkout's ``src`` first on the import path; false if hsob is not there."""
    if not (SRC / "hsob" / "__init__.py").is_file():
        return False
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def run_request(req):
    """Run one request: (seconds, output, error); the clock covers the call only."""
    t0 = time.perf_counter()
    try:
        out, err = req.call(), None
    except (Exception, SystemExit) as exc:  # a failed request is recorded, not fatal
        out, err = None, exc
    return time.perf_counter() - t0, out, err


def check_reply(req, out, err):
    """(ok, accuracy digits or None, detail) for one reply."""
    if err is not None:
        return False, None, f"{req.kind}: {type(err).__name__}: {err}"
    try:
        return True, req.check(out), ""
    except Exception as exc:  # any exception from a check is a wrong reply
        return False, None, f"{req.kind}: {type(exc).__name__}: {exc}"


def timed_setup(name: str):
    """(seconds at the reference speed, workload, failed warm-up requests) for
    a process that has not imported hsob yet."""
    t0 = time.perf_counter()
    import hsob  # noqa: F401  (the import is what is timed)
    import workloads

    workload = workloads.WORKLOADS[name]
    failed = 0
    for req in workload.warmup():
        _, out, err = run_request(req)
        ok, _, _ = check_reply(req, out, err)
        failed += not ok
    seconds = time.perf_counter() - t0
    import speed

    slowness = speed.slowness([speed.loop_seconds() for _ in range(SPEED_LOOPS)])
    return seconds / slowness, workload, failed


def main(argv) -> int:
    if len(argv) != 1 or not import_path_ok():
        print("usage: warmup.py <workload>, from a checkout holding src/hsob", file=sys.stderr)
        return 2
    seconds, _, failed = timed_setup(argv[0])
    print(json.dumps({"setup_s": seconds, "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
