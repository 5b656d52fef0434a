"""Self-test of the benchmark: short runs of every workload, checked.

    python3 bench/selftest.py

For each workload it makes two untraced runs (of the workload's accuracy
rounds) and two traced one-round runs, all with the seed ``SEED``, and
requires that:

* every end-to-end and per-layer metric of BENCHMARK.json is printed, with
  its unit;
* no request failed;
* ``accuracy_digits`` and the work counts below are identical across the
  two runs of each pair;
* the layers a workload is predicted to bypass read zero.

Exit status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify", "kernel", "symbol")
SEED = 7
REPEATED_COUNTS = ("quadrature.nodes", "jets.objects", "symbols.jury_eig.calls",
                   "kernel.quad.calls")
#: per-layer metrics that must read zero on a workload
BYPASSED = {
    "verify": ("quadrature.square.calls", "jets.objects"),
    "kernel": ("jets.objects",),
    "symbol": ("quadrature.square.calls", "timespace.e_n.calls"),
}


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def expect(ok: bool, what: str):
        print(f"[{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            first, second = (_run(workload, SEED, trace) for _ in range(2))
            kind = "traced" if trace else "untraced"
            for result in (first, second):
                expect(result["failed"] == 0 and result["correct"],
                       f"{workload} {kind}: {result['failed']} of {result['attempted']} failed")
                missing = [m["name"] for m in declared
                           if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
                expect(not missing, f"{workload} {kind}: metrics with their units, "
                                    f"missing {missing}")
            if trace:
                for name in REPEATED_COUNTS:
                    a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                    expect(a == b, f"{workload}: {name} repeats ({a} and {b})")
                for name in BYPASSED[workload]:
                    value = first["metrics"][name]["value"]
                    expect(value == 0, f"{workload}: {name} is 0 (reads {value})")
            else:
                a = first["metrics"]["accuracy_digits"]["value"]
                b = second["metrics"]["accuracy_digits"]["value"]
                expect(a == b, f"{workload}: accuracy_digits repeats ({a} and {b})")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
