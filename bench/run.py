"""The hsob benchmark: one closed-loop caller per workload, every reply checked.

    python3 bench/run.py --workload verify|kernel|symbol|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; hsob is imported from its ``src``.  One
caller sends each request only after the previous one returned, in a single
process pinned to one BLAS thread with ``HSOB_THREADS`` unset.

A run is a sequence of rounds (see ``workloads.py``): it stops at the first
request boundary after ``--seconds``, but not before the workload's
accuracy rounds are whole.  ``--trace 0`` prints the end-to-end metrics:
set-up time (median over fresh processes); requests per second, median and
90th-percentile latency over the round's request slots, each slot timed by
its fastest request over the run's whole rounds (see :func:`best_per_slot`);
every time is put at the reference speed of ``speed.py`` by the fixed
loop's times just before it; the share of requests that succeeded;
accuracy in digits, the median over the accuracy rounds of each round's
worst route pair; and peak resident memory.  ``--trace 1`` runs the first
round with every hsob layer traced and prints the per-layer metrics, then
runs untraced rounds to measure the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A table with sample
counts and the environment comes before it, and the result, with the spans
of a traced run, is also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import warmup

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("verify", "kernel", "symbol")
#: fresh processes timed for set-up, spread over the run; one more runs
#: first, unmeasured, so that compiling bytecode is not counted
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120
#: least seconds between two runs of the fixed loop that measures the
#: machine's speed during a run
SPEED_INTERVAL_S = 0.1
#: a request's time is scaled by the median of this many latest loop times
SPEED_WINDOW = 9
#: failure details kept in the result file
MAX_DETAILS = 20


def _pin_environment() -> None:
    # must happen before numpy is imported, here and in every probe
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("HSOB_THREADS", None)


def _environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "HSOB_THREADS": os.environ.get("HSOB_THREADS"),
        "clients": 1,
    }


class SetupProbes:
    """Set-up time measured in fresh processes between rounds.

    The probes are spread over the run rather than made in one burst, so a
    slow stretch of a shared machine moves a few of them, not the median.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.times: list[float] = []
        self._probe()

    def _probe(self) -> float:
        proc = subprocess.run([sys.executable, str(BENCH / "warmup.py"), self.workload],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        reply = json.loads(proc.stdout.strip().splitlines()[-1])
        if reply["failed"]:
            raise RuntimeError(f"{reply['failed']} warm-up requests failed in a probe")
        return reply["setup_s"]

    def due(self, fraction: float) -> float:
        """Make the probes due once ``fraction`` of the run has passed;
        returns the seconds they took."""
        t0 = time.perf_counter()
        while len(self.times) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * fraction)):
            self.times.append(self._probe())
        return time.perf_counter() - t0


class Loop:
    """Closed-loop runner: timing, checks and accuracy of one workload."""

    def __init__(self, workload, seed: int, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.latencies: list[float] = []
        #: latency of each slot, in slot order and at the reference speed, of
        #: every whole round
        self.rounds: list[list[float]] = []
        self.kinds: dict[str, list[float]] = {}
        self.failed = 0
        self.details: list[str] = []
        #: digits of the successful route pairs of each accuracy round
        self.round_digits: list[list[float]] = [[] for _ in range(workload.accuracy_rounds)]
        self.next_round = 0
        #: times of the fixed loop of ``speed.py``, taken between requests
        self.loop_times: list[float] = []
        import speed
        import workloads  # hsob is imported by now

        self._cli_output = workloads.CliOutput
        self._speed = speed

    def run(self, seconds: float, min_rounds: int = 1, max_rounds: int | None = None,
            probes: SetupProbes | None = None) -> None:
        """Run rounds until ``seconds`` have passed, stopping between requests once
        ``min_rounds`` rounds are whole.  An unfinished last round counts for
        failures but not for the per-round figures.  The set-up ``probes``
        due are made after each round, and their time is not counted."""
        speed = self._speed
        start = last_loop = time.perf_counter()
        self.loop_times.append(speed.loop_seconds())
        while max_rounds is None or len(self.rounds) < max_rounds:
            index = self.next_round
            self.next_round += 1
            requests = self.workload.round(self.seed, index)
            latencies = [0.0] * len(requests)
            for slot, req in requests:
                if len(self.rounds) >= min_rounds and time.perf_counter() - start >= seconds:
                    return
                latencies[slot] = (self._one(req, index)
                                   / speed.slowness(self.loop_times[-SPEED_WINDOW:]))
                if time.perf_counter() - last_loop >= SPEED_INTERVAL_S:
                    self.loop_times.append(speed.loop_seconds())
                    last_loop = time.perf_counter()
            self.rounds.append(latencies)
            if probes is not None:
                start += probes.due((time.perf_counter() - start) / seconds)

    def _one(self, req, round_index: int) -> float:
        request_id = len(self.latencies)
        tracer = self.tracer
        if tracer is not None:
            with tracer.request(req.kind, request_id):
                seconds, out, err = warmup.run_request(req)
            if isinstance(out, self._cli_output):
                tracer.counts["cli.out_bytes"] += len(out.stdout.encode())
        else:
            seconds, out, err = warmup.run_request(req)
        ok, digits, detail = warmup.check_reply(req, out, err)
        self.latencies.append(seconds)
        self.kinds.setdefault(req.kind, []).append(seconds)
        if not ok:
            self.failed += 1
            if len(self.details) < MAX_DETAILS:
                self.details.append(detail)
        elif digits is not None and round_index < len(self.round_digits):
            self.round_digits[round_index].append(digits)
        return seconds


def best_per_slot(rounds: list[list[float]]) -> list[float]:
    """Each slot's fastest latency over the whole rounds.

    The latencies are at the reference speed already, which takes out most
    of the machine's slow stretches; what scaling leaves, from code that
    slows less or more than the fixed loop and from the loop's own noise,
    the fastest of a dozen rounds mostly avoids.  Every slot is sent once
    per round at a random place in it, and its inputs change from round to
    round, so no input is timed twice.
    """
    return [min(times) for times in zip(*rounds)]


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _end_to_end(loop: Loop, setup_times: list[float]) -> dict:
    attempted = len(loop.latencies)
    best = best_per_slot(loop.rounds)
    per_slot = f"{len(best)} slots, best of {len(loop.rounds)} rounds"
    pairs = sum(len(d) for d in loop.round_digits)

    return {
        "setup_s": (statistics.median(setup_times), "s", f"{len(setup_times)} processes"),
        "requests_per_s": (len(best) / sum(best), "1/s", per_slot),
        "request_ms_p50": (1e3 * statistics.median(best), "ms", per_slot),
        "request_ms_p90": (1e3 * _p90(best), "ms", per_slot),
        "success_ratio": ((attempted - loop.failed) / attempted, "1", f"{attempted} requests"),
        # a round in which no route pair succeeded counts 0 digits
        "accuracy_digits": (statistics.median(min(d, default=0.0) for d in loop.round_digits),
                            "digits", f"{len(loop.round_digits)} rounds, {pairs} route pairs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "1 process"),
    }


def _print_table(rows: dict) -> None:
    print(f"{'metric':34s} {'value':>16s}  {'unit':8s} samples")
    for name, (value, unit, samples) in rows.items():
        print(f"{name:34s} {value:16.6g}  {unit:8s} {samples}")


def run_one(args) -> int:
    if not warmup.import_path_ok():
        print("error: no src/hsob in this checkout; nothing to benchmark", file=sys.stderr)
        return 2
    _pin_environment()
    probes = None if args.trace else SetupProbes(args.workload)
    setup_s, workload, warm_failed = warmup.timed_setup(args.workload)
    env = _environment(args.seed)
    print(f"# hsob benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# environment: {json.dumps(env)}")

    import speed

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        traced = Loop(workload, args.seed, tracer)
        traced.run(0.0, max_rounds=1)
        tracer.uninstall()
        plain = Loop(workload, args.seed)
        plain.next_round = traced.next_round
        plain.run(max(0.0, args.seconds - sum(traced.latencies)))
        samples = f"round 0, {len(traced.latencies)} requests"
        metrics = {name: (value, unit, samples)
                   for name, (value, unit) in tracer.layer_metrics().items()}
        traced_rate = len(traced.latencies) / sum(traced.latencies)
        plain_rate = len(plain.latencies) / sum(plain.latencies)
        metrics["trace.overhead"] = (plain_rate / traced_rate - 1.0, "1",
                                     f"{len(plain.latencies)} untraced requests")
        spans = tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        loops = (traced, plain)
        extra = {"spans": spans, "traced_requests": len(traced.latencies)}
    else:
        loop = Loop(workload, args.seed)
        loop.run(args.seconds, min_rounds=workload.accuracy_rounds, probes=probes)
        probes.due(1.0)
        metrics = _end_to_end(loop, [setup_s, *probes.times])
        loops = (loop,)
        as_run = loop.latencies
        extra = {"fail_ratio": loop.failed / len(loop.latencies),
                 # the same figures over every request, as the wall clock read them
                 "as_run": {"slowness": speed.slowness(loop.loop_times),
                            "speed_loops": len(loop.loop_times),
                            "requests_per_s": len(as_run) / sum(as_run),
                            "request_ms_p50": 1e3 * statistics.median(as_run),
                            "request_ms_p90": 1e3 * _p90(as_run)}}

    attempted = sum(len(lp.latencies) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    details = [d for lp in loops for d in lp.details]
    correct = failed == 0 and warm_failed == 0
    kinds = {}
    for lp in loops:
        for kind, times in lp.kinds.items():
            kinds.setdefault(kind, []).extend(times)
    for kind, times in sorted(kinds.items()):
        print(f"# {kind}: {len(times)} requests, median {1e3 * statistics.median(times):.3f} ms")
    for detail in details:
        print(f"# FAILED {detail}")
    _print_table(metrics)
    if not args.trace:
        print(f"{'fail_ratio':34s} {extra['fail_ratio']:16.6g}  {'1':8s} {attempted} requests")
        print(f"# as run, every request by the wall clock: {json.dumps(extra['as_run'])}")

    result = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "correct": correct, "attempted": attempted, "failed": failed,
        "failures": details, "warmup_failed": warm_failed, **extra,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "kinds": {k: {"requests": len(t), "median_ms": 1e3 * statistics.median(t)}
                  for k, t in kinds.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
