"""The benchmark's workloads: seeded requests to hsob and the check of each reply.

A workload is an endless sequence of rounds.  Round ``r`` of seed ``s`` is
built from ``numpy.random.default_rng([s, r])`` and shuffled.  Every round
holds the same number of requests of each kind and of each size (sample
count, point count, grid size), so rounds cost about the same and any
stretch of a run has the same mix; only the values are drawn.  A request's
place in the unshuffled round is its slot: slot ``j`` has the same kind and
size in every round.  Apart from the classification of the fixed
criterion-12 rows on ``symbol``, no request repeats the input of another,
within a round or across rounds, so a result cache inside the library
cannot hit.  Each round has at least 100 requests, and rounds are short, so
that a run holds many of them.

Each request is a callable that reaches hsob only through a module attribute
(``cli.main``, ``kernel.gram_matrix``, ...) looked up at call time, which is
what lets the tracer see it.  Its check runs after the timed call; it raises
:class:`CheckFailed` or returns the accuracy in digits of the request's two
independent routes (``None`` when the request has no such pair).
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hsob import cli, kernel, symbols

#: accuracy is capped here: doubles carry no more digits
MAX_DIGITS = 15.0
#: fixed seed of the warm-up requests, so set-up time does not depend on --seed
WARMUP_SEED = 20240116


class CheckFailed(Exception):
    """A reply that is not correct."""


@dataclass(frozen=True)
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], "float | None"]


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[np.random.Generator], list]
    #: first rounds whose route pairs give accuracy_digits; every untraced
    #: run completes them, so the metric depends on the seed alone
    accuracy_rounds: int

    def round(self, seed: int, index: int) -> list[tuple[int, Request]]:
        """The round's (slot, request) pairs in the order they are sent; a
        request's slot is its kind and size, the same in every round."""
        rng = np.random.default_rng([seed, index])
        requests = self.make_round(rng)
        return [(int(i), requests[i]) for i in rng.permutation(len(requests))]

    def warmup(self) -> list[Request]:
        """The first request of each kind in a round of the fixed warm-up seed."""
        first: dict[str, Request] = {}
        for _, req in self.round(WARMUP_SEED, 0):
            first.setdefault(req.kind, req)
        return list(first.values())


def digits(rel_error: float) -> float:
    """-log10 of a relative disagreement, capped at MAX_DIGITS."""
    if not rel_error >= 0:  # also catches nan
        raise CheckFailed(f"disagreement {rel_error!r} is not a nonnegative number")
    if rel_error <= 10.0 ** -MAX_DIGITS:
        return MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(rel_error))


def _finite(value, what: str) -> complex:
    if isinstance(value, bool) or not isinstance(value, (int, float, complex)):
        raise CheckFailed(f"{what} is not a number: {value!r}")
    if not cmath.isfinite(value):
        raise CheckFailed(f"{what} is not finite: {value!r}")
    return value


def run_cli(argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliOutput(code, out.getvalue(), err.getvalue())


def _reject_constant(name):
    raise CheckFailed(f"output is not strict JSON: {name}")


def _cli_ok(out: CliOutput) -> None:
    if out.code != 0:
        raise CheckFailed(f"exit code {out.code}: {out.stderr.strip()[:200]}")


# ---------------------------------------------------------------------------
# verify: the paper's identity checks, run through the CLI


#: suites that draw their samples from --seed
SAMPLED_SUITES = ("paley-wiener", "inner-product", "reproduce", "cayley", "hardy-ineq")
#: suites whose max_residual compares two independent routes
ROUTE_SUITES = ("paley-wiener", "inner-product", "reproduce", "cayley")
#: each (sampled suite, n) cell runs once with each sample count per round
VERIFY_SAMPLES = (2, 3, 4, 2, 3)
#: the bounds suite ignores --seed and --samples and reports one case per
#: point of its --grid; each n runs once per round on a seeded grid of the
#: default 7 x 9 shape
BOUNDS_SHAPE = (7, 9)


def _verify_check(suite: str, cases: int):
    def check(out: CliOutput):
        _cli_ok(out)
        report = json.loads(out.stdout, parse_constant=_reject_constant)
        if report.get("suite") != suite or report.get("pass") is not True:
            raise CheckFailed(f"{suite}: pass={report.get('pass')!r}")
        if report.get("samples") != cases or len(report.get("cases", ())) != cases:
            raise CheckFailed(f"{suite}: {report.get('samples')!r} cases, expected {cases}")
        residual = _finite(report.get("max_residual"), "max_residual")
        return digits(residual) if suite in ROUTE_SUITES else None

    return check


def _seeded_grid(rng: np.random.Generator, num_r: int, num_theta: int) -> str:
    """A --grid value: radii from [1e-3, 1e-1] to [1e1, 1e3], a seeded margin."""
    return (f"{10.0 ** rng.uniform(-3, -1):.6g},{10.0 ** rng.uniform(1, 3):.6g},"
            f"{num_r},{rng.uniform(0.02, 0.2):.6g},{num_theta}")


def _verify_round(rng: np.random.Generator) -> list[Request]:
    requests = []
    for n in (1, 2, 3, 4):
        for samples in VERIFY_SAMPLES:
            for suite in SAMPLED_SUITES:
                seed = int(rng.integers(0, 2**31))
                argv = ["verify", suite, "--n", str(n), "--seed", str(seed),
                        "--samples", str(samples)]
                requests.append(Request(f"verify.{suite}", lambda a=argv: run_cli(a),
                                        _verify_check(suite, samples)))
        argv = ["verify", "bounds", "--n", str(n), "--grid", _seeded_grid(rng, *BOUNDS_SHAPE)]
        requests.append(Request("verify.bounds", lambda a=argv: run_cli(a),
                                _verify_check("bounds", BOUNDS_SHAPE[0] * BOUNDS_SHAPE[1])))
    return requests


# ---------------------------------------------------------------------------
# kernel: Gram matrices, closed form against quadrature, diagonal sweeps

#: arguments of kernel points; the acceptance suite's cross-check uses +-pi/3
MAX_ARG = math.pi / 3
#: |z| and |w| stay in [10**-LOG_R, 10**LOG_R]
LOG_R = 3
KERNEL_ORDERS = range(1, 9)
#: orders drawn once more in each round from the third of each end decade of
#: |z|/|w| nearest the end of [1e-3, 1e3], where the n = 3 display formula
#: disagrees most with quadrature
END_THIRD_ORDERS = range(1, 4)
#: point counts of the Gram matrices of one order in a round; Grams are two
#: thirds of the requests, so the median latency is a Gram's, and not one of
#: the few slowest, and the 90th percentile a cross-check's
GRAM_SIZES = tuple(range(6, 13)) * 2 + (6, 8, 10, 12)
#: (radii, angles) of the sweep grids of one order in a round
SWEEP_SHAPES = ((3, 5), (5, 3))
#: criterion 10 (least Gram eigenvalue) and criterion 04 (closed vs quadrature)
GRAM_EIG_FLOOR = -1e-8
CROSS_CHECK_TOL = 1e-7
HERMITIAN_TOL = 1e-12
SWEEP_HEADER = ["n", "abs_z", "arg_z", "kernel_diag", "lower_bound", "norm", "upper_bound"]


def _kernel_point(rng: np.random.Generator, log_r: float) -> complex:
    return 10.0**log_r * cmath.exp(1j * rng.uniform(-MAX_ARG, MAX_ARG))


def _gram_check(n: int, m: int):
    def check(G):
        G = np.asarray(G)
        if G.shape != (m, m) or not np.all(np.isfinite(G)):
            raise CheckFailed(f"gram n={n}: bad shape {G.shape} or non-finite entries")
        scale = float(np.max(np.abs(G)))
        if np.max(np.abs(G - G.conj().T)) > HERMITIAN_TOL * scale:
            raise CheckFailed(f"gram n={n}: not Hermitian")
        least = float(np.linalg.eigvalsh(0.5 * (G + G.conj().T))[0])
        if least < GRAM_EIG_FLOOR:
            raise CheckFailed(f"gram n={n}: least eigenvalue {least:.3e}")
        return None

    return check


def _cross_check(n: int):
    def check(pair):
        closed = _finite(pair[0], "closed form")
        quad = _finite(pair[1], "quadrature")
        rel = abs(closed - quad) / abs(closed)
        if not rel <= CROSS_CHECK_TOL:
            raise CheckFailed(f"cross-check n={n}: relative difference {rel:.3e}")
        return digits(rel)

    return check


def _sweep_check(n: int, rows: int):
    def check(out: CliOutput):
        _cli_ok(out)
        table = list(csv.reader(io.StringIO(out.stdout)))
        if not table or table[0] != SWEEP_HEADER or len(table) - 1 != rows:
            raise CheckFailed(f"sweep n={n}: {len(table) - 1} rows, expected {rows}")
        for row in table[1:]:
            vals = [float(x) for x in row]
            if not all(math.isfinite(v) for v in vals) or int(vals[0]) != n:
                raise CheckFailed(f"sweep n={n}: bad row {row}")
            _, _, _, _, lower, norm, upper = vals
            if not lower < norm < upper:
                raise CheckFailed(f"sweep n={n}: {lower} < {norm} < {upper} fails")
        return None

    return check


def _kernel_round(rng: np.random.Generator) -> list[Request]:
    requests = []
    for n in KERNEL_ORDERS:
        # every (n, decade of |z|/|w|) cell, and the outer thirds of the end decades
        log_ratios = [decade + rng.uniform() for decade in range(-LOG_R, LOG_R)]
        if n in END_THIRD_ORDERS:
            log_ratios += [-LOG_R + rng.uniform() / 3, LOG_R - rng.uniform() / 3]
        for log_ratio in log_ratios:
            log_w = rng.uniform(max(-LOG_R, -LOG_R - log_ratio), min(LOG_R, LOG_R - log_ratio))
            w = _kernel_point(rng, log_w)
            z = _kernel_point(rng, log_w + log_ratio)
            requests.append(Request(
                "kernel.cross_check",
                lambda n=n, z=z, w=w: (kernel.kernel_eval_closed(n, z, w),
                                       kernel.kernel_eval_quadrature(n, z, w)),
                _cross_check(n)))
        for m in GRAM_SIZES:
            pts = [_kernel_point(rng, rng.uniform(-LOG_R, LOG_R)) for _ in range(m)]
            requests.append(Request("kernel.gram", lambda n=n, p=pts: kernel.gram_matrix(n, p),
                                    _gram_check(n, m)))
        for num_r, num_t in SWEEP_SHAPES:
            argv = ["kernel", "sweep", "--n", str(n), "--grid", _seeded_grid(rng, num_r, num_t)]
            requests.append(Request("kernel.sweep", lambda a=argv: run_cli(a),
                                    _sweep_check(n, num_r * num_t)))
    return requests


# ---------------------------------------------------------------------------
# symbol: classification table and jury bounds

BOUNDED = ("bounded", "sufficient-passed")
UNBOUNDED = ("unbounded", "necessary-failed")
#: expression -> expected (verdict_H2, verdict_Hn) for n = 0..3: the rows of
#: acceptance criterion 12, with the verdicts the theory gives at every n
SYMBOL_TABLE = {
    "2*z+1": [BOUNDED] * 4,
    "z+i": [BOUNDED] + [("bounded", "necessary-failed")] * 3,
    "z+sqrt(z)+1": [BOUNDED] * 4,
    "z+log1p(z)": [BOUNDED] * 4,
    "sqrt(z)": [UNBOUNDED] * 4,
    "1/(z+1)": [UNBOUNDED] * 4,
}
#: expression -> (known phi'(infinity), slope a when the map is affine)
KNOWN_PHI_INF = {"2*z+1": (0.5, 2.0), "z+i": (1.0, 1.0), "z+sqrt(z)+1": (1.0, None)}
#: criterion 12's tolerance on phi'(infinity)
PHI_INF_TOL = 1e-3
AFFINE_MAPS = 2
JURY_ORDERS = (0, 1, 2)
#: point counts of the jury requests of one (symbol, order) pair in a round
JURY_SIZES = (6, 7, 8, 12)
#: Caughran's bound may exceed the bisected jury bound by the bisection's own
#: slack; the same 1e-8 as criteria 10 and 11 allow on eigenvalues
JURY_SLACK = 1e-8


def _classify_check(expected, phi_inf, slope):
    def check(report):
        got = (report.verdict_H2, report.verdict_Hn)
        if got != expected:
            raise CheckFailed(f"classify {report.text} n={report.n}: {got}, expected {expected}")
        if phi_inf is None:
            return None
        err = abs(report.phi_prime_infinity - phi_inf)
        if not err < PHI_INF_TOL:
            raise CheckFailed(f"classify {report.text}: phi'(inf) off by {err:.3e}")
        return digits(err / phi_inf) if slope is not None else None

    return check


def _jury_check(text: str, n: int, pts):
    def check(M):
        M = _finite(M, "jury bound").real
        lower = symbols.caughran_lower_bound(symbols.parse(text), n, pts)
        if not 0 < lower <= M * (1.0 + JURY_SLACK):
            raise CheckFailed(f"jury {text} n={n}: Caughran bound {lower!r} above {M!r}")
        return None

    return check


def _symbol_round(rng: np.random.Generator) -> list[Request]:
    requests = []
    rows = [(text, verdicts, *KNOWN_PHI_INF.get(text, (None, None)))
            for text, verdicts in SYMBOL_TABLE.items()]
    for _ in range(AFFINE_MAPS):
        a = float(f"{10.0 ** rng.uniform(-0.6, 0.6):.4f}")
        b_re, b_im = rng.uniform(0.2, 2.0), rng.uniform(-2.0, 2.0)
        # Re b > 0 keeps -b/a off the closed half-plane, so every order is bounded
        text = f"{a:.4f}*z+{b_re:.4f}{'+' if b_im >= 0 else '-'}{abs(b_im):.4f}i"
        rows.append((text, [BOUNDED] * 4, 1.0 / a, a))
    for text, verdicts, phi_inf, slope in rows:
        for n in range(4):
            requests.append(Request(
                "symbol.classify",
                lambda t=text, n=n: symbols.classify(symbols.parse(t), n),
                _classify_check(verdicts[n], phi_inf, slope)))
    for text in SYMBOL_TABLE:
        for n in JURY_ORDERS:
            for m in JURY_SIZES:
                pts = [complex(rng.uniform(0.3, 4.0), rng.uniform(-2.0, 2.0)) for _ in range(m)]
                requests.append(Request(
                    "symbol.jury",
                    lambda t=text, n=n, p=pts: symbols.jury_min_m(symbols.parse(t), n, p),
                    _jury_check(text, n, pts)))
    return requests


#: why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    "verify": Workload("verify", _verify_round, accuracy_rounds=10),
    "kernel": Workload("kernel", _kernel_round, accuracy_rounds=8),
    "symbol": Workload("symbol", _symbol_round, accuracy_rounds=2),
}
