"""Analytic self-maps of the right half-plane as composition-operator symbols.

A :class:`SymbolExpr` is an immutable AST (rational operations, real powers,
log(1+.)) evaluable on C+ with principal branches throughout.  ``classify``
estimates the quantities governing boundedness of the composition operator
f -> f o phi, and reports them as :class:`SymbolReport` fields:

* ``phi_prime_infinity`` -- sup of Re z / Re phi(z), the angular derivative at
  infinity; finite exactly when the operator is bounded on the plain Hardy
  space, with norm and spectral radius sqrt of that supremum (``h2_norm``),
* ``radial_sup``         -- sup of |z|/|phi(z)|, necessary for boundedness on
  the order-n spaces (n >= 1),
* ``nbc``                -- sup of |z^k phi^(k)(z)/phi(z)| for k = 1..n, which
  together with a finite angular derivative is sufficient.

``jury_min_m`` is the one decision rule for the kernel inequality
M^2 K(x, y) >= K(phi(x), phi(y)): it returns the least admissible M on a
point set, a lower bound for the composition operator's norm that reaches it
as the set refines; ``caughran_lower_bound`` reads a lower bound off the
diagonals of the same two Gram matrices.

Symbols are evaluated on point arrays.  ``SymbolExpr.eval`` and ``.jet``
take a 1-D array and return one lane per point; a point on a branch cut or at
a vanishing denominator is a masked lane, nan in every output, where a single
point raises (see :mod:`hsob.jets`).  ``classify`` makes three array calls,
the sweep of the imaginary axis and the real ray and two refinements, and one
order-n jet per call serves the self-map check, the angular derivative, the
radial supremum and every k.  A pass runs with numpy's overflow warnings off:
a value or coefficient that overflows comes out inf or nan, as Python's
complex arithmetic gives it at a single point, and a nan ratio is skipped.
The jury builds the two Gram matrices of the inequality once, from one
array evaluation of the images, since neither depends on M; its points and
images obey the kernel's one domain rule, finite with Re z > 0 and no margin
from the imaginary axis.  ``jury_min_m`` decides every M by a Cholesky
factorisation of the shifted inequality matrix, with a slack relative to the
images' largest kernel value, so no decision depends on the scale of phi.
It doubles M until one is admissible, estimates the threshold from that
factor by one eigen-solve of the pencil of the base matrix and the shifted
one, certifies the estimate with a test on each side, and bisects what is
left.  It never reads M off the pencil of the
base matrix with the moved one: that factors the base matrix, and sampled
kernel Gram matrices are too badly conditioned for it (cond up to about
2e17), while the shifted matrix has passed its test and the estimate only
chooses where to test.

The suprema are sampled on the imaginary axis and the real ray, where they
lie for a self-map whose ratios grow slower than exp(B |z|^c), c < 1 (see
``classify``): evidence, not proofs.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .jets import Jet, JetDomainError, guard, masked, on_cut, principal_power
from .kernel import _gram_matrices, _in_halfplane, _require_halfplane
from .specfun import _check_order

__all__ = [
    "SymbolExpr",
    "Var",
    "Const",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Log1p",
    "SymbolSyntaxError",
    "BranchViolation",
    "parse",
    "jury_min_m",
    "caughran_lower_bound",
    "SymbolReport",
    "classify",
]


class BranchViolation(ArithmeticError):
    """A principal-branch power or logarithm was evaluated on its cut."""


class SymbolSyntaxError(ValueError):
    """Parse failure, annotated with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class SymbolExpr:
    """Base class for symbol AST nodes; subclasses are frozen dataclasses.

    ``eval`` and ``jet`` take a point or a 1-D array of points.  At a point,
    a branch cut raises :class:`BranchViolation` and a vanishing denominator
    ``ZeroDivisionError``; on an array such a lane comes out nan instead.
    """

    def __call__(self, z: complex) -> complex:
        return self.eval(complex(z))

    def eval(self, z):
        raise NotImplementedError

    def jet(self, z, order: int) -> Jet:
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Var(SymbolExpr):
    def eval(self, z):
        return z

    def jet(self, z, order):
        return Jet.variable(z, order)

    def to_text(self):
        return "z"


@dataclass(frozen=True)
class Const(SymbolExpr):
    value: complex

    def eval(self, z):
        v = complex(self.value)
        return v if np.ndim(z) == 0 else np.full(np.shape(z), v)

    def jet(self, z, order):
        return Jet.constant(self.value, order, base=z)

    def to_text(self):
        # the grammar has no unary minus: a negative part is subtracted from 0
        # or from the real part, so the text parses back to the same value
        v = complex(self.value)
        if v.imag == 0:
            return _fmt_real(v.real) if v.real >= 0 else f"(0 - {_fmt_real(-v.real)})"
        imag = _fmt_real(abs(v.imag)) + "i"
        if v.real == 0:
            return imag if v.imag > 0 else f"(0 - {imag})"
        real = _fmt_real(v.real) if v.real > 0 else f"0 - {_fmt_real(-v.real)}"
        return f"({real} {'+' if v.imag > 0 else '-'} {imag})"


def _fmt_real(x: float) -> str:
    return f"{int(x)}" if x == int(x) else repr(x)


@dataclass(frozen=True)
class _Binary(SymbolExpr):
    left: SymbolExpr
    right: SymbolExpr
    _symbol = "?"

    def to_text(self):
        return f"({self.left.to_text()} {self._symbol} {self.right.to_text()})"


class Add(_Binary):
    _symbol = "+"

    def eval(self, z):
        return self.left.eval(z) + self.right.eval(z)

    def jet(self, z, order):
        return self.left.jet(z, order) + self.right.jet(z, order)


class Sub(_Binary):
    _symbol = "-"

    def eval(self, z):
        return self.left.eval(z) - self.right.eval(z)

    def jet(self, z, order):
        return self.left.jet(z, order) - self.right.jet(z, order)


class Mul(_Binary):
    _symbol = "*"

    def eval(self, z):
        return self.left.eval(z) * self.right.eval(z)

    def jet(self, z, order):
        return self.left.jet(z, order) * self.right.jet(z, order)


class Div(_Binary):
    _symbol = "/"

    def eval(self, z):
        denom = self.right.eval(z)
        denom, skip = guard(denom, denom == 0, ZeroDivisionError, "symbol denominator vanished")
        return masked(self.left.eval(z) / denom, skip)

    def jet(self, z, order):
        try:
            return self.left.jet(z, order) / self.right.jet(z, order)
        except JetDomainError as exc:
            raise ZeroDivisionError(str(exc)) from None


@dataclass(frozen=True)
class Pow(SymbolExpr):
    """Principal-branch real power; alpha = 0.5 is the parsed sqrt."""

    base_expr: SymbolExpr
    alpha: float

    def eval(self, z):
        b = self.base_expr.eval(z)
        b, skip = guard(b, on_cut(b), BranchViolation, "power base on the principal branch cut")
        p, over = principal_power(b, self.alpha)
        return masked(p, skip | over)

    def jet(self, z, order):
        try:
            return self.base_expr.jet(z, order).power(self.alpha)
        except JetDomainError as exc:
            raise BranchViolation(str(exc)) from None

    def to_text(self):
        if self.alpha == 0.5:
            return f"sqrt({self.base_expr.to_text()})"
        return f"{self.base_expr.to_text()}^{self.alpha}"


@dataclass(frozen=True)
class Log1p(SymbolExpr):
    arg: SymbolExpr

    def eval(self, z):
        a = 1.0 + self.arg.eval(z)
        a, skip = guard(a, on_cut(a), BranchViolation, "log1p argument on the principal branch cut")
        return masked(np.log(a), skip)

    def jet(self, z, order):
        try:
            return self.arg.jet(z, order).log1p()
        except JetDomainError as exc:
            raise BranchViolation(str(exc)) from None

    def to_text(self):
        return f"log1p({self.arg.to_text()})"


# ---------------------------------------------------------------------------
# Parser:  expr := term (('+'|'-') term)*
#          term := factor (('*'|'/') factor)*
#          factor := atom ['^' real]
#          atom := 'z' | number['i'] | 'i'
#                | 'sqrt(' expr ')' | 'log1p(' expr ')' | '(' expr ')'


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise SymbolSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def accept(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.accept(token):
            self.error(f"expected '{token}'")

    def parse(self) -> SymbolExpr:
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return node

    def expr(self) -> SymbolExpr:
        node = self.term()
        while True:
            if self.accept("+"):
                node = Add(node, self.term())
            elif self.accept("-"):
                node = Sub(node, self.term())
            else:
                return node

    def term(self) -> SymbolExpr:
        node = self.factor()
        while True:
            if self.accept("*"):
                node = Mul(node, self.factor())
            elif self.accept("/"):
                node = Div(node, self.factor())
            else:
                return node

    def factor(self) -> SymbolExpr:
        node = self.atom()
        if self.accept("^"):
            at = self.pos
            alpha = self.signed_real()
            if alpha <= 0:
                self.pos = at
                self.error("power exponent must be positive")
            return Pow(node, alpha)
        return node

    def atom(self) -> SymbolExpr:
        self.skip_ws()
        if self.accept("sqrt("):
            inner = self.expr()
            self.expect(")")
            return Pow(inner, 0.5)
        if self.accept("log1p("):
            inner = self.expr()
            self.expect(")")
            return Log1p(inner)
        if self.accept("("):
            inner = self.expr()
            self.expect(")")
            return inner
        ch = self.peek()
        if ch == "z":
            self.pos += 1
            return Var()
        if ch == "i":
            self.pos += 1
            return Const(1j)
        if ch.isdigit() or ch == ".":
            value = self.number()
            if self.pos < len(self.text) and self.text[self.pos] == "i":
                self.pos += 1
                return Const(value * 1j)
            return Const(complex(value))
        self.error("expected an atom ('z', a number, sqrt(...), log1p(...) or parentheses)")

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        seen_digit = False
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isdigit():
                seen_digit = True
                self.pos += 1
            elif ch == "." or (ch in "eE" and seen_digit) or (
                ch in "+-" and self.pos > start and self.text[self.pos - 1] in "eE"
            ):
                self.pos += 1
            else:
                break
        if not seen_digit:
            self.error("expected a number")
        try:
            value = float(self.text[start : self.pos])
        except ValueError:
            self.error("malformed number")
        if not math.isfinite(value):
            self.pos = start
            self.error("number overflows a double")
        return value

    def signed_real(self) -> float:
        self.skip_ws()
        sign = -1.0 if self.accept("-") else 1.0
        return sign * self.number()


def parse(text: str) -> SymbolExpr:
    """Parse a symbol expression; raises :class:`SymbolSyntaxError` on failure."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Suprema from one sweep of the imaginary axis and the real ray


#: the sweep samples |y| on each half of the axis z = AXIS_RE + iy, and x on
#: the real ray, over 10**SWEEP_LOG10_RANGE at SWEEP_PER_DECADE points a decade
SWEEP_LOG10_RANGE = (-8.0, 18.0)
SWEEP_PER_DECADE = 16
AXIS_RE = 1e-300
#: refinement passes of REFINE_POINTS points around each row's argmax
REFINE_PASSES = 2
REFINE_POINTS = 81
#: a supremum past its cap is declared infinite; the angular derivative's cap
#: is the lower one, S_k's DIVERGE_CAP * k!
DIVERGE_CAP = 1e8
ANGULAR_CAP = 1e6

_t = np.logspace(*SWEEP_LOG10_RANGE, round(np.ptp(SWEEP_LOG10_RANGE) * SWEEP_PER_DECADE) + 1)
#: the lower half of the axis, the upper half, then the real ray; read-only
SWEEP = np.concatenate([AXIS_RE - 1j * _t[::-1], AXIS_RE + 1j * _t, _t + 0j])
SWEEP.flags.writeable = False


def _silently(fn, *args):
    """``fn(*args)`` with numpy's overflow and invalid-value warnings off.

    A symbol, a jet coefficient or a ratio that overflows at a sampled point
    comes out inf or nan there, as Python's complex arithmetic gives it at a
    single point; the estimates read nan as a point to skip.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return fn(*args)


def _supremum_estimate(fn, caps, first) -> np.ndarray:
    """Maxima of the rows of ``fn`` over the sweep, refined around each argmax.

    ``fn`` maps a 1-D point array to q rows of ratios, shape (q, m), nan at
    a point to skip; ``first`` is ``fn`` on ``SWEEP``.  Each pass puts a
    row's points at its argmax times 10**t, t spread over +-(the previous
    spacing in log10 |z|), on the argmax's half-axis or ray; one call of
    ``fn`` serves all rows.  A row's maximum moves to the first maximum of a
    pass, if larger.  Returns the q estimates: +inf past the row's cap in
    ``caps``, nan where no sweep point gave a value.
    """
    first = np.asarray(first)
    best = np.full(len(first), -math.inf)
    best_z = np.zeros(len(first), dtype=complex)

    def sweep(rows, points, values):
        # points: one row per row of values, or one row that they all share
        values = np.where(np.isnan(values), -math.inf, values)
        lanes = np.arange(len(rows))
        i = np.argmax(values, axis=1)
        top = values[lanes, i]
        up = top > best[rows]
        best[rows[up]] = top[up]
        best_z[rows[up]] = np.broadcast_to(points, values.shape)[lanes, i][up]

    sweep(np.arange(len(first)), SWEEP, first)
    # a row without a sweep value gets no refinement
    rows = np.flatnonzero(best > -math.inf)
    width = 1.0 / SWEEP_PER_DECADE
    for _ in range(REFINE_PASSES if len(rows) else 0):
        block = best_z[rows, None] * 10.0 ** np.linspace(-width, width, REFINE_POINTS)
        values = _silently(fn, block.ravel())
        # block j of the concatenated points belongs to rows[j]
        sweep(rows, block, values[rows[:, None], np.arange(block.size).reshape(block.shape)])
        width *= 2.0 / (REFINE_POINTS - 1)
    estimates = np.where(best > caps, math.inf, best)
    estimates[best == -math.inf] = math.nan
    return estimates


def _angular_ratio(z, phi):
    """Re z / Re phi(z); nan where Re phi <= 0 or the lane is masked."""
    ok = phi.real > 0
    return np.where(ok, z.real / np.where(ok, phi.real, 1.0), math.nan)


def _radial_ratio(z, phi):
    """|z| / |phi(z)|; inf where phi = 0, nan on masked lanes."""
    modulus = np.abs(phi)
    zero = modulus == 0
    return np.where(zero, math.inf, np.abs(z) / np.where(zero, 1.0, modulus))


def _derivative_ratios(z, jet: Jet, n: int):
    """|z^k phi^(k)(z) / phi(z)| for k = 1..n, one row each.

    Row k reads only the value and coefficient k of the jet, so an order-n
    jet gives every row bit for bit as an order-k jet would.  inf where
    phi = 0; nan, a point to skip, where phi is nan (a masked lane, or a
    value that overflowed while coefficient k did not) and where the ratio
    overflows, as at a point where the power itself overflows.
    """
    phi = jet.value
    zero = phi == 0
    denom = np.where(zero, 1.0, phi)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.array([np.abs(z**k * jet.derivative(k) / denom)
                         for k in range(1, n + 1)]).reshape(n, len(z))
    rows = np.where(np.isfinite(rows), rows, math.nan)
    return np.where(zero, math.inf, rows)


# ---------------------------------------------------------------------------
# Kernel-inequality certificates


#: relative slack on the kernel inequality: ``jury_min_m`` takes M as
#: admissible when M^2 * base - moved + JURY_TOL * max_i moved_ii * I has a
#: Cholesky factor; relative to the images' largest kernel value, so scaling
#: the symbol scales the bound and not the decisions
JURY_TOL = 1e-10
#: ``jury_min_m`` stops once its bracket is at most this fraction of its upper
#: end wide, the resolution of the bound on well-conditioned point sets
JURY_RESOLUTION = 2.0**-30


def _jury_matrices(e: SymbolExpr, n: int, points) -> tuple[np.ndarray, np.ndarray]:
    """The two Hermitian matrices of the kernel inequality, built once, in one
    closed-form array call.

    Checks that there is a point, that every point and every image is a
    finite point of C+ (the kernel's one domain rule, with no margin from the
    imaginary axis), that the order lies in the warranty 0..16 and that no
    kernel value overflows (K_n(z, z) grows without bound as z nears 0), then
    returns ``(base, moved)`` with base[i, j] = K_n(z_i, z_j) and
    moved[i, j] = K_n(phi(z_i), phi(z_j)), each bit for bit the
    ``gram_matrix`` of its points.  Neither depends on M: the inequality at M
    is the matrix M^2 * base - moved.
    The images come from one array evaluation; at the first point that fails,
    the point is checked before its image, and the error is the one a
    point-by-point check raises: a nan image marks a point where phi raises,
    and the point's own evaluation raises that error there, while an image
    that overflows is a ``ValueError`` naming the point.  A kernel value that
    overflows names its point, and one of ``base`` wins over one of ``moved``,
    which names its image.
    """
    zs = np.array([complex(z) for z in points], dtype=complex)
    if not len(zs):
        raise ValueError("the kernel inequality needs at least one point")
    images = _silently(e.eval, zs)
    bad = ~(_in_halfplane(zs) & _in_halfplane(images))
    if bad.any():
        z, u = (complex(v[np.argmax(bad)]) for v in (zs, images))
        _require_halfplane(z, "point")
        if cmath.isnan(u):
            with contextlib.suppress(OverflowError):
                e.eval(z)
        if not cmath.isfinite(u):
            raise ValueError(f"image of point {z} is not finite")
        _require_halfplane(u, "image")
    _check_order(n)
    base, moved = _gram_matrices(n, ("point", zs), ("image", images))
    return base, moved


def _threshold_estimate(base, factor, lo: float, hi: float) -> float:
    """Where in [lo, hi] the least admissible M of ``jury_min_m`` should lie.

    ``factor`` is the Cholesky factor L of S(hi) = hi^2 * base - moved + tol * I,
    which passed its test.  For every M, S(M) = L (I - (hi^2 - M^2) C) L^H with
    C = L^-1 base L^-H, which first turns singular at
    M^2 = hi^2 - 1 / lambda_max(C).  Returns that M clipped into [lo, hi], or
    the midpoint when lambda_max is not positive or is nan.  The result only
    chooses where the search tests next.
    """
    inverse = np.linalg.inv(factor)
    lam = np.linalg.eigvalsh(inverse @ base @ inverse.conj().T)[-1]
    if not lam > 0:
        return 0.5 * (lo + hi)
    return min(max(math.sqrt(max(hi * hi - 1.0 / lam, 0.0)), lo), hi)


def jury_min_m(e: SymbolExpr, n: int, points) -> float:
    """Least M making the sampled kernel inequality hold on these points.

    A lower bound for the operator norm that grows toward it as the point set
    refines.  Both Gram matrices are built once, in one closed-form array
    call, and M is admissible when the Cholesky factorisation of
    S = M^2 * base - moved + tol * I succeeds, tol = JURY_TOL * max_i moved_ii
    (a failed one is the answer "no"); each test forms that matrix in one
    reused buffer.  The search has three stages:

    * bracket: from the diagonal bound sqrt(max_i (moved_ii - tol) / base_ii),
      below which some diagonal entry is negative and no M is admissible, the
      upper end doubles until it is admissible (once it passes 1e12 the bound
      is ``inf``);
    * estimate: with L L^H the factor of the admissible end's matrix,
      S(M) = L (I - (hi^2 - M^2) C) L^H for C = L^-1 base L^-H, so S first
      turns singular at M^2 = hi^2 - 1 / lambda_max(C): the inverse of L
      and one eigen-solve (see ``_threshold_estimate``);
    * certify, then bisect: one Cholesky test on each side of the estimate,
      2^-31 of it away, brackets the threshold when the estimate is good; a
      side that fails widens 16-fold per test, never past the bracket, and
      bisection finishes the bracket.

    The search stops once the bracket is at most ``JURY_RESOLUTION`` = 2^-30
    of its upper end wide.  The returned M is admissible, and some M' >=
    (1 - 2^-30) M below it is not, unless M is the diagonal bound itself.  On a
    well-conditioned set that is the bound's resolution; rounding of order
    m * eps * ||S|| in the least eigenvalue of S moves the threshold by about
    m * eps * ||S|| / (2 M v^H base v), v its least eigenvector, so on a flat
    set the last digits depend on the steps taken.

    The estimate is not the pencil of ``base`` and ``moved``,
    M^2 = lambda_max(B^-1 moved B^-H) with base = B B^H, which factors
    ``base`` itself: kernel Gram matrices on sampled points are badly
    conditioned (on 72 point sets like the benchmark's, cond(base) had a
    median of 6.3e9 and reached 2e17 for 2*z+1 at n = 2 on 12 points), so
    that factor fails or amplifies rounding noise.
    The estimate factors the shifted matrix, which its Cholesky test has
    already shown positive definite with tol to spare, and it only chooses
    where to test: every decision is still a Cholesky test, and the slack tol
    keeps the noise out of each.  K_n is homogeneous of degree -1, so for
    c > 0 the bound of c * phi is c^(-1/2) times that of phi; tol scales with
    ``moved`` and keeps that, where an absolute slack would swamp the
    inequality once the images' kernel values near it.
    """
    base, moved = _jury_matrices(e, n, points)
    tol = JURY_TOL * moved.diagonal().real.max()
    step = np.empty_like(base)
    diagonal = step.reshape(-1)[:: len(step) + 1]  # a view of step's diagonal

    def factor(M):
        # LAPACK reads the lower triangle; gram_matrix makes each entry above
        # it exactly its mirror's conjugate, so that is the whole matrix
        np.subtract(np.multiply(base, M**2, out=step), moved, out=step)
        np.add(diagonal, tol, out=diagonal)
        try:
            return np.linalg.cholesky(step)
        except np.linalg.LinAlgError:
            return None

    ratios = (moved.diagonal().real - tol) / base.diagonal().real
    lo = hi = math.sqrt(max(ratios.max(), 0.0))
    while hi <= 1e12 and (L := factor(hi)) is None:
        lo, hi = hi, 2.0 * hi if hi else 1.0
    if hi > 1e12:
        return math.inf
    if lo < hi:
        est = _threshold_estimate(base, L, lo, hi)
        # up from the estimate until a test passes, then down until one fails
        for side in (1.0, -1.0):
            offset = 2.0**-31
            while lo < (M := est * (1.0 + side * offset)) < hi:
                ok = factor(M) is not None
                lo, hi = (lo, M) if ok else (M, hi)
                if ok == (side > 0):
                    break
                offset *= 16.0
    while hi - lo > JURY_RESOLUTION * hi:
        mid = 0.5 * (lo + hi)
        if factor(mid) is not None:
            hi = mid
        else:
            lo = mid
    return hi


def caughran_lower_bound(e: SymbolExpr, n: int, points) -> float:
    """sup over the sample of ||K_{n,phi(x)}|| / ||K_{n,x}||.

    The adjoint of a bounded composition operator maps the kernel function at
    x to the one at phi(x), so this ratio never exceeds the operator norm.
    The squared norms are the diagonals of the jury's two Gram matrices, with
    the jury's checks on the points: at a feasible M every diagonal entry of
    M^2 * base - moved is at least its least eigenvalue, so on a fixed point
    set the bound never exceeds the sampled jury bound.
    """
    base, moved = _jury_matrices(e, n, points)
    return math.sqrt(np.max(moved.diagonal().real / base.diagonal().real, initial=0.0))


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class SymbolReport:
    """Summary of the sampled boundedness evidence for one symbol."""

    text: str
    n: int
    selfmap_witnessed: bool
    phi_prime_infinity: float
    radial_sup: float
    nbc: tuple[float, ...]
    verdict_H2: str
    verdict_Hn: str
    h2_norm: float | None
    disclaimer: str = "sampled boundary estimates, not proofs"

    def to_dict(self) -> dict:
        return {
            "symbol": self.text,
            "n": self.n,
            "selfmap_witnessed": self.selfmap_witnessed,
            "phi_prime_infinity": self.phi_prime_infinity,
            "radial_sup": self.radial_sup,
            "nbc": list(self.nbc),
            "verdict_H2": self.verdict_H2,
            "verdict_Hn": self.verdict_Hn,
            "h2_norm": self.h2_norm,
            "disclaimer": self.disclaimer,
        }


def classify(e: SymbolExpr, n: int) -> SymbolReport:
    """Assemble the sampled estimates and verdicts for a symbol at order n.

    Unless Re phi > 0 at every sweep point, phi is not witnessed as a
    self-map, the only symbols the criteria speak of: both verdicts read
    "selfmap-unwitnessed" and ``h2_norm`` is None.  Otherwise the plain-Hardy
    verdict is bounded exactly when the angular derivative at infinity is
    finite (then the operator norm is its square root).  At order n >= 1: an
    infinite radial supremum fails the necessary condition; a finite angular
    derivative plus finite k-derivative suprema passes the sufficient one;
    anything else is inconclusive.

    The suprema lie on the boundary.  A self-map has no zero in C+, so each
    ratio g = z/phi or z^k phi^(k)/phi is analytic there.  If |g(z)| <=
    A exp(B |z|^c) on C+ for some c < 1, as for every symbol of the grammar,
    which grows at most like a power of |z|, then by Phragmen-Lindelof sup
    |g| over C+ is the sup of its boundary values on the imaginary axis.  By
    Julia-Caratheodory, sup Re z / Re phi(z) is the limit of x / phi(x) as
    x -> +inf.  ``SWEEP`` samples the axis at Re z = AXIS_RE and the real
    ray, both out to 1e18.  The angular derivative diverges past
    ``ANGULAR_CAP``, the radial supremum past ``DIVERGE_CAP``, and the k-th
    derivative supremum S_k past ``DIVERGE_CAP * k!``: by Cauchy's estimate on
    a disc of radius rho |z| about z inside C+, |z^k phi^(k)(z)| <= k! rho^-k
    max |phi| there, so S_k grows like k! for a bounded map and S_k / k! is
    its scale-free size.  A pole of a ratio at a sweep point on the axis
    reads about 1 / AXIS_RE; one between sweep points reads only as high as
    the refinement comes near it.  n lies in the warranty 0..16.
    """
    _check_order(n)
    jet = _silently(e.jet, SWEEP, n)
    if not np.isfinite(jet.value).any():
        raise ValueError("phi took no finite value at any sweep point")
    ok = bool(np.all(jet.value.real > 0))

    def ratios(z, jet=None):
        # rows: angular derivative, radial supremum, then k = 1..n
        jet = e.jet(z, n) if jet is None else jet
        return np.vstack([_angular_ratio(z, jet.value), _radial_ratio(z, jet.value),
                          _derivative_ratios(z, jet, n)])

    # the radial supremum's cap is DIVERGE_CAP * 0!
    caps = [ANGULAR_CAP] + [DIVERGE_CAP * math.factorial(k) for k in range(n + 1)]
    estimates = _supremum_estimate(ratios, caps, _silently(ratios, SWEEP, jet))
    phi_inf, rad = float(estimates[0]), float(estimates[1])
    nbc = tuple(float(v) for v in estimates[2:])

    verdict_h2 = "bounded" if math.isfinite(phi_inf) else "unbounded"
    if not ok:
        verdict_h2 = verdict_hn = "selfmap-unwitnessed"
    elif n >= 1:
        if math.isinf(rad):
            verdict_hn = "necessary-failed"
        elif math.isfinite(phi_inf) and all(math.isfinite(v) for v in nbc):
            verdict_hn = "sufficient-passed"
        else:
            verdict_hn = "inconclusive"
    else:
        # at order 0 the angular-derivative criterion is exact
        verdict_hn = "sufficient-passed" if verdict_h2 == "bounded" else "necessary-failed"

    return SymbolReport(
        text=e.to_text(),
        n=n,
        selfmap_witnessed=ok,
        phi_prime_infinity=phi_inf,
        radial_sup=rad,
        nbc=nbc,
        verdict_H2=verdict_h2,
        verdict_Hn=verdict_hn,
        h2_norm=math.sqrt(phi_inf) if ok and math.isfinite(phi_inf) else None,
    )
