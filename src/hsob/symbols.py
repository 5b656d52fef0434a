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

``jury_min_eig`` and ``jury_min_m`` give certificates for the kernel
inequality M^2 K(x, y) >= K(phi(x), phi(y)), whose least admissible M equals
the composition operator's norm; ``caughran_lower_bound`` reads a lower bound
off the diagonals of the same two Gram matrices.

Symbols are evaluated on point arrays.  ``SymbolExpr.eval`` and ``.jet``
take a 1-D array and return one lane per point; a point on a branch cut or at
a vanishing denominator is a masked lane, nan in every output, where a single
point raises (see :mod:`hsob.jets`).  ``classify`` makes four array calls:
the base grid, the first refinement together with the boundary rings (which
depend on no argmax), the second refinement, and the rays; the passes are
swept in their order, base grid, refinements, rings, rays.  It evaluates each
point set once: one order-n jet serves the self-map check, the angular
derivative, the radial supremum and every k.
A pass runs with numpy's overflow warnings off: a value or coefficient that
overflows comes out inf or nan, as Python's complex arithmetic gives it at a
single point, and a nan ratio is skipped.
The jury routines build the two Gram matrices of the inequality once, from
one array evaluation of the images, since neither depends on M; their points
and images obey the kernel's one domain rule, finite with Re z > 0 and no
margin from the imaginary axis.  ``jury_min_eig`` takes one least
eigenvalue.  ``jury_min_m`` decides every M by a Cholesky factorisation of
the shifted inequality matrix: it doubles M until one is admissible,
estimates the threshold from that factor by one eigen-solve of the pencil of
the base matrix and the shifted one, certifies the estimate with a test on
each side, and bisects what is left.  It never reads M off the pencil of the
base matrix with the moved one: that factors the base matrix, and sampled
kernel Gram matrices are too badly conditioned for it (cond up to about
2e17), while the shifted matrix has passed its test and the estimate only
chooses where to test.

All suprema are sampled estimates over log-polar grids with refinement toward
the argmax, toward the imaginary axis, and outward along rays: evidence, not
proofs.  Reports carry the grid metadata.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .jets import Jet, JetDomainError, guard, masked, on_cut, principal_power
from .kernel import _KernelOverflow, _in_halfplane, _require_halfplane, gram_matrix
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
    "GridSpec",
    "jury_min_eig",
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
# Sampled suprema over log-polar grids


#: refinement passes around the running argmax
REFINE_PASSES = 2
#: boundary passes, each shrinking the argument margin by a factor of 100
BOUNDARY_PASSES = 3
#: the rays through the argmax extend out to modulus 10**LOG10_R_EXTEND
LOG10_R_EXTEND = 18.0
#: a supremum past its cap that refinement pushed above the base-grid value
#: is declared infinite; the angular derivative's cap is the lower one, S_k's DIVERGE_CAP * k!
DIVERGE_CAP = 1e8
ANGULAR_CAP = 1e6


@dataclass(frozen=True)
class GridSpec:
    """Log-polar sampling grid on C+, the five fields of ``--grid``.

    Moduli run geometrically over ``10**log10_r_min .. 10**log10_r_max``;
    arguments stay ``theta_margin`` away from +-pi/2.  The refinement and
    divergence policy of the estimates is the module's constants.
    """

    log10_r_min: float = -4.0
    log10_r_max: float = 6.0
    num_r: int = 41
    theta_margin: float = 1e-3
    num_theta: int = 33

    def radii(self) -> np.ndarray:
        return np.logspace(self.log10_r_min, self.log10_r_max, self.num_r)

    def angles(self) -> np.ndarray:
        half = math.pi / 2 - self.theta_margin
        return np.linspace(-half, half, self.num_theta)


DEFAULT_GRID = GridSpec()


def _polar(radii, angles) -> np.ndarray:
    """The points r e^(i theta), radius-major, as a 1-D array."""
    r = np.asarray(radii, dtype=float)[:, None]
    angles = np.asarray(angles, dtype=float)
    pts = np.empty((r.shape[0], angles.size), dtype=complex)
    pts.real = r * np.cos(angles)
    pts.imag = r * np.sin(angles)
    return pts.ravel()


@functools.lru_cache(maxsize=8)
def _grid_points(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The grid's base points and boundary rings, built once per grid.

    The rings are the ``BOUNDARY_PASSES`` radial pairs of arguments at
    +-(pi/2 - margin), the margin shrinking 100-fold per ring, concatenated
    ring by ring.  The arrays are shared between calls, so they are
    read-only.
    """
    # a grid with no points samples nothing, so it is no evidence
    if grid.num_r < 1 or grid.num_theta < 1:
        raise ValueError("the grid has no points: num_r and num_theta must be at least 1")
    radii = _silently(grid.radii)
    # a radius that under- or overflows puts points off C+, and a ray from 0 never ends
    if not (np.isfinite(radii) & (radii > 0)).all():
        raise ValueError("the grid's radii must be finite and positive")
    rings, margin = [], grid.theta_margin
    for _ in range(BOUNDARY_PASSES):
        margin *= 1e-2
        edge = math.pi / 2 - margin
        rings.append(_polar(radii, [-edge, edge]))
    arrays = _polar(radii, grid.angles()), np.concatenate(rings)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _base_points(grid: GridSpec) -> np.ndarray:
    return _grid_points(grid)[0]


def _silently(fn, *args):
    """``fn(*args)`` with numpy's overflow and invalid-value warnings off.

    A symbol, a jet coefficient or a ratio that overflows at a sampled point
    comes out inf or nan there, as Python's complex arithmetic gives it at a
    single point; the estimates read nan as a point to skip.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return fn(*args)


def _supremum_estimate(fn, grid: GridSpec, caps, first) -> np.ndarray:
    """Running maxima of the rows of ``fn`` with all refinements.

    ``fn`` maps a 1-D point array to q rows of ratios, shape (q, m); nan
    marks a point to skip.  ``first`` is ``fn`` already evaluated on the base
    grid.  Each row is estimated on its own: ``REFINE_PASSES`` refinements
    around its own argmax, then the ``BOUNDARY_PASSES``, then the ray through
    its argmax.  Within a pass a row's running maximum moves to the first
    maximum in point order, if it is larger; one argmax over each pass's rows
    sweeps them all.

    ``fn`` is called at most three times: the refinements and the ray
    concatenate the rows' point sets, each row reading its own block, and the
    boundary rings, which depend on no argmax, ride in the first
    refinement's call.  The rings are swept after the last refinement and
    before the ray, so every pass and its order are as with one call per
    pass.  A ray that starts at 10**LOG10_R_EXTEND or beyond is empty, and a
    pass with no points makes no call.

    Returns the q estimates.  A row's estimate is declared +inf when it
    exceeds its divergence cap (``caps``, one per row) *and* refinement
    pushed it past the base-grid value, the signature of a supremum escaping
    to the boundary or to infinity; it is nan when no base-grid point gave a
    value.
    """
    pts, rings = _grid_points(grid)
    first = np.asarray(first)
    best = np.full(len(first), -math.inf)
    best_z = np.zeros(len(first), dtype=complex)

    def sweep(rows, points, values):
        # points: one row per row of values, or one row that they all share
        values = np.where(np.isnan(values), -math.inf, values)
        i = np.argmax(values, axis=1)
        lanes = np.arange(len(rows))
        top = values[lanes, i]
        up = top > best[rows]
        best[rows[up]] = top[up]
        best_z[rows[up]] = (points[i] if points.ndim == 1 else points[lanes, i])[up]

    sweep(np.arange(len(first)), pts, first)
    base_estimate = best.copy()
    # a row without a base-grid value gets no further pass
    rows = np.flatnonzero(best > -math.inf)
    if not len(rows):
        return np.full(len(first), math.nan)

    def centres():
        # abs and math.atan2, not their numpy forms, which differ in the last bit
        zs = [complex(z) for z in best_z[rows]]
        return (np.array([abs(z) for z in zs]),
                np.array([math.atan2(z.imag, z.real) for z in zs]))

    def own_blocks(values, width):
        # block j of the concatenated points belongs to rows[j]
        columns = np.arange(len(rows))[:, None] * width + np.arange(width)
        return values[rows[:, None], columns]

    half = math.pi / 2 - grid.theta_margin
    scales = np.logspace(-0.5, 0.5, 9)
    for step in range(REFINE_PASSES):
        r0, t0 = centres()
        angles = np.clip(np.linspace(t0 - 0.2, t0 + 0.2, 9).T, -half, half)
        radius = (r0[:, None] * scales)[:, :, None]
        block = np.empty((len(rows), 9, 9), dtype=complex)
        block.real = radius * np.cos(angles)[:, None, :]
        block.imag = radius * np.sin(angles)[:, None, :]
        block = block.reshape(len(rows), 81)
        if step == 0:
            values = _silently(fn, np.concatenate([block.ravel(), rings]))
            ring_values = values[rows, block.size:]
        else:
            values = _silently(fn, block.ravel())
        sweep(rows, block, own_blocks(values, 81))
    sweep(rows, rings, ring_values)

    # each ray multiplies its start by 10 until it reaches 10**LOG10_R_EXTEND,
    # as a running product; the nearest start takes the most steps
    r0, t0 = centres()
    start = np.maximum(r0, 10.0 ** grid.log10_r_max)
    end, r, steps = 10.0**LOG10_R_EXTEND, start.min(), 0
    while r < end:
        r, steps = r * 10.0, steps + 1
    if steps:
        factors = np.full((len(rows), steps + 1), 10.0)
        factors[:, 0] = start
        products = np.multiply.accumulate(factors, axis=1)
        ray = np.empty((len(rows), steps), dtype=complex)
        ray.real = products[:, 1:] * np.cos(t0)[:, None]
        ray.imag = products[:, 1:] * np.sin(t0)[:, None]
        on_ray = products[:, :-1] < end
        owner = np.broadcast_to(rows[:, None], ray.shape)[on_ray]
        own = np.full(ray.shape, math.nan)
        own[on_ray] = _silently(fn, ray[on_ray])[owner, np.arange(len(owner))]
        sweep(rows, ray, own)

    grew = best > base_estimate * (1.0 + 1e-9)
    estimates = np.where((best > caps) & grew, math.inf, best)
    estimates[base_estimate == -math.inf] = math.nan
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
    """The two Hermitian matrices of the kernel inequality, built once.

    Checks that there is a point, that every point and every image is a
    finite point of C+ (the kernel's one domain rule, with no margin from the
    imaginary axis) and that no kernel value overflows (K_n(z, z) grows
    without bound as z nears 0), then returns ``(base, moved)`` with
    base[i, j] = K_n(z_i, z_j) and moved[i, j] = K_n(phi(z_i), phi(z_j)).
    Neither depends on M: the inequality at M is the matrix M^2 * base - moved;
    ``gram_matrix`` refuses an order outside the warranty 0..16.
    The images come from one array evaluation; at the first point that fails,
    the point is checked before its image, and the error is the one a
    point-by-point check raises: a nan image marks a point where phi raises,
    and the point's own evaluation raises that error there, while an image
    that overflows is a ``ValueError`` naming the point.
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
    base = gram_matrix(n, zs)
    try:
        moved = gram_matrix(n, images)
    except _KernelOverflow as err:
        raise ValueError(f"kernel value at image {err.point} overflows") from None
    return base, moved


def jury_min_eig(e: SymbolExpr, n: int, M: float, points) -> float:
    """Least eigenvalue of [M^2 K_n(z_i,z_j) - K_n(phi(z_i),phi(z_j))].

    Nonnegative (up to rounding) for every point set exactly when M dominates
    the composition operator's norm.  All points and their images must be
    finite points of C+.
    """
    base, moved = _jury_matrices(e, n, points)
    # no Hermitised copy: it would change no bit, since gram_matrix makes the
    # diagonal real and each entry above it exactly its mirror's conjugate,
    # and LAPACK reads only the lower triangle and the diagonal's real part
    return float(np.linalg.eigvalsh(M**2 * base - moved)[0])


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
    refines.  Both Gram matrices are built once, and M is admissible when the
    Cholesky factorisation of S = M^2 * base - moved + tol * I succeeds,
    tol = JURY_TOL * max_i moved_ii (a failed one is the answer "no"); each
    test forms that matrix in one reused buffer.  The search has three stages:

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
    grid: GridSpec = field(default_factory=GridSpec)
    disclaimer: str = "sampled grid estimates, not proofs"

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
            "grid": dataclasses.asdict(self.grid),
            "disclaimer": self.disclaimer,
        }


def classify(e: SymbolExpr, n: int, grid: GridSpec = DEFAULT_GRID) -> SymbolReport:
    """Assemble the sampled estimates and verdicts for a symbol at order n.

    The plain-Hardy verdict is bounded exactly when the angular derivative at
    infinity is finite (then the operator norm is its square root).  At order
    n >= 1: an infinite radial supremum fails the necessary condition; a
    finite angular derivative plus finite k-derivative suprema passes the
    sufficient one; anything else is inconclusive.

    All estimates share one order-n jet per array call: the base grid's,
    which also gives the self-map flag, and the three of
    :func:`_supremum_estimate`.  The angular derivative diverges past
    ``ANGULAR_CAP``, the radial supremum past ``DIVERGE_CAP``, and the k-th
    derivative supremum S_k past ``DIVERGE_CAP * k!``: by Cauchy's estimate on
    a disc of radius rho |z| about z inside C+, |z^k phi^(k)(z)| <= k! rho^-k
    max |phi| there, so S_k grows like k! for a bounded map and S_k / k! is
    its scale-free size.  n lies in the warranty 0..16.
    """
    _check_order(n)
    pts = _base_points(grid)
    jet = _silently(e.jet, pts, n)
    if not np.isfinite(jet.value).any():
        raise ValueError("phi took no finite value at any base-grid point")
    ok = bool(np.all(jet.value.real > 0))

    def ratios(z, jet=None):
        # rows: angular derivative, radial supremum, then k = 1..n
        jet = e.jet(z, n) if jet is None else jet
        return np.vstack([_angular_ratio(z, jet.value), _radial_ratio(z, jet.value),
                          _derivative_ratios(z, jet, n)])

    # the radial supremum's cap is DIVERGE_CAP * 0!
    caps = [ANGULAR_CAP] + [DIVERGE_CAP * math.factorial(k) for k in range(n + 1)]
    estimates = _supremum_estimate(ratios, grid, caps, _silently(ratios, pts, jet))
    phi_inf, rad = float(estimates[0]), float(estimates[1])
    nbc = tuple(float(v) for v in estimates[2:])

    verdict_h2 = "bounded" if math.isfinite(phi_inf) else "unbounded"
    if n >= 1:
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
        h2_norm=math.sqrt(phi_inf) if math.isfinite(phi_inf) else None,
        grid=grid,
    )
