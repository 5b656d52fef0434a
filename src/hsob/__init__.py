"""Numerical library for Hilbertian Hardy-Sobolev spaces on the right half-plane.

The order-n space consists of analytic F on Re z > 0 with z^k F^(k) in the
Hardy space for k = 0..n; it is the isometric Laplace image of the weighted
time-domain space of n-fold antiderivatives.  This package evaluates the
reproducing kernels of these spaces, verifies the isometry and the norm
identities by independent numeric routes, and analyses analytic self-maps of
the half-plane as candidate symbols of bounded composition operators.
"""

from .quadrature import (
    QuadResult,
    QuadratureError,
    integrate_halfline,
    integrate_interval,
)
from .specfun import (
    BellPartitionTable,
    bell_partitions,
)
from .expfamily import (
    ExpPoly,
    RationalComb,
    inner_product_n,
    laplace,
    norm_n,
    sample_exppoly,
)
from .timespace import exp_series_remainder, hardy_constant, w_minus_exp
from .freqspace import (
    HnNormReport,
    hn_norm,
    laplace_derivative_identity_check,
)
from .kernel import (
    gram_matrix,
    kernel_diag,
    kernel_eval_closed,
    kernel_eval_quadrature,
    kernel_norm,
    min_eigenvalue,
    norm_bounds,
    reproduce_check,
)
from .cayley import (
    DiscFunction,
    cayley,
    cayley_inverse,
    disc_h2_norm,
    disc_membership_report,
    norm_equality_check,
)
from .jets import Jet, JetDomainError
from .symbols import (
    BranchViolation,
    SymbolExpr,
    SymbolReport,
    SymbolSyntaxError,
    caughran_lower_bound,
    classify,
    jury_min_m,
    parse,
)
from .verify import GridSpec

__version__ = "0.1.0"

__all__ = [
    "QuadResult", "QuadratureError",
    "integrate_interval", "integrate_halfline",
    "BellPartitionTable", "bell_partitions",
    "ExpPoly", "RationalComb", "laplace", "inner_product_n", "norm_n", "sample_exppoly",
    "w_minus_exp", "hardy_constant", "exp_series_remainder",
    "HnNormReport", "hn_norm", "laplace_derivative_identity_check",
    "kernel_eval_closed", "kernel_eval_quadrature", "kernel_diag", "kernel_norm",
    "norm_bounds", "gram_matrix", "min_eigenvalue", "reproduce_check",
    "cayley", "cayley_inverse", "DiscFunction", "disc_h2_norm",
    "norm_equality_check", "disc_membership_report",
    "Jet", "JetDomainError",
    "SymbolExpr", "SymbolSyntaxError", "BranchViolation", "parse",
    "GridSpec", "jury_min_m",
    "caughran_lower_bound", "SymbolReport", "classify",
]
