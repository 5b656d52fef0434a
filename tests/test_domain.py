"""One domain rule for points of C+: a finite point with Re z > 0.

Every public function that takes a point (a parameter named ``z``, ``w`` or
``points``) refuses a non-finite point and a point off the open right
half-plane with one ``ValueError`` that names the argument and the bad value,
and takes a point next to the imaginary axis, which no margin keeps out.  An
array of points with more than one dimension is refused the same way.
"""

import cmath
import inspect
import math

import numpy as np
import pytest

import hsob
from hsob import (
    ExpPoly,
    caughran_lower_bound,
    cayley_inverse,
    gram_matrix,
    jury_min_m,
    kernel_diag,
    kernel_eval_closed,
    kernel_eval_quadrature,
    kernel_norm,
    laplace_derivative_identity_check,
    norm_bounds,
    parse,
    reproduce_check,
)

F = ExpPoly.exponential(1.0)
PHI = parse("z+1")
ROOT = parse("sqrt(z)")

#: (function, argument name, call with one point v): each call puts v where
#: that argument reads it, among good points where it takes several
DOMAIN_TABLE = [
    (kernel_eval_closed, "z", lambda v: kernel_eval_closed(1, v, 1.0)),
    (kernel_eval_closed, "w", lambda v: kernel_eval_closed(1, 1.0, v)),
    (kernel_eval_quadrature, "z", lambda v: kernel_eval_quadrature(1, v, 1.0)),
    (kernel_eval_quadrature, "w", lambda v: kernel_eval_quadrature(1, 1.0, v)),
    (kernel_diag, "z", lambda v: kernel_diag(1, v)),
    (kernel_diag, "z", lambda v: kernel_diag(1, np.array([1.0, v, 2.0]))),
    (kernel_norm, "z", lambda v: kernel_norm(1, v)),
    (norm_bounds, "z", lambda v: norm_bounds(1, v)),
    (gram_matrix, "point", lambda v: gram_matrix(1, [1.0, v, 2.0])),
    (reproduce_check, "w", lambda v: reproduce_check(1, F, v)),
    (laplace_derivative_identity_check, "z",
     lambda v: laplace_derivative_identity_check(F, 2, 1, v)),
    # sqrt(z) fails at the bad point too: the point is named before its image
    (jury_min_m, "point", lambda v: jury_min_m(ROOT, 1, [1.0, v, 2.0])),
    (jury_min_m, "point", lambda v: jury_min_m(PHI, 1, [1.0, v, 2.0])),
    (caughran_lower_bound, "point", lambda v: caughran_lower_bound(PHI, 1, [1.0, v, 2.0])),
    (cayley_inverse, "z", cayley_inverse),
]
IDS = [f"{fn.__name__}-{name}-{i}" for i, (fn, name, _) in enumerate(DOMAIN_TABLE)]


@pytest.mark.parametrize("fn, name, call", DOMAIN_TABLE, ids=IDS)
@pytest.mark.parametrize("bad", [complex(1, math.nan), math.inf, -1.0, 0.0],
                         ids=["1+nanj", "inf", "-1", "0"])
def test_refuses_points_off_the_halfplane(fn, name, call, bad):
    rule = "be finite" if not cmath.isfinite(bad) else "lie in the open right half-plane"
    with pytest.raises(ValueError) as err:
        call(bad)
    assert str(err.value) == f"{name} must {rule}, got {complex(bad)}"


#: (function, argument name, call with a 2x2 array of points of C+): a
#: points argument is a point or a 1-D array, never a matrix of points
POINTS_2D = np.array([[1.0, 2.0], [3.0, 4.0 + 1.0j]])
SHAPE_TABLE = [
    (gram_matrix, "point", lambda: gram_matrix(1, POINTS_2D)),
    (kernel_diag, "z", lambda: kernel_diag(1, POINTS_2D)),
]


@pytest.mark.parametrize("fn, name, call", SHAPE_TABLE, ids=[fn.__name__ for fn, _, _ in SHAPE_TABLE])
def test_refuses_arrays_of_more_than_one_dimension(fn, name, call):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == f"{name} must be a point or a 1-D array of points, got shape (2, 2)"


@pytest.mark.parametrize("fn, name, call", DOMAIN_TABLE, ids=IDS)
def test_takes_points_next_to_the_axis(fn, name, call):
    assert np.isfinite(call(complex(1e-12, 1.0))).all()


def test_table_covers_every_point_taking_function():
    # a public function with a parameter z, w or points belongs in the table
    takes_points = {
        name for name in hsob.__all__
        if inspect.isfunction(fn := getattr(hsob, name))
        and {"z", "w", "points"} & set(inspect.signature(fn).parameters)
    }
    assert takes_points == {fn.__name__ for fn, _, _ in DOMAIN_TABLE}
