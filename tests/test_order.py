"""One order warranty, n = 0..16, with one check and one message.

Every public function with a parameter ``n`` or ``order`` is either warranted:
it takes n = 16 and refuses n = 17 and n = -1 with the one ``ValueError`` of
:func:`hsob.specfun._check_order`; or uncapped: exact algebra, or a check
built on it, that no closed form, jet or partition table bounds, and that
takes n = 17.  The kernel's closed form, its quadrature check, the jets, the
partition tables and the symbol estimates are warranted.
"""

import inspect

import numpy as np
import pytest

import hsob
from hsob import (
    ExpPoly,
    GridSpec,
    Jet,
    bell_partitions,
    caughran_lower_bound,
    classify,
    exp_series_remainder,
    gram_matrix,
    hn_norm,
    inner_product_n,
    jury_min_m,
    kernel_diag,
    kernel_eval_closed,
    kernel_eval_quadrature,
    kernel_norm,
    laplace,
    laplace_derivative_identity_check,
    norm_bounds,
    norm_n,
    parse,
    reproduce_check,
    verify,
    w_minus_exp,
)
from hsob.specfun import MAX_ORDER

F = ExpPoly.exponential(1.0)
PHI = parse("2*z+1")
POINTS = [1.0, 2.0 + 1.0j]
SMALL_GRID = GridSpec(-1.0, 1.0, 3, 0.1, 3)

#: name -> call at order n, for each warranted function or method
WARRANTED = {
    "kernel_eval_closed": lambda n: kernel_eval_closed(n, 1.0, 2.0),
    "kernel_eval_quadrature": lambda n: kernel_eval_quadrature(n, 1.0, 2.0),
    "kernel_diag": lambda n: kernel_diag(n, 1.0),
    "kernel_norm": lambda n: kernel_norm(n, 1.0),
    "gram_matrix": lambda n: gram_matrix(n, POINTS),
    "jury_min_m": lambda n: jury_min_m(PHI, n, POINTS),
    "caughran_lower_bound": lambda n: caughran_lower_bound(PHI, n, POINTS),
    "classify": lambda n: classify(PHI, n),
    "bell_partitions": bell_partitions,
    "Jet.variable": lambda n: Jet.variable(1.0, n),
    "Jet.constant": lambda n: Jet.constant(2.0, n),
    "SymbolExpr.jet": lambda n: PHI.jet(np.array(POINTS), n),
    "verify.run": lambda n: verify.run("bounds", n, grid=SMALL_GRID),
    "verify.grid_rows": lambda n: list(verify.grid_rows(n, SMALL_GRID)),
}

#: name -> call at order n, for each function that takes any order
UNCAPPED = {
    "inner_product_n": lambda n: inner_product_n(F, ExpPoly.exponential(2.0), n),
    "norm_n": lambda n: norm_n(F, n),
    "w_minus_exp": lambda n: w_minus_exp(F, n),
    "exp_series_remainder": lambda n: exp_series_remainder(n, 1.0),
    "hn_norm": lambda n: hn_norm(laplace(F), n),
    "laplace_derivative_identity_check": lambda n: laplace_derivative_identity_check(F, n, 1, 1.0),
    "norm_bounds": lambda n: norm_bounds(n, 1.0),
    "reproduce_check": lambda n: reproduce_check(n, F, 1.0),
}


@pytest.mark.parametrize("call", WARRANTED.values(), ids=WARRANTED)
def test_warranted_takes_the_highest_order(call):
    call(MAX_ORDER)


@pytest.mark.parametrize("call", WARRANTED.values(), ids=WARRANTED)
@pytest.mark.parametrize("n", [MAX_ORDER + 1, -1])
def test_warranted_refuses_other_orders_with_one_message(call, n):
    with pytest.raises(ValueError) as err:
        call(n)
    assert str(err.value) == f"the order must lie in 0..16, got {n}"


@pytest.mark.parametrize("call", UNCAPPED.values(), ids=UNCAPPED)
def test_uncapped_takes_orders_past_the_warranty(call):
    call(MAX_ORDER + 1)


def _takes_order(fn) -> bool:
    return bool({"n", "order"} & set(inspect.signature(fn).parameters))


def test_table_covers_every_order_taking_function():
    # a public function, or a public method of a public class, of hsob or of
    # its verify module with a parameter n or order belongs in one table
    found = set()
    for name in hsob.__all__:
        obj = getattr(hsob, name)
        if inspect.isfunction(obj) and _takes_order(obj):
            found.add(name)
        for attr, member in vars(obj).items() if inspect.isclass(obj) else ():
            fn = getattr(member, "__func__", member)  # a staticmethod's function
            if not attr.startswith("_") and inspect.isfunction(fn) and _takes_order(fn):
                found.add(f"{name}.{attr}")
    found |= {f"verify.{name}" for name, fn in vars(verify).items()
              if not name.startswith("_") and inspect.isfunction(fn)
              and fn.__module__ == verify.__name__ and _takes_order(fn)}
    assert not set(WARRANTED) & set(UNCAPPED)
    assert found == set(WARRANTED) | set(UNCAPPED)
