"""The benchmark's tracer still finds every library hook it patches.

``bench/tracing.py`` patches ``Jet.__post_init__`` and the ``eval``/``jet``
methods of each symbol node class, as well as the public functions, among
them the quadrature entry points whose calls, nodes and subdivisions it
counts.  A refactor that drops one of them breaks ``bench/run.py --trace 1``;
these tests make it fail here first.
"""

import importlib.util
from pathlib import Path

import pytest

from hsob import cli, jets, symbols

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


#: each verify suite, the layer metric that counts its work (None where no
#: metric does), and spans of layer functions that ``hsob.verify`` calls for it
#: directly; a ``from .x import f`` binding in ``hsob.verify`` escapes the
#: tracer's patches and leaves these at zero
SUITE_LAYERS = [
    ("paley-wiener", "freqspace.hn_norm.calls", ("expfamily.laplace",)),
    ("inner-product", "expfamily.inner_product.calls", ("expfamily.sample_exppoly",)),
    ("bounds", "kernel.diag.calls", ("kernel.norm_bounds",)),
    ("reproduce", "quadrature.halfline.calls", ("kernel.reproduce_check", "expfamily.laplace")),
    ("cayley", "cayley.disc_norm.calls", ("cayley.norm_equality_check", "expfamily.laplace")),
    ("hardy-ineq", None, ("timespace.w_minus_exp", "timespace.hardy_constant")),
]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_symbol_request_counts_classify_and_jets():
    originals = (symbols.classify, jets.Jet.__dict__["__post_init__"],
                 symbols.Pow.__dict__["eval"], symbols.Pow.__dict__["jet"])
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        with tracer.request("symbol", 0):
            symbols.classify(symbols.parse("z+sqrt(z)+1"), 2)
            symbols.jury_min_m(symbols.parse("sqrt(z)+1"), 1, [1.0, 2.0 + 1.0j, 0.5 - 0.5j])
    finally:
        tracer.uninstall()
    metrics = {name: value for name, (value, _unit) in tracer.layer_metrics().items()}
    assert metrics["jets.objects"] > 0
    assert metrics["jets.jet.calls"] > 0
    assert metrics["symbols.points"] > metrics["jets.jet.calls"]
    assert metrics["symbols.classify.calls"] == 1
    # symbols.supremum.self_s reads this span: a renamed estimator would zero it
    assert tracer.calls["symbols.supremum"] == 1
    assert metrics["symbols.jury_m.calls"] == 1
    assert (symbols.classify, jets.Jet.__dict__["__post_init__"],
            symbols.Pow.__dict__["eval"], symbols.Pow.__dict__["jet"]) == originals


def test_traced_reproduce_request_counts_halfline_quadratures():
    tracer = _load_tracing().Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        with tracer.request("verify", 0):
            assert cli.main(["verify", "reproduce", "--n", "2", "--samples", "2"]) == 0
    finally:
        tracer.uninstall()
    metrics = {name: value for name, (value, _unit) in tracer.layer_metrics().items()}
    assert metrics["quadrature.halfline.calls"] == 2
    assert metrics["quadrature.nodes"] > 0
    assert metrics["quadrature.subdivisions"] > 0
    assert metrics["quadrature.failures"] == 0
    assert patched
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)


@pytest.mark.parametrize("suite, metric, spans", SUITE_LAYERS)
def test_traced_verify_suite_counts_its_layers(suite, metric, spans):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        # bounds runs on the default 7 x 9 grid; it takes no --samples
        samples = ["--samples", "2"] if suite != "bounds" else []
        with tracer.request("verify", 0):
            assert cli.main(["verify", suite, "--n", "2", *samples]) == 0
    finally:
        tracer.uninstall()
    metrics = {name: value for name, (value, _unit) in tracer.layer_metrics().items()}
    assert metrics["cli.calls"] == 1
    if metric:
        assert metrics[metric] > 0
    assert all(tracer.calls[span] > 0 for span in spans), dict(tracer.calls)
