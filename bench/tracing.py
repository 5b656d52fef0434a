"""Span tracing of hsob from outside the library.

The tracer patches the public functions of every ``hsob`` module (and every
``from .x import`` binding of them) with wrappers that record a span: name,
start, end, parent span and request id.  Nothing under ``src/`` is changed;
``uninstall`` puts the original objects back.

Two kinds of call are too frequent to keep one span each: the top-level
evaluation of a symbol at a grid point (``SymbolExpr.eval``/``jet``) and the
construction of ``Jet`` objects.  Those are aggregated (count and time) and
still subtracted from their parent's self time, but not stored.

Self time is a span's duration minus the time of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

#: modules whose public functions are wrapped; the first dotted part of a
#: span name is the layer
LAYERS = ("quadrature", "specfun", "expfamily", "timespace", "freqspace",
          "kernel", "cayley", "jets", "symbols", "cli")

#: functions with a fixed span name (the per-layer metrics read these) and a
#: wrapper kind that records extra counts
NAMED = {
    ("quadrature", "integrate_interval"): ("quadrature.interval", "quad1"),
    ("quadrature", "integrate_halfline"): ("quadrature.halfline", "quad1"),
    ("quadrature", "integrate_square_corner"): ("quadrature.square", "quad2"),
    ("timespace", "exp_series_remainder"): ("timespace.e_n", "e_n"),
    ("expfamily", "inner_product_n"): ("expfamily.inner_product", "plain"),
    ("freqspace", "hn_norm"): ("freqspace.hn_norm", "plain"),
    ("cayley", "disc_h2_norm"): ("cayley.disc_norm", "plain"),
    ("kernel", "kernel_eval_closed"): ("kernel.closed", "plain"),
    ("kernel", "kernel_eval_quadrature"): ("kernel.quad", "plain"),
    ("kernel", "kernel_diag"): ("kernel.diag", "plain"),
    ("kernel", "gram_matrix"): ("kernel.gram", "plain"),
    ("kernel", "kernel_eval"): ("kernel.eval", "route"),
    ("symbols", "_supremum_estimate"): ("symbols.supremum", "plain"),
    ("symbols", "classify"): ("symbols.classify", "plain"),
    ("symbols", "jury_min_eig"): ("symbols.jury_eig", "plain"),
    ("symbols", "jury_min_m"): ("symbols.jury_m", "plain"),
    ("cli", "main"): ("cli.main", "plain"),
}

class Tracer:
    """Records spans of hsob calls made while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.request_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # stored spans, one entry per array
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")
        # aggregates over every span, stored or not
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start_ns, child_ns, span index]
        self._quad_depth = 0
        self._eval_depth = 0
        self._jet_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def push(self, name: str, store: bool = True) -> list:
        index = -1
        if store:
            index = len(self.span_name)
            parent = self._stack[-1][3] if self._stack else -1
            self.span_name.append(self._name_id(name))
            self.span_start.append(0)
            self.span_end.append(0)
            self.span_parent.append(parent)
            self.span_request.append(self.request_id)
        frame = [name, 0, 0, index]
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter_ns()
        name, start, child, index = frame
        self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if index >= 0:
            self.span_start[index] = start
            self.span_end[index] = end

    @contextlib.contextmanager
    def request(self, kind: str, request_id: int):
        """Trace one request: a root span, and the tracer active inside it."""
        self.request_id, self.active = request_id, True
        frame = self.push(f"request.{kind}")
        try:
            yield
        finally:
            self.pop(frame)
            self.request_id, self.active = -1, False

    # -- wrappers ---------------------------------------------------------

    def _plain(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.pop(frame)

        return wrapper

    def _route(self, fn, name):
        """kernel_eval: also count which route an ``auto`` request took."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(p, *args, **kwargs):
            if not tracer.active:
                return fn(p, *args, **kwargs)
            closed_before = tracer.calls["kernel.closed"]
            frame = tracer.push(name)
            try:
                return fn(p, *args, **kwargs)
            finally:
                tracer.pop(frame)
                if p.method == "auto":
                    tracer.counts["kernel.auto"] += 1
                    if tracer.calls["kernel.closed"] > closed_before:
                        tracer.counts["kernel.auto_closed"] += 1

        return wrapper

    def _e_n(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(n, x, *args, **kwargs):
            if not tracer.active:
                return fn(n, x, *args, **kwargs)
            tracer.counts["timespace.e_n.points"] += int(np.size(x))
            frame = tracer.push(name)
            try:
                return fn(n, x, *args, **kwargs)
            finally:
                tracer.pop(frame)

        return wrapper

    def _integrand_1d(self, f):
        tracer = self

        def integrand(x):
            # a quadrature called from inside an integrand is an outer call
            depth, tracer._quad_depth = tracer._quad_depth, 0
            frame = tracer.push("quadrature.integrand")
            try:
                y = f(x)
            finally:
                tracer.pop(frame)
                tracer._quad_depth = depth
            tracer.counts["quadrature.nodes"] += int(np.size(x))
            return y

        return integrand

    def _integrand_2d(self, g):
        tracer = self

        def integrand(t, s):
            y = g(t, s)
            tracer.counts["quadrature.square.nodes"] += int(np.broadcast(t, s).size)
            return y

        return integrand

    def _quad(self, fn, name, two_d: bool, error_type):
        """Quadrature entry: wrap the integrand, count subdivisions and failures.

        Only the outermost call counts (calls, subdivisions, failures), so the
        interval rule that ``integrate_halfline`` runs internally is not
        counted as a call of its own; its time still goes to its own span.
        """
        tracer = self
        wrap = self._integrand_2d if two_d else self._integrand_1d

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if not tracer.active:
                return fn(f, *args, **kwargs)
            outer = tracer._quad_depth == 0
            if outer:
                f = wrap(f)
                tracer.counts[f"{name}.calls"] += 1
            tracer._quad_depth += 1
            frame = tracer.push(name)
            try:
                result = fn(f, *args, **kwargs)
            except error_type:
                if outer:
                    tracer.counts["quadrature.failures"] += 1
                raise
            finally:
                tracer.pop(frame)
                tracer._quad_depth -= 1
            if outer and not two_d:
                tracer.counts["quadrature.subdivisions"] += int(result.subdivisions)
            return result

        return wrapper

    def _point(self, fn, name, depth_attr):
        """Top-level SymbolExpr.eval/jet: aggregate; nested node calls pass through."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            depth = getattr(tracer, depth_attr)
            setattr(tracer, depth_attr, depth + 1)
            try:
                if depth:
                    return fn(*args, **kwargs)
                frame = tracer.push(name, store=False)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.pop(frame)
            finally:
                setattr(tracer, depth_attr, depth)

        return wrapper

    def _counter(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every public function, every import binding of it, and the
        evaluation methods listed in the module docstring."""
        import hsob
        from hsob import expfamily, jets, quadrature, symbols

        # not getattr(hsob, name): the package exports a function named cayley
        modules = {name: importlib.import_module(f"hsob.{name}") for name in LAYERS}
        namespaces = [hsob, *modules.values()]
        targets = []
        for layer, module in modules.items():
            names = {*getattr(module, "__all__", ()), *(a for m, a in NAMED if m == layer)}
            for attr in sorted(names):
                fn = module.__dict__.get(attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                span, kind = NAMED.get((layer, attr), (f"{layer}.{attr}", "plain"))
                if kind == "quad1":
                    wrapper = self._quad(fn, span, False, quadrature.QuadratureError)
                elif kind == "quad2":
                    wrapper = self._quad(fn, span, True, quadrature.QuadratureError)
                elif kind == "e_n":
                    wrapper = self._e_n(fn, span)
                elif kind == "route":
                    wrapper = self._route(fn, span)
                else:
                    wrapper = self._plain(fn, span)
                targets.append((fn, wrapper))
        for fn, wrapper in targets:
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._set(ns, attr, wrapper)

        for cls in (expfamily.ExpPoly, expfamily.RationalComb):
            self._set(cls, "__call__", self._plain(cls.__dict__["__call__"], "expfamily.eval"))
        self._set(jets.Jet, "__post_init__",
                  self._counter(jets.Jet.__dict__["__post_init__"], "jets.objects"))
        for cls in (symbols.Var, symbols.Const, symbols.Add, symbols.Sub, symbols.Mul,
                    symbols.Div, symbols.Pow, symbols.Log1p):
            self._set(cls, "eval", self._point(cls.__dict__["eval"], "symbols.eval", "_eval_depth"))
            self._set(cls, "jet", self._point(cls.__dict__["jet"], "jets.jet", "_jet_depth"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, name -> (value, unit)."""
        c, s, t, k = self.calls, self.self_ns, self.total_ns, self.counts

        def sec(*names):
            return sum(s[n] for n in names) * 1e-9

        quad_ns = s["quadrature.interval"] + s["quadrature.halfline"] + t["quadrature.integrand"]
        nodes = k["quadrature.nodes"]
        return {
            "quadrature.interval.calls": (k["quadrature.interval.calls"], "count"),
            "quadrature.halfline.calls": (k["quadrature.halfline.calls"], "count"),
            "quadrature.nodes": (nodes, "count"),
            "quadrature.subdivisions": (k["quadrature.subdivisions"], "count"),
            "quadrature.failures": (k["quadrature.failures"], "count"),
            "quadrature.self_s": (sec("quadrature.interval", "quadrature.halfline"), "s"),
            "quadrature.integrand_s": (t["quadrature.integrand"] * 1e-9, "s"),
            "quadrature.ns_per_node": (quad_ns / nodes if nodes else 0.0, "ns"),
            "quadrature.square.calls": (k["quadrature.square.calls"], "count"),
            "quadrature.square.nodes": (k["quadrature.square.nodes"], "count"),
            "quadrature.square.self_s": (sec("quadrature.square"), "s"),
            "timespace.e_n.calls": (c["timespace.e_n"], "count"),
            "timespace.e_n.points": (k["timespace.e_n.points"], "count"),
            "timespace.e_n.self_s": (sec("timespace.e_n"), "s"),
            "expfamily.eval.calls": (c["expfamily.eval"], "count"),
            "expfamily.eval.self_s": (sec("expfamily.eval"), "s"),
            "expfamily.inner_product.calls": (c["expfamily.inner_product"], "count"),
            "expfamily.inner_product.self_s": (sec("expfamily.inner_product"), "s"),
            "freqspace.hn_norm.calls": (c["freqspace.hn_norm"], "count"),
            "freqspace.hn_norm.self_s": (sec("freqspace.hn_norm"), "s"),
            "cayley.disc_norm.calls": (c["cayley.disc_norm"], "count"),
            "cayley.disc_norm.self_s": (sec("cayley.disc_norm"), "s"),
            "kernel.closed.calls": (c["kernel.closed"], "count"),
            "kernel.closed.self_s": (sec("kernel.closed"), "s"),
            "kernel.quad.calls": (c["kernel.quad"], "count"),
            "kernel.quad.self_s": (sec("kernel.quad"), "s"),
            "kernel.diag.calls": (c["kernel.diag"], "count"),
            "kernel.diag.self_s": (sec("kernel.diag"), "s"),
            "kernel.gram.calls": (c["kernel.gram"], "count"),
            "kernel.gram.self_s": (sec("kernel.gram"), "s"),
            "kernel.closed_share": (
                k["kernel.auto_closed"] / k["kernel.auto"] if k["kernel.auto"] else 0.0, "1"),
            "jets.objects": (k["jets.objects"], "count"),
            "jets.jet.calls": (c["jets.jet"], "count"),
            "jets.jet.self_s": (sec("jets.jet"), "s"),
            "symbols.points": (c["symbols.eval"] + c["jets.jet"], "count"),
            "symbols.supremum.self_s": (sec("symbols.supremum"), "s"),
            "symbols.classify.calls": (c["symbols.classify"], "count"),
            "symbols.jury_eig.calls": (c["symbols.jury_eig"], "count"),
            "symbols.jury_m.calls": (c["symbols.jury_m"], "count"),
            "symbols.jury_eig_per_m": (
                c["symbols.jury_eig"] / c["symbols.jury_m"] if c["symbols.jury_m"] else 0.0,
                "count"),
            "symbols.jury.self_s": (sec("symbols.jury_eig", "symbols.jury_m"), "s"),
            "cli.calls": (c["cli.main"], "count"),
            "cli.self_s": (sec("cli.main"), "s"),
            "cli.out_bytes": (k["cli.out_bytes"], "B"),
        }

    def write_spans(self, path) -> int:
        """Write the stored spans as gzipped CSV; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,request\n")
            for i, nid in enumerate(self.span_name):
                fh.write(f"{i},{self.names[nid]},{self.span_start[i]},{self.span_end[i]},"
                         f"{self.span_parent[i]},{self.span_request[i]}\n")
        return len(self.span_name)
