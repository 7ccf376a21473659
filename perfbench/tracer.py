"""Per-layer tracing of zigzagspec from outside the package.

The tracer replaces functions with recording wrappers at every name a loaded
``zigzagspec`` module binds them to.  Modules copy functions into their own
namespace at import (``charfn``, ``rootfinder`` and ``operator`` all bind
``integrate_finite`` and ``erfcx_complex`` that way), so patching the
defining module alone would record nothing.  Methods are patched on their
class.

Every wrapper records a span (name, parent, start, end) in memory.  A span's
self time is its duration minus the durations of its direct children; since
the package is single-threaded, children nest strictly inside their parent.
Integrands handed to the quadrature layer are wrapped too and recorded as
``<caller>.integrand``, so the quadrature layer's self time is the
integrator's own work, and psi integrals nested inside contour integrals
(beta potentials) are charged to charfn, not to the rootfinder.

Some counters depend on private names (``rootfinder._solve`` counts boxes).
When a hook's target is gone, the hook is listed in ``missing`` and every
metric built on it reports -1 instead of a number, rather than crashing.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import sys
import time

import numpy as np

MISSING = -1.0

# names whose counts are also kept separately inside compute_spectrum calls
_SPECTRUM_SCOPED = ("quadrature.panels", "specialfn.erfcx_calls")


def _size(x):
    return int(np.size(x))


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counts = collections.Counter()
        self.missing = []
        self.active = False
        self._stack = [-1]
        self._undo = []
        self._spectrum_depth = 0

    # ------------------------------------------------------------------ spans

    def _begin(self, name):
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _end(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name, n=1):
        self.counts[name] += n
        if self._spectrum_depth and name in _SPECTRUM_SCOPED:
            self.counts["spectrum." + name.split(".", 1)[1]] += n

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block are neither timed nor counted."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _spanned(self, fn, name, before=None, after=None, scoped=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            tracer._spectrum_depth += scoped
            idx = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
                tracer._spectrum_depth -= scoped
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def wrap_callable(self, fn, name=None, counter=None, rows=False):
        """Wrap a callable passed into the package (an integrand or a
        root-finding target): a span when named, and counts of the points
        it is called on or, for integrands, of panels and panel rows."""
        tracer = self

        def wrapped(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name is None:
                out = fn(*args, **kwargs)
            else:
                idx = tracer._begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._end(idx)
            if counter is not None:
                tracer.count(counter, _size(args[0]))
            if rows:
                tracer.count("quadrature.panels")
                shape = np.shape(out)
                tracer.count("quadrature.panel_rows", shape[0] if len(shape) == 2 else 1)
            return out

        return wrapped

    # ------------------------------------------------------------ installation

    def hook(self, module, attr, before=None, after=None, span=True, scoped=False):
        """Wrap module.attr at every zigzagspec namespace that binds it.

        ``before(caller, args, kwargs)`` may rewrite the arguments; caller is
        the short name of the module whose namespace the call went through.
        """
        key = f"{module}.{attr}"
        mod = sys.modules.get(f"zigzagspec.{module}")
        target = getattr(mod, attr, None) if mod is not None else None
        if target is None:
            self.missing.append(key)
            return
        for mname, m in list(sys.modules.items()):
            if not (mname == "zigzagspec" or mname.startswith("zigzagspec.")):
                continue
            ns = vars(m)
            for name, value in list(ns.items()):
                if value is not target:
                    continue
                caller = mname.rsplit(".", 1)[-1]
                ns[name] = self._wrapper(target, key, caller, before, after, span, scoped)
                self._undo.append((ns, name, target))

    def hook_method(self, module, cls_name, attr, before=None, after=None, span=True):
        """Wrap a method on its class (every instance looks it up there)."""
        key = f"{module}.{cls_name}.{attr}"
        mod = sys.modules.get(f"zigzagspec.{module}")
        cls = getattr(mod, cls_name, None) if mod is not None else None
        target = cls.__dict__.get(attr) if cls is not None else None
        if target is None:
            self.missing.append(key)
            return
        setattr(cls, attr, self._wrapper(target, key, module, before, after, span, False))
        self._undo.append((cls, attr, target))

    def _wrapper(self, fn, key, caller, before, after, span, scoped):
        pre = None if before is None else functools.partial(_call_before, before, caller)
        if span:
            return self._spanned(fn, key, pre, after, scoped)
        return self._counted(fn, pre)

    def _counted(self, fn, before):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                before(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()

    # ----------------------------------------------------------------- results

    def span_table(self):
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.starts)
        dur = np.asarray(self.ends[:n]) - np.asarray(self.starts[:n])
        parents = np.asarray(self.parents[:n], dtype=np.int64)
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        selfs = dur - child
        table = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for name, d, s in zip(self.names, dur.tolist(), selfs.tolist()):
            row = table[name]
            row[0] += 1
            row[1] += d
            row[2] += s
        return table

    def write_spans(self, path):
        """Write every span as CSV: id, parent, name, start_s, end_s."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, parent, s, e) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{i},{parent},{name},{s - t0:.9f},{e - t0:.9f}\n")


def _call_before(before, caller, args, kwargs):
    out = before(caller, args, kwargs)
    return (args, kwargs) if out is None else out


# ---------------------------------------------------------------------------
# the layers of zigzagspec and what is counted at each boundary


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _with_arg(args, kwargs, pos, name, value):
    if name in kwargs or len(args) <= pos:
        return args, {**kwargs, name: value}
    return args[:pos] + (value,) + args[pos + 1 :], kwargs


def install(tr):
    """Hook every layer boundary the per-layer metrics are built from."""

    def counting(name, size_of=None):
        def before(caller, args, kwargs):
            tr.count(name, 1 if size_of is None else _size(_arg(args, kwargs, *size_of)))

        return before

    # specialfn
    def erfcx_before(caller, args, kwargs):
        tr.count("specialfn.erfcx_calls")
        tr.count("specialfn.erfcx_points", _size(_arg(args, kwargs, 0, "z")))

    tr.hook("specialfn", "erfcx_complex", erfcx_before)

    # quadrature: integrands are wrapped so panels are counted where made
    def integrate_before(caller, args, kwargs):
        tr.count("quadrature.integrate_calls")
        if caller == "rootfinder":
            tr.count("rootfinder.edge_integrals")
        f = tr.wrap_callable(_arg(args, kwargs, 0, "f"), f"{caller}.integrand", rows=True)
        return _with_arg(args, kwargs, 0, "f", f)

    def cells_before(caller, args, kwargs):
        tr.count("quadrature.gk_cells", max(_size(_arg(args, kwargs, 1, "edges")) - 1, 0))
        f = tr.wrap_callable(_arg(args, kwargs, 0, "f"), f"{caller}.integrand")
        return _with_arg(args, kwargs, 0, "f", f)

    tr.hook("quadrature", "integrate_finite", integrate_before)
    tr.hook("quadrature", "gk_cells", cells_before)
    tr.hook("quadrature", "truncation_radius")

    # charfn
    def psi_batch_before(caller, args, kwargs):
        n = _size(_arg(args, kwargs, 2, "gammas"))
        tr.count("charfn.psi_batch_calls")
        tr.count("charfn.psi_batch_gammas", n)
        tr.count("charfn.psi_points", n)

    def memo_lookup(handle, gammas):
        memo = getattr(handle, "_memo", None)
        if not isinstance(memo, dict):
            if "charfn.CharFunctionHandle._memo" not in tr.missing:
                tr.missing.append("charfn.CharFunctionHandle._memo")
            return
        tr.count("charfn.memo_lookups", len(gammas))
        tr.count("charfn.memo_hits", sum(complex(z) in memo for z in gammas))

    def values_batch_before(caller, args, kwargs):
        g = np.atleast_1d(np.asarray(_arg(args, kwargs, 1, "gammas"), dtype=complex))
        tr.count("charfn.gammas_requested", g.size)
        if getattr(args[0], "backend", None) != "gaussian-closed-form":
            memo_lookup(args[0], g.tolist())

    def values_before(caller, args, kwargs):
        tr.count("charfn.gammas_requested")
        memo_lookup(args[0], [args[1]])

    tr.hook("charfn", "psi_batch", psi_batch_before)
    tr.hook("charfn", "_psi_quadrature", counting("charfn.psi_points"))
    tr.hook("charfn", "gaussian_closed_form_psi", counting("charfn.psi_points", size_of=(0, "gamma")))
    tr.hook("charfn", "gaussian_closed_form_dpsi")
    for name in ("z_value_batch", "z_log_derivative_batch"):
        tr.hook("charfn", name)
    tr.hook_method("charfn", "CharFunctionHandle", "values_batch", values_batch_before)
    tr.hook_method("charfn", "CharFunctionHandle", "_values", values_before)

    # rootfinder
    def locate_before(caller, args, kwargs):
        f = tr.wrap_callable(_arg(args, kwargs, 0, "f"), counter="rootfinder.f_points")
        ld = tr.wrap_callable(_arg(args, kwargs, 1, "logderiv"), counter="rootfinder.logderiv_points")
        args, kwargs = _with_arg(args, kwargs, 0, "f", f)
        return _with_arg(args, kwargs, 1, "logderiv", ld)

    def newton_before(caller, args, kwargs):
        ld = tr.wrap_callable(_arg(args, kwargs, 0, "logderiv"), counter="rootfinder.newton_steps")
        return _with_arg(args, kwargs, 0, "logderiv", ld)

    def located(result, args, kwargs):
        tr.count("rootfinder.roots", len(result.roots))

    tr.hook("rootfinder", "locate_zeros", locate_before, located)
    tr.hook("rootfinder", "newton_polish", newton_before)
    tr.hook("rootfinder", "_solve", counting("rootfinder.boxes"), span=False)
    tr.hook("rootfinder", "_dilated", counting("rootfinder.dilations"), span=False)

    # spectrum
    def spectrum_done(result, args, kwargs):
        tr.count("spectrum.eigenvalues", len(result.eigenvalues))

    tr.hook("spectrum", "compute_spectrum", after=spectrum_done, scoped=True)
    tr.hook("spectrum", "auto_region")

    # operator and perturbation
    def tilde_before(caller, args, kwargs):
        tr.count("operator.psi_tilde_calls")
        tr.count("operator.psi_tilde_points", _size(_arg(args, kwargs, 2, "x")))

    tr.hook("operator", "psi_tilde", tilde_before)
    tr.hook("operator", "inner_product_mu", counting("operator.inner_products"))
    tr.hook("operator", "inner_product_nu", counting("operator.inner_products"))
    for name in ("eigenfunction", "eigenfunction_table", "apply_resolvent", "spectral_projection", "grid_radius"):
        tr.hook("operator", name)
    tr.hook("perturbation", "perturbed_spectrum")
    tr.hook("perturbation", "refreshment_coefficient", counting("perturbation.coefficients"))
    tr.hook("perturbation", "refreshment_coefficient_symmetric", counting("perturbation.coefficients"))

    # simulator and potential: scalar dU calls are the thinning sampler's cost
    marks = {}

    def simulate_before(caller, args, kwargs):
        marks["dU"] = tr.counts["potential.dU_scalar_calls"]

    def simulated(path, args, kwargs):
        tr.count("simulator.events", path.n_events)
        scalar = tr.counts["potential.dU_scalar_calls"] - marks.pop("dU", 0)
        if scalar:
            tr.count("simulator.thinning_events", path.n_events)
            tr.count("simulator.thinning_dU_calls", scalar)

    def du_before(caller, args, kwargs):
        x = _arg(args, kwargs, 1, "x")
        tr.count("potential.dU_calls")
        tr.count("potential.dU_points", _size(x))
        if np.ndim(x) == 0:
            tr.count("potential.dU_scalar_calls")

    tr.hook("simulator", "simulate", simulate_before, simulated)
    tr.hook("simulator", "autocorrelation", counting("simulator.acf_lags", size_of=(2, "lags")))
    tr.hook("simulator", "empirical_marginal")
    tr.hook("simulator", "envelope_decay_rate")
    tr.hook_method("potential", "PotentialModel", "dU", du_before, span=False)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, overhead_s, probe_failures):
    """Every per-layer metric as {name: (value, unit)}; -1 where a hook is missing."""
    table = tr.span_table()
    c = tr.counts

    def total(*names):
        return sum(table[n][1] for n in names if n in table)

    def self_of(*names):
        return sum(table[n][2] for n in names if n in table)

    def layer_self(layer):
        return sum(row[2] for name, row in table.items() if name.split(".", 1)[0] == layer)

    quad_self = layer_self("quadrature")
    psi_spans = (
        "charfn.psi_batch",
        "charfn._psi_quadrature",
        "charfn.gaussian_closed_form_psi",
        "charfn.gaussian_closed_form_dpsi",
    )
    erfcx = ("specialfn.erfcx_complex",)
    integrate = ("quadrature.integrate_finite",)
    handle = ("charfn.CharFunctionHandle.values_batch", "charfn.CharFunctionHandle._values")
    locate = ("rootfinder.locate_zeros",)
    spectrum = ("spectrum.compute_spectrum",)
    coeff = ("perturbation.refreshment_coefficient", "perturbation.refreshment_coefficient_symmetric")
    simulate = ("simulator.simulate",)
    du = ("potential.PotentialModel.dU",)
    acf = ("simulator.autocorrelation",)
    # (name, unit, hooks it rests on, value)
    rows = [
        ("specialfn.erfcx_calls", "count", erfcx, c["specialfn.erfcx_calls"]),
        ("specialfn.erfcx_points", "count", erfcx, c["specialfn.erfcx_points"]),
        ("specialfn.erfcx_self_s", "s", erfcx, self_of(*erfcx)),
        ("quadrature.integrate_calls", "count", integrate, c["quadrature.integrate_calls"]),
        ("quadrature.panels", "count", integrate, c["quadrature.panels"]),
        ("quadrature.panel_rows", "count", integrate, c["quadrature.panel_rows"]),
        ("quadrature.gk_cells", "count", ("quadrature.gk_cells",), c["quadrature.gk_cells"]),
        ("quadrature.self_s", "s", integrate, quad_self),
        ("quadrature.panels_per_s", "1/s", integrate, _ratio(c["quadrature.panels"], quad_self)),
        ("charfn.gammas_requested", "count", handle, c["charfn.gammas_requested"]),
        (
            "charfn.memo_hit_ratio",
            "ratio",
            handle + ("charfn.CharFunctionHandle._memo",),
            _ratio(c["charfn.memo_hits"], c["charfn.memo_lookups"]),
        ),
        ("charfn.psi_batch_calls", "count", ("charfn.psi_batch",), c["charfn.psi_batch_calls"]),
        (
            "charfn.psi_batch_width",
            "count",
            ("charfn.psi_batch",),
            _ratio(c["charfn.psi_batch_gammas"], c["charfn.psi_batch_calls"]),
        ),
        ("charfn.psi_per_s", "1/s", psi_spans, _ratio(c["charfn.psi_points"], total(*psi_spans))),
        ("charfn.self_s", "s", handle, layer_self("charfn")),
        ("rootfinder.boxes", "count", ("rootfinder._solve",), c["rootfinder.boxes"]),
        ("rootfinder.edge_integrals", "count", integrate, c["rootfinder.edge_integrals"]),
        ("rootfinder.f_points", "count", locate, c["rootfinder.f_points"]),
        ("rootfinder.logderiv_points", "count", locate, c["rootfinder.logderiv_points"]),
        ("rootfinder.newton_steps", "count", ("rootfinder.newton_polish",), c["rootfinder.newton_steps"]),
        ("rootfinder.dilations", "count", ("rootfinder._dilated",), c["rootfinder.dilations"]),
        (
            "rootfinder.boxes_per_root",
            "ratio",
            locate + ("rootfinder._solve",),
            _ratio(c["rootfinder.boxes"], c["rootfinder.roots"]),
        ),
        ("rootfinder.self_s", "s", locate, layer_self("rootfinder")),
        ("spectrum.auto_region_s", "s", ("spectrum.auto_region",), total("spectrum.auto_region")),
        ("spectrum.eigenvalues", "count", spectrum, c["spectrum.eigenvalues"]),
        ("spectrum.panels", "count", spectrum + integrate, c["spectrum.panels"]),
        ("spectrum.erfcx_calls", "count", spectrum + erfcx, c["spectrum.erfcx_calls"]),
        ("spectrum.default_region_failures", "count", (), probe_failures),
        ("operator.psi_tilde_calls", "count", ("operator.psi_tilde",), c["operator.psi_tilde_calls"]),
        ("operator.psi_tilde_points", "count", ("operator.psi_tilde",), c["operator.psi_tilde_points"]),
        (
            "operator.inner_products",
            "count",
            ("operator.inner_product_mu", "operator.inner_product_nu"),
            c["operator.inner_products"],
        ),
        (
            "operator.resolvent_self_s",
            "s",
            ("operator.apply_resolvent",),
            self_of("operator.apply_resolvent"),
        ),
        ("operator.self_s", "s", ("operator.psi_tilde",), layer_self("operator")),
        ("perturbation.coefficients", "count", coeff, c["perturbation.coefficients"]),
        (
            "perturbation.s_per_coefficient",
            "s",
            coeff,
            _ratio(total(*coeff), c["perturbation.coefficients"]),
        ),
        ("simulator.events", "count", simulate, c["simulator.events"]),
        ("simulator.events_per_s", "1/s", simulate, _ratio(c["simulator.events"], total(*simulate))),
        ("potential.dU_calls", "count", du, c["potential.dU_calls"]),
        ("potential.dU_points", "count", du, c["potential.dU_points"]),
        (
            "simulator.accept_ratio",
            "ratio",
            simulate + du,
            _ratio(c["simulator.thinning_events"], c["simulator.thinning_dU_calls"]),
        ),
        ("simulator.acf_lags", "count", acf, c["simulator.acf_lags"]),
        ("simulator.s_per_lag", "s", acf, _ratio(total(*acf), c["simulator.acf_lags"])),
        ("simulator.sample_self_s", "s", simulate, self_of(*simulate)),
        ("trace.overhead_s", "s", (), overhead_s),
    ]
    out = {}
    for name, unit, hooks, value in rows:
        gone = any(h in tr.missing for h in hooks)
        out[name] = (MISSING if gone else float(value), unit)
    return out
