"""Tracing from outside the program: rebinding its public functions.

:func:`install` wraps each function in :data:`TRACED` and rebinds every
name under which a ``levy_emm`` module holds it, so calls made through
``from .triplets import cumulant`` are caught as well.  A wrapper records
one span per call.  ``scipy.integrate.quad`` is wrapped together with the
integrand it is handed, which counts integrand evaluations, and
``brentq`` is wrapped where ``mgf_analysis`` and ``esscher`` bind it,
which counts its function evaluations.  ``sample_terminal`` records its
spans under ``.plain`` or ``.recorded`` by whether jump records are kept.  Spans stay in memory until
:meth:`Tracer.spans` hands them over.
"""

from __future__ import annotations

import functools
import sys
import time

# metric prefix -> (module, function)
TRACED = {
    "cli.main": ("levy_emm.cli", "main"),
    "modelspec.load_model": ("levy_emm.modelspec", "load_model"),
    "quadrature.two_sided_integral": ("levy_emm.levy_core.quadrature",
                                      "two_sided_integral"),
    "triplets.cumulant": ("levy_emm.levy_core.triplets", "cumulant"),
    "triplets.cumulant_derivative": ("levy_emm.levy_core.triplets",
                                     "cumulant_derivative"),
    "triplets.is_monotone": ("levy_emm.levy_core.triplets", "is_monotone"),
    "triplets.geometric_to_linear": ("levy_emm.levy_core.triplets",
                                     "geometric_to_linear"),
    "triplets.linear_to_geometric": ("levy_emm.levy_core.triplets",
                                     "linear_to_geometric"),
    "mgf_analysis.exp_moment_interval": ("levy_emm.mgf_analysis",
                                         "exp_moment_interval"),
    "mgf_analysis.minimize_mgf": ("levy_emm.mgf_analysis", "minimize_mgf"),
    "esscher.solve_linear_emm": ("levy_emm.esscher", "solve_linear_emm"),
    "esscher.solve_geometric_emm": ("levy_emm.esscher",
                                    "solve_geometric_emm"),
    "approximation.approx_sequence": ("levy_emm.approximation",
                                      "approx_sequence"),
    "approximation.perturbed_triplet": ("levy_emm.approximation",
                                        "perturbed_triplet"),
    "mc_oracle.pathwise_log_zn": ("levy_emm.mc_oracle", "pathwise_log_zn"),
    "mc_oracle.martingale_defect": ("levy_emm.mc_oracle",
                                    "martingale_defect"),
    "mc_oracle.entropy_estimate": ("levy_emm.mc_oracle", "entropy_estimate"),
}


class Tracer:
    """Span recorder and counters for one traced process."""

    def __init__(self) -> None:
        self._spans = []
        self._open = []
        self.counts = {"quadrature.integrand_evals": 0,
                       "mgf_analysis.brentq.fevals": 0,
                       "esscher.brentq.fevals": 0,
                       "mc_oracle.sample_terminal.samples": 0}

    def spans(self) -> list:
        return self._spans

    def wrap(self, name: str, fn, before=None):
        """``fn`` recording a span named ``name``; ``before`` may rewrite
        the call's arguments (to count work) and returns them."""
        spans, open_ = self._spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def counting(self, key: str, f):
        counts = self.counts

        @functools.wraps(f)
        def counted(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)

        return counted


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("levy_emm"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap the program's layers; call after importing ``levy_emm.cli``."""
    import importlib

    import scipy.integrate

    tracer = Tracer()
    for name, (module_name, fn_name) in TRACED.items():
        original = getattr(importlib.import_module(module_name), fn_name)
        _rebind(original, tracer.wrap(name, original))

    # sampling with and without jump records gets a span name of its own
    from levy_emm import mc_oracle

    sample = mc_oracle.sample_terminal
    plain = tracer.wrap("mc_oracle.sample_terminal.plain", sample)
    recorded = tracer.wrap("mc_oracle.sample_terminal.recorded", sample)

    @functools.wraps(sample)
    def sample_terminal(t, cfg, *args, **kwargs):
        tracer.counts["mc_oracle.sample_terminal.samples"] += int(cfg.n_samples)
        chosen = recorded if cfg.record_jumps else plain
        return chosen(t, cfg, *args, **kwargs)

    _rebind(sample, sample_terminal)

    def count_integrand(args, kwargs):
        return ((tracer.counting("quadrature.integrand_evals", args[0]),)
                + tuple(args[1:]), kwargs)

    quad = scipy.integrate.quad
    traced_quad = tracer.wrap("quadrature.quad", quad, count_integrand)
    scipy.integrate.quad = traced_quad
    _rebind(quad, traced_quad)

    for module_name, key in (("levy_emm.mgf_analysis",
                              "mgf_analysis.brentq.fevals"),
                             ("levy_emm.esscher", "esscher.brentq.fevals")):
        module = importlib.import_module(module_name)
        brentq = module.brentq

        def count_fevals(args, kwargs, key=key):
            return (tracer.counting(key, args[0]),) + tuple(args[1:]), kwargs

        module.brentq = tracer.wrap(key.rsplit(".", 1)[0], brentq,
                                    count_fevals)
    return tracer
