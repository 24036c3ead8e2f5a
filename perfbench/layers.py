"""Per-layer tracing done from outside the program.

Every public layer function is replaced, at the name its caller looks it
up by, with a wrapper that counts calls and times the span. Spans nest
through a stack, so a layer's self time is its inclusive time minus the
time of the wrapped layers it called. Only aggregates are kept in memory
(calls, inclusive and child seconds per layer); nothing in the program's
source changes.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# (layer, module, attribute) for every lookup site of a layer function
SITES = (
    ("fourier.values_with_derivative", "wcsf.fourier",
     "FourierField.values_with_derivative"),
    ("spectral.diff12", "wcsf.spectral", "diff12"),
    ("spectral.diff", "wcsf.spectral", "diff"),
    ("curves.compute_fields", "wcsf.flow", "compute_fields"),
    ("curves.compute_fields", "wcsf.verification", "compute_fields"),
    ("curves.compute_fields", "wcsf.curves", "compute_fields"),
    ("geometry.frame", "wcsf.geometry", "WarpedProduct.frame"),
    ("flow.step_rk4", "wcsf.flow", "step_rk4"),
    ("flow.run", "wcsf.cli", "run"),
    ("flow.run", "wcsf.verification", "run"),
    ("verification.theta_bound_monitor", "wcsf.verification",
     "theta_bound_monitor"),
    ("verification.dissipation_monitor", "wcsf.verification",
     "dissipation_monitor"),
    ("verification.studies", "wcsf.verification", "evolution_residual_study"),
    ("verification.studies", "wcsf.verification",
     "dissipation_residual_study"),
    ("verification.studies", "wcsf.verification", "commutator_residual_study"),
    ("verification.studies", "wcsf.verification", "gradient_identity_study"),
    ("artifacts.write_trajectory_csv", "wcsf.cli", "write_trajectory_csv"),
    ("artifacts.write_report", "wcsf.cli", "write_report"),
    ("artifacts.write_svg", "wcsf.cli", "write_svg"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SITES))


def _resolve(module: str, attr: str):
    """(owner, name, function) for a dotted attribute, or None if the
    program no longer has it; the layer then records zero calls."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, name, None) if owner is not None else None
    return None if fn is None else (owner, name, fn)


class Tracer:
    """Aggregated spans for every layer in SITES.

    rhs counts curve-field kernel calls made inside a flow: "main" for the
    scenario's own flow, "study" for flows run by the refinement studies.
    """

    def __init__(self):
        # layer -> [calls, inclusive s, s spent in wrapped children]
        self.stats = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        self.rhs = Counter()
        self._stack = []
        # open spans per layer; a plain dict, so lookups stay in C
        self._active = dict.fromkeys(LAYERS, 0)

    def install(self) -> None:
        for layer, module, attr in SITES:
            site = _resolve(module, attr)
            if site is not None:
                owner, name, fn = site
                setattr(owner, name, self._wrap(layer, fn))

    def _wrap(self, layer, fn):
        stats = self.stats[layer]
        stack = self._stack
        active = self._active
        is_kernel = layer == "curves.compute_fields"

        def traced(*args, **kwargs):
            if is_kernel and active["flow.run"]:
                self.rhs["study" if active["verification.studies"]
                         else "main"] += 1
            frame = [0.0]
            stack.append(frame)
            active[layer] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                active[layer] -= 1
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += frame[0]
                if stack:
                    stack[-1][0] += dt

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict:
        out = {}
        for layer, (calls, total, child) in self.stats.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.s"] = total
            out[f"{layer}.self_s"] = total - child
        out["verification.study_rhs_evals"] = self.rhs["study"]
        return out


def count_main_rhs() -> Counter:
    """Untimed counter of kernel calls inside the scenario's own flow.

    Used with tracing off: two plain wrappers without timers, small next
    to the 60-270 us the kernel itself takes per call.
    """
    import wcsf.cli
    import wcsf.flow

    counts = Counter()
    run = wcsf.cli.run
    kernel = wcsf.flow.compute_fields

    def main_run(*args, **kwargs):
        counts["in_main"] += 1
        try:
            return run(*args, **kwargs)
        finally:
            counts["in_main"] -= 1

    def counted_kernel(*args, **kwargs):
        if counts["in_main"]:
            counts["main"] += 1
        return kernel(*args, **kwargs)

    wcsf.cli.run = main_run
    wcsf.flow.compute_fields = counted_kernel
    return counts
