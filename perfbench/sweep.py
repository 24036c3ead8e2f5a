"""Per-call kernel sweep across grid sizes, after warm-up.

Times spectral.diff12, curves.compute_fields and flow.step_rk4 at
m in {64, 128, 256, 512} on the stock left and right manifolds. The range
crosses the switch from the dense differentiation matrix to the rfft route
above m = 256.
"""

from __future__ import annotations

import statistics
from time import perf_counter

GRIDS = (64, 128, 256, 512)
SIDES = ("left", "right")
_BATCH_S = 0.02
_BATCHES = 5


def metric_names() -> list:
    names = [f"spectral.diff12.us.m{m}" for m in GRIDS]
    for kernel in ("curves.compute_fields", "flow.step_rk4"):
        names += [f"{kernel}.us.{side}.m{m}" for side in SIDES for m in GRIDS]
    return names


def _per_call_us(fn) -> float:
    # warm up for one batch length, size batches to about _BATCH_S, and
    # report the median batch time per call
    calls = 0
    t0 = perf_counter()
    while perf_counter() - t0 < _BATCH_S:
        fn()
        calls += 1
    batches = []
    for _ in range(_BATCHES):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        batches.append((perf_counter() - t0) / calls)
    return statistics.median(batches) * 1e6


def sweep() -> dict:
    from wcsf import (LEFT, RIGHT, FlowState, FourierField, WarpedProduct,
                      adaptive_dt, compute_fields, make_graph_curve, spectral,
                      step_rk4)

    manifolds = {
        "left": WarpedProduct(LEFT, warp=FourierField.exp_cos(0.3)),
        "right": WarpedProduct(RIGHT, warp=FourierField.exp_cos(0.2)),
    }
    init = FourierField([0.0], [0.0, 0.3])
    out = {}
    for m in GRIDS:
        curve = make_graph_curve(init, m)
        heights = curve.coords[:, 1].copy()
        out[f"spectral.diff12.us.m{m}"] = _per_call_us(
            lambda: spectral.diff12(heights))
        for side, manifold in manifolds.items():
            state = FlowState(curve, 0.0, compute_fields(curve, manifold))
            dt = adaptive_dt(state, 0.25)
            out[f"curves.compute_fields.us.{side}.m{m}"] = _per_call_us(
                lambda: compute_fields(curve, manifold))
            out[f"flow.step_rk4.us.{side}.m{m}"] = _per_call_us(
                lambda: step_rk4(state, manifold, dt))
    return out
