"""Benchmark workloads: scenario configs generated from a seed, and the
outcome every run of them must reproduce.

Seed 0 gives the stock configs key for key. Any other seed adds small
sin(2r) and sin(3r) terms to the initial graph. Only odd terms are added,
so the data keeps the symmetry (r, x) -> (-r, -x) of the stock graphs and
every flow still ends at the same limit circle for the same reason; the
step counts move by a few steps in tens of thousands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

# amplitude bound of the seeded sin(2r), sin(3r) terms
PERTURBATION = 3e-3

# layers every workload reaches; a wrapped layer with zero calls on a
# workload that must reach it is a failed run, not a zero
COMMON_LAYERS = frozenset({
    "spectral.diff12", "curves.compute_fields", "flow.step_rk4", "flow.run",
    "verification.theta_bound_monitor", "verification.dissipation_monitor",
    "artifacts.write_report", "artifacts.write_trajectory_csv",
})


@dataclass(frozen=True)
class Workload:
    """One scenario and what its run must reproduce on every seed.

    length_final is the seed-0 value of report.txt `flow.length_final`; a
    run passes when it lies within length_tol of it. limit_base_point is
    checked by circular distance within limit_tol.
    """

    name: str
    why: str
    keys: tuple            # (key, value) config lines at seed 0
    init_sin: tuple        # init.sin coefficients at seed 0
    exit_code: int
    stop_reason: str
    length_final: float
    length_tol: float
    limit_base_point: float
    limit_tol: float
    reaches: frozenset

    def config(self, seed: int) -> str:
        """The .cfg text the program sees for this seed."""
        init_sin = list(self.init_sin)
        if seed:
            rng = random.Random(seed)
            init_sin += [PERTURBATION * rng.uniform(-1.0, 1.0)
                         for _ in range(2)]
        lines = [f"{k} = {v}" for k, v in self.keys]
        lines.append("init.sin = " + ", ".join(repr(c) for c in init_sin))
        return "\n".join(lines) + "\n"


def _smoke(w: Workload, t_max: float, length_final: float) -> Workload:
    # the same scenario cut at a short horizon, for the smoke test
    keys = tuple(kv for kv in w.keys if kv[0] != "time.t_max")
    return replace(w, name=f"{w.name}.smoke",
                   keys=keys + (("time.t_max", repr(t_max)),),
                   stop_reason="max_time", length_final=length_final,
                   length_tol=2e-3)


_VERIFY_ALL = tuple((f"verify.{k}", "on") for k in
                    ("bounds", "dissipation", "evolution", "commutator",
                     "gradient"))

_FULL = (
    Workload(
        name="left_warped",
        why="flow-bound: 41k RK4 steps with the warp evaluated at moving "
            "nodes on every RHS call; shows integrator and warp-evaluation "
            "changes",
        keys=(("scenario.name", "left_warped"), ("manifold.kind", "left"),
              ("warp.exp_cos", "0.3"), ("grid.m", "128"),
              ("record.stride", "100")),
        init_sin=(0.0, 0.3),
        exit_code=0, stop_reason="converged",
        length_final=8.481413026537016, length_tol=1e-8,
        limit_base_point=0.0, limit_tol=1e-6,
        reaches=COMMON_LAYERS | {"fourier.values_with_derivative"}),
    Workload(
        name="right_warped",
        why="warp samples cached per grid, so spectral cost and step "
            "overhead dominate; bypasses warp-evaluation changes",
        keys=(("scenario.name", "right_warped"), ("manifold.kind", "right"),
              ("warp.exp_cos", "0.2"), ("grid.m", "128"),
              ("record.stride", "100")),
        init_sin=(0.0, 0.3),
        exit_code=0, stop_reason="converged",
        length_final=6.283185307181116, length_tol=1e-8,
        limit_base_point=0.0, limit_tol=1e-6,
        reaches=COMMON_LAYERS),
    Workload(
        name="product_record",
        why="about 1,100 recorded states with SVG on: writers, monitors and "
            "retained trajectories weigh most; shows recording and CSV "
            "changes",
        keys=(("scenario.name", "product"), ("manifold.kind", "left"),
              ("grid.m", "128"), ("record.stride", "20"),
              ("output.svg", "on")),
        init_sin=(0.0, 0.5),
        exit_code=0, stop_reason="converged",
        length_final=6.283185307181157, length_tol=1e-8,
        limit_base_point=0.0, limit_tol=1e-6,
        reaches=COMMON_LAYERS | {"fourier.values_with_derivative",
                                 "artifacts.write_svg"}),
    Workload(
        name="curved_verify",
        why="curved base under `wcsf verify`: the only one reaching the "
            "general curvature kernel, geometry.frame and the 64/128/256 "
            "refinement studies",
        keys=(("scenario.name", "curved_verify"), ("manifold.kind", "left"),
              ("warp.exp_cos", "0.3"), ("base.g11.cos", "1.0, 0.2"),
              ("grid.m", "128"), ("time.t_max", "2")) + _VERIFY_ALL,
        init_sin=(0.0, 0.3),
        exit_code=0, stop_reason="max_time",
        length_final=8.501984023384493, length_tol=1e-4,
        limit_base_point=0.0, limit_tol=1e-6,
        reaches=COMMON_LAYERS | {"spectral.diff", "geometry.frame",
                                 "verification.studies"}),
)

# benchmarked workloads, in BENCHMARK.json order
WORKLOADS = {w.name: w for w in _FULL}

# short-horizon variants, run by `suite.py --smoke` only
SMOKE = {w.name: w for w in (
    _smoke(WORKLOADS["left_warped"], 0.5, 8.518300412608165),
    _smoke(WORKLOADS["right_warped"], 0.5, 6.3365132992995745),
    _smoke(WORKLOADS["product_record"], 0.5, 6.430566277592771),
    _smoke(WORKLOADS["curved_verify"], 0.5, 8.531764806640524),
)}
