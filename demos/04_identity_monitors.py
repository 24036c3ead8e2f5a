"""Verification machinery: residual studies and inequality monitors.

Every evolution identity the flow satisfies in the continuum leaves a
discretization residual. A residual that shrinks at the expected order
under simultaneous grid and step refinement is evidence the identity is
implemented correctly on both sides; a residual that plateaus or grows
points at a defect. This script runs the studies at small sizes so it
finishes in seconds, then shows what the inequality monitors report.
"""

import numpy as np

import wcsf

GRIDS = (32, 64, 128)
T_END = 0.08


def show(label: str, study: wcsf.ResidualReport) -> None:
    cells = ", ".join(f"{r:.3e}" for r in study.max_residuals)
    orders = ", ".join(f"{o:.2f}" for o in study.orders)
    print(f"{label:14s} {study.name:18s} residuals [{cells}]")
    print(f"{'':14s} {'':18s} orders [{orders}] "
          f"(threshold {study.threshold}, passed {study.passed})")


setups = {
    "product": (wcsf.WarpedProduct(wcsf.LEFT, warp=1.0),
                wcsf.FourierField([0.0], [0.0, 0.5])),
    "left warped": (wcsf.WarpedProduct(wcsf.LEFT,
                                       warp=wcsf.FourierField.exp_cos(0.3)),
                    wcsf.FourierField([0.0], [0.0, 0.3])),
    "right warped": (wcsf.WarpedProduct(wcsf.RIGHT,
                                        warp=wcsf.FourierField.exp_cos(0.2)),
                     wcsf.FourierField([0.0], [0.0, 0.3])),
}
# one ladder of runs per setup: the first study integrates it, the other
# two read the same trajectories
ladders = {label: wcsf.RefinementLadder(manifold, field, grids=GRIDS,
                                        t_end=T_END)
           for label, (manifold, field) in setups.items()}

print("== angle evolution residual, refinement order ==")
for label, ladder in ladders.items():
    show(label, wcsf.evolution_residual_study(ladder))

print()
print("== commutator identity nabla_H T - nabla_T H = |A|^2 T, "
      "refinement order ==")
for label, ladder in ladders.items():
    show(label, wcsf.commutator_residual_study(ladder))

print()
print("== length dissipation dL/dt = -int |A|^2 ds, refinement order ==")
for label, ladder in ladders.items():
    show(label, wcsf.dissipation_residual_study(ladder))

print()
print("== bound constants: one function each, the family read from kind ==")
for label in ("left warped", "right warped"):
    manifold, _ = setups[label]
    print(f"  {label:14s} C = {wcsf.exp_constant(manifold):.6f}, "
          f"C_drift(t = 1, min Theta(0) = 1) = "
          f"{wcsf.drift_constant(manifold, 1.0, 1.0):.6f}")

print()
print("== inequality monitors on a full left-warped run ==")
manifold, field = setups["left warped"]
curve = wcsf.make_graph_curve(field, 64)
traj, report = wcsf.run(manifold, curve, wcsf.FlowParams(t_max=10.0,
                                                         record_stride=50))
exp_rep, drift_rep = wcsf.theta_bound_monitor(traj, manifold)
diss = wcsf.dissipation_monitor(traj, manifold)
for rep in (exp_rep, drift_rep, diss):
    head = f"  {rep.name:22s}"
    if rep.constant_name != "none":
        head += f" {rep.constant_name} = {rep.constant_value:.6f},"
    print(f"{head} worst slack {rep.worst_slack: .3e}, passed {rep.passed}")

print()
print("== closed-form angle comparison at the initial state ==")
# Theta = <T, d_r> expanded in the ambient metric; it must match the
# measured angle to rounding
gap = wcsf.closed_form_theta(traj[0], manifold)
print(f"  direct: max gap {gap:.3e}")
