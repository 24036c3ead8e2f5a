"""Run one curve shortening flow and print its life story.

Usage:
    python3 03_shortening_flow.py [--kind left|right] [--warp A]
                                  [--amplitude B] [--m M] [--t-max T]

The initial curve is the graph x = B sin r. The run stops when the curve
has flattened onto a closed geodesic (max |A| below tolerance), the graph
structure degenerates, curvature blows up, or time runs out.
"""

import argparse

import wcsf
from wcsf.record import LENGTH, MAX_A, MIN_THETA, TIME


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=("left", "right"), default="left")
    ap.add_argument("--warp", type=float, default=0.3,
                    help="warp exponent a in e^{a cos} (0 for a product)")
    ap.add_argument("--amplitude", type=float, default=0.3)
    ap.add_argument("--m", type=int, default=128)
    ap.add_argument("--t-max", type=float, default=50.0)
    args = ap.parse_args()

    warp = wcsf.FourierField.exp_cos(args.warp) if args.warp else 1.0
    kind = wcsf.LEFT if args.kind == "left" else wcsf.RIGHT
    manifold = wcsf.WarpedProduct(kind, warp=warp)
    field = wcsf.FourierField([0.0], [0.0, args.amplitude])
    curve = wcsf.make_graph_curve(field, args.m)
    params = wcsf.FlowParams(t_max=args.t_max, record_stride=100)

    traj, report = wcsf.run(manifold, curve, params)

    print(f"stop reason:     {report.stop_reason.value}")
    print(f"final time:      {report.t_final:.6f} after {report.steps} steps")
    print(f"length:          {report.length_initial:.8f} -> "
          f"{report.length_final:.8f} "
          f"(monotone: {report.length_monotone})")
    print(f"max |A|:         {report.final_max_curvature:.3e}")
    print(f"min theta:       {report.initial_min_theta:.6f} -> "
          f"{report.final_min_theta:.6f}")
    print(f"min theta_hat:   {report.final_min_theta_hat:.12f}")
    print(f"limit base x:    {report.limit_base_point:.6f}")
    if report.limit_warp_gradient_norm is not None:
        print(f"|grad| at limit: {report.limit_warp_gradient_norm:.3e}")
    print(f"geodesic:        {report.geodesic_certified}")

    print()
    print("recorded history (every tenth recorded state):")
    print("        t     min theta   max |A|      length")
    history = traj.scalars[:, [TIME, MIN_THETA, MAX_A, LENGTH]]
    for t, theta, max_a, length in [*history[::10], history[-1]]:
        print(f"  {t:9.4f} {theta:11.6f} {max_a:10.3e} {length:11.8f}")

    # the angle bound certificates for this trajectory, with the constants
    # of the manifold its states were flowed in
    exp_rep, drift_rep = wcsf.theta_bound_monitor(traj)
    print()
    print(f"exponential angle bound ({exp_rep.constant_name} = "
          f"{exp_rep.constant_value:.6f}): "
          f"worst slack {exp_rep.worst_slack:.3e}, passed {exp_rep.passed}")
    print(f"drift bound ({drift_rep.constant_name} = "
          f"{drift_rep.constant_value:.6f}): "
          f"worst slack {drift_rep.worst_slack:.3e}, passed {drift_rep.passed}")


if __name__ == "__main__":
    main()
