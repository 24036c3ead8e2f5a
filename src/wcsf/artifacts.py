"""Run artifacts: trajectory CSV, flat-text report, optional SVG chart.

Float formatting goes through repr(float(x)) so files are bit-faithful to
the computed values and reruns of a deterministic scenario are
byte-identical. Wall-clock timings never enter these files.
"""

from __future__ import annotations

import numpy as np

from .flow import Trajectory
from .geometry import TWO_PI

__all__ = ["write_trajectory_csv", "write_report", "write_svg"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "none"
    if isinstance(value, (tuple, list, np.ndarray)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """Write every recorded state, one row per node, one state at a time.

    Columns: t, j, r, x1, theta, theta_hat, curvature. Coordinates are
    reduced mod 2 pi; curvature is the node's |A|. Values are written as
    repr of Python floats, like _fmt. Iterating the trajectory rebuilds
    each older state's fields once.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write("t, j, r, x1, theta, theta_hat, curvature\n")
        for state in traj:
            f = state.fields
            table = np.column_stack((np.mod(state.curve.coords, TWO_PI),
                                     f.theta, f.theta_hat, f.curvature_norm))
            t_str = _fmt(state.t)
            fh.write("".join(f"{t_str}, {j}, {', '.join(map(repr, row))}\n"
                             for j, row in enumerate(table.tolist())))


def write_report(path, sections: dict) -> None:
    """Write a nested dict as flat `dotted.key = value` lines.

    Booleans render as yes/no, floats via repr, sequences comma-joined.
    Insertion order is preserved so identical runs give identical files.
    """
    lines = []
    _emit(lines, "", sections)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(lines, prefix, mapping) -> None:
    for key, value in mapping.items():
        if isinstance(value, dict):
            _emit(lines, f"{prefix}{key}.", value)
        else:
            lines.append(f"{prefix}{key} = {_fmt(value)}")


_SVG_W, _SVG_H = 920.0, 430.0
_PANE_W, _PANE_H, _MARG = 400.0, 330.0, 55.0
_SNAPSHOTS = 16     # most curves drawn, evenly spaced over the states


def _scale(values, lo_px, hi_px):
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    if vmax - vmin < 1e-12:
        vmax = vmin + 1.0
    pad = 0.05 * (vmax - vmin)
    vmin -= pad
    vmax += pad
    span = vmax - vmin

    def to_px(v):
        return lo_px + (np.asarray(v, dtype=float) - vmin) / span * (hi_px - lo_px)

    return to_px, vmin, vmax


def _polyline(xs, ys, stroke, width="1.2", dash=None) -> str:
    pts = " ".join(f"{x:.6f},{y:.6f}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{stroke}" stroke-width="{width}"'
            f'{extra} points="{pts}" />')


def write_svg(path, traj: Trajectory) -> None:
    """Two-pane chart: curve snapshots in the (r, x1) plane on the left,
    min angle diagnostics against time on the right. Self-contained SVG."""
    n = len(traj)
    k = min(_SNAPSHOTS, n)
    # np.unique would import numpy.ma; the indices never decrease, so
    # dict.fromkeys drops repeats and keeps their order
    step = (n - 1) / max(k - 1, 1)
    idx = dict.fromkeys(round(i * step) for i in range(k))
    snaps = [traj.curve(i) for i in idx]

    left_x0, left_x1 = _MARG, _MARG + _PANE_W
    right_x0, right_x1 = _MARG + _PANE_W + 2 * _MARG, _SVG_W - 30.0
    y0, y1 = _SVG_H - _MARG, _MARG - 15.0

    all_r = np.concatenate([np.append(c.coords[:, 0], c.coords[0, 0] + TWO_PI)
                            for c in snaps])
    all_x = np.concatenate([np.append(c.coords[:, 1],
                                      c.coords[0, 1] + TWO_PI * c.winding[1])
                            for c in snaps])
    rx, _, _ = _scale(all_r, left_x0, left_x1)
    xy, xmin, xmax = _scale(all_x, y0, y1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W:.0f}" '
        f'height="{_SVG_H:.0f}" viewBox="0 0 {_SVG_W:.0f} {_SVG_H:.0f}">',
        f'<rect width="{_SVG_W:.0f}" height="{_SVG_H:.0f}" fill="white" />',
        f'<text x="{left_x0:.1f}" y="30" font-family="monospace" '
        f'font-size="14">curve snapshots (r, x1), lifted</text>',
        f'<text x="{right_x0:.1f}" y="30" font-family="monospace" '
        f'font-size="14">min angle vs t</text>',
    ]
    for k, c in enumerate(snaps):
        shade = 0.85 - 0.7 * (k / max(len(snaps) - 1, 1))
        color = f"rgb({int(60 + 150 * shade)},{int(60 + 100 * shade)},200)"
        r = np.append(c.coords[:, 0], c.coords[0, 0] + TWO_PI)
        x = np.append(c.coords[:, 1], c.coords[0, 1] + TWO_PI * c.winding[1])
        parts.append(_polyline(rx(r), xy(x), color))
    parts.append(_polyline([left_x0, left_x0, left_x1], [y1, y0, y0],
                           "black", "1.0"))
    parts.append(f'<text x="{left_x0:.1f}" y="{y0 + 32:.1f}" '
                 f'font-family="monospace" font-size="11">r in [0, 2pi]   '
                 f'x1 in [{xmin:.3f}, {xmax:.3f}]</text>')

    scalars = traj.scalars
    times, min_theta, min_hat = scalars[:, 0], scalars[:, 1], scalars[:, 2]
    tx, _, _ = _scale(times, right_x0, right_x1)
    vy, vmin, vmax = _scale(np.concatenate([min_theta, min_hat, [0.0]]), y0, y1)
    parts.append(_polyline(tx(times), vy(min_theta), "rgb(200,80,60)", "1.5"))
    parts.append(_polyline(tx(times), vy(min_hat), "rgb(60,120,200)", "1.5"))
    parts.append(_polyline([tx(times[0]), tx(times[-1])], [vy(0.0), vy(0.0)],
                           "gray", "0.8", dash="4 3"))
    parts.append(_polyline([right_x0, right_x0, right_x1], [y1, y0, y0],
                           "black", "1.0"))
    parts.append(f'<text x="{right_x0:.1f}" y="{y0 + 32:.1f}" '
                 f'font-family="monospace" font-size="11">t in '
                 f'[{times[0]:.3f}, {times[-1]:.3f}]   red: min theta   '
                 f'blue: min theta-hat   range [{vmin:.3f}, {vmax:.3f}]</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
