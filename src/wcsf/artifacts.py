"""Run artifacts: trajectory CSV, flat-text report, optional SVG chart.

Float formatting goes through repr(float(x)) so files are bit-faithful to
the computed values and reruns of a deterministic scenario are
byte-identical. Wall-clock timings never enter these files.
"""

from __future__ import annotations

import contextlib
import enum

import numpy as np

from .record import MIN_THETA, MIN_THETA_HAT, TIME, FlowState, Trajectory
from .spectral import TWO_PI, mod_two_pi

__all__ = ["open_trajectory_csv", "write_trajectory_csv", "write_report",
           "write_svg"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "none"
    if isinstance(value, enum.Enum):
        return _fmt(value.value)
    if isinstance(value, (tuple, list, np.ndarray)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


@contextlib.contextmanager
def open_trajectory_csv(path):
    """Open a trajectory CSV for writing and write its header line; the
    file is closed when the with block ends, by an exception too.

    Columns: t, j, r, x1, theta, theta_hat, curvature. write_trajectory_csv
    adds each recorded state's rows, so a run's file is written while the
    run records, one state at a time.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write("t, j, r, x1, theta, theta_hat, curvature\n")
        yield fh


def write_trajectory_csv(fh, state: FlowState) -> None:
    """Write one recorded state to an open trajectory CSV, one row per
    node. Coordinates are reduced mod 2 pi; curvature is the node's |A|.
    Values are written as repr of Python floats, like _fmt.
    """
    f = state.fields
    table = np.column_stack((mod_two_pi(state.curve.coords),
                             f.theta, f.theta_hat, f.curvature_norm))
    t_str = _fmt(state.t)
    fh.write("".join(f"{t_str}, {j}, {', '.join(map(repr, row))}\n"
                     for j, row in enumerate(table.tolist())))


def write_report(path, sections: dict) -> None:
    """Write a nested dict as flat `dotted.key = value` lines, each as it
    is formatted.

    Booleans render as yes/no, floats via repr, enums as their value,
    sequences comma-joined.
    Insertion order is preserved so identical runs give identical files.
    """
    with open(path, "w", newline="\n") as fh:
        _emit(fh, "", sections)


def _emit(fh, prefix, mapping) -> None:
    for key, value in mapping.items():
        if isinstance(value, dict):
            _emit(fh, f"{prefix}{key}.", value)
        else:
            fh.write(f"{prefix}{key} = {_fmt(value)}\n")


_SVG_W, _SVG_H = 920.0, 430.0
_PANE_W, _MARG = 400.0, 55.0
_SNAPSHOTS = 16     # most curves drawn, evenly spaced over the kept states


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


def _polyline(fh, xs, ys, stroke, width="1.2", dash=None) -> None:
    """Write one polyline element, each point as it is formatted."""
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    fh.write(f'<polyline fill="none" stroke="{stroke}" stroke-width="{width}"'
             f'{extra} points="')
    sep = ""
    for x, y in zip(xs, ys):
        fh.write(f"{sep}{x:.6f},{y:.6f}")
        sep = " "
    fh.write('" />\n')


def write_svg(path, traj: Trajectory) -> None:
    """Two-pane chart: curve snapshots in the (r, x1) plane on the left,
    min angle diagnostics against time on the right. Self-contained SVG.

    The snapshots are up to _SNAPSHOTS states evenly spaced among those
    whose curves traj kept; the right pane reads every scalar row. Every
    scale is computed before the file opens, so a trajectory that cannot
    be charted leaves no file; then each element is written as it is
    formatted."""
    kept = traj.kept()
    k = min(_SNAPSHOTS, len(kept))
    # np.unique would import numpy.ma; the positions never decrease, so
    # dict.fromkeys drops repeats and keeps their order. A generator, so
    # that each curve is dropped once its closed nodes are built
    step = (len(kept) - 1) / max(k - 1, 1)
    snaps = (traj.curve(kept[p])
             for p in dict.fromkeys(round(i * step) for i in range(k)))

    left_x0, left_x1 = _MARG, _MARG + _PANE_W
    right_x0, right_x1 = _MARG + _PANE_W + 2 * _MARG, _SVG_W - 30.0
    y0, y1 = _SVG_H - _MARG, _MARG - 15.0

    # each snapshot's nodes, closed by its first node one period on
    closed = [np.vstack((c.coords,
                         c.coords[0] + TWO_PI * np.asarray(c.winding)))
              for c in snaps]
    rx, _, _ = _scale(np.concatenate([p[:, 0] for p in closed]),
                      left_x0, left_x1)
    xy, xmin, xmax = _scale(np.concatenate([p[:, 1] for p in closed]), y0, y1)

    scalars = traj.scalars
    times, min_theta, min_hat = (scalars[:, TIME], scalars[:, MIN_THETA],
                                 scalars[:, MIN_THETA_HAT])
    tx, _, _ = _scale(times, right_x0, right_x1)
    vy, vmin, vmax = _scale(np.concatenate([min_theta, min_hat, [0.0]]), y0, y1)

    with open(path, "w", newline="\n") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{_SVG_W:.0f}" height="{_SVG_H:.0f}" '
                 f'viewBox="0 0 {_SVG_W:.0f} {_SVG_H:.0f}">\n'
                 f'<rect width="{_SVG_W:.0f}" height="{_SVG_H:.0f}" '
                 f'fill="white" />\n'
                 f'<text x="{left_x0:.1f}" y="30" font-family="monospace" '
                 f'font-size="14">curve snapshots (r, x1), lifted</text>\n'
                 f'<text x="{right_x0:.1f}" y="30" font-family="monospace" '
                 f'font-size="14">min angle vs t</text>\n')
        for k, p in enumerate(closed):
            shade = 0.85 - 0.7 * (k / max(len(closed) - 1, 1))
            color = (f"rgb({int(60 + 150 * shade)},"
                     f"{int(60 + 100 * shade)},200)")
            _polyline(fh, rx(p[:, 0]), xy(p[:, 1]), color)
        _polyline(fh, [left_x0, left_x0, left_x1], [y1, y0, y0],
                  "black", "1.0")
        fh.write(f'<text x="{left_x0:.1f}" y="{y0 + 32:.1f}" '
                 f'font-family="monospace" font-size="11">r in [0, 2pi]   '
                 f'x1 in [{xmin:.3f}, {xmax:.3f}]</text>\n')

        _polyline(fh, tx(times), vy(min_theta), "rgb(200,80,60)", "1.5")
        _polyline(fh, tx(times), vy(min_hat), "rgb(60,120,200)", "1.5")
        _polyline(fh, [tx(times[0]), tx(times[-1])], [vy(0.0), vy(0.0)],
                  "gray", "0.8", dash="4 3")
        _polyline(fh, [right_x0, right_x0, right_x1], [y1, y0, y0],
                  "black", "1.0")
        fh.write(f'<text x="{right_x0:.1f}" y="{y0 + 32:.1f}" '
                 f'font-family="monospace" font-size="11">t in '
                 f'[{times[0]:.3f}, {times[-1]:.3f}]   red: min theta   '
                 f'blue: min theta-hat   range '
                 f'[{vmin:.3f}, {vmax:.3f}]</text>\n</svg>\n')
