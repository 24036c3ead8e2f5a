"""Scenario configs: a small `key = value` text format describing one run.

Lines are `key = value` pairs; blank lines and `#` comments are skipped.
Keys:

    scenario.name        run label (default: supplied by the caller)
    manifold.kind        left | right (required)
    warp.exp_cos         a, for warp e^{a cos}
    warp.cos, warp.sin   Fourier coefficients of the warp (conflicts with
                         warp.exp_cos); default is the constant warp 1
    base.g11.cos, base.g11.sin
                         Fourier coefficients of the base metric entry g11;
                         default is the flat base g11 = 1
    init.cos, init.sin   Fourier coefficients of the initial height f
    init.winding         integer winding of f around the base (default 0)
    grid.m               nodes, power of two in [32, 1024] (default 128)
    time.cfl             step factor in (0, 1] (default 0.25), see flow
    time.t_max           stop time >= 0 (default 50)
    tol.geo              geodesic convergence threshold (default 1e-6)
    tol.bound            slack tolerance >= 0 for bound monitors (default
                         1e-4)
    tol.theta_floor      graph-loss threshold on min angle (default 1e-3)
    tol.a_ceiling        blow-up threshold on max curvature (default 1e6)
    record.stride        record at times j k dt0 (default 50), dt0 the
                         parabolic step of the initial curve
    verify.bounds        on | off (default on)
    verify.dissipation   on | off (default on)
    verify.evolution     on | off (default off; runs refinement studies)
    verify.commutator    on | off (default off)
    verify.gradient      on | off (default off)
    output.svg           on | off (default off)

Every number must be finite. All parse and validation errors carry the
offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import DiscreteCurve, make_graph_curve
from .flow import FlowParams
from .fourier import FourierField
from .geometry import LEFT, RIGHT, WarpedProduct, checked_g11

__all__ = ["ConfigError", "Scenario", "parse_config"]

_MISSING = object()


class ConfigError(ValueError):
    """Config problem tagged with the 1-based line it came from."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def _scan(text: str) -> dict:
    entries = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", ln)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", ln)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", ln)
        entries[key] = (value, ln)
    return entries


def _take(entries, key, default=_MISSING):
    if key in entries:
        return entries.pop(key)
    return (default, None)


def _take_float(entries, key, default):
    value, ln = _take(entries, key, default)
    if value is default and ln is None:
        return default, None
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got {value!r}", ln) from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} expects a finite number, got {value!r}", ln)
    return number, ln


def _take_int(entries, key, default):
    value, ln = _take(entries, key, default)
    if value is default and ln is None:
        return default, None
    try:
        return int(value), ln
    except ValueError:
        raise ConfigError(f"{key} expects an integer, got {value!r}", ln) from None


_TRUE = {"on", "true", "yes", "1"}
_FALSE = {"off", "false", "no", "0"}


def _take_bool(entries, key, default):
    value, ln = _take(entries, key, default)
    if value is default and ln is None:
        return default, None
    low = value.lower()
    if low in _TRUE:
        return True, ln
    if low in _FALSE:
        return False, ln
    raise ConfigError(f"{key} expects on or off, got {value!r}", ln)


def _take_floats(entries, key):
    value, ln = _take(entries, key, None)
    if value is None:
        return None, None
    body = value.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if not body.strip():
        raise ConfigError(f"{key} is empty", ln)
    try:
        coefs = tuple(float(tok) for tok in body.split(","))
    except ValueError:
        raise ConfigError(
            f"{key} expects comma-separated numbers, got {value!r}", ln) from None
    if not all(map(math.isfinite, coefs)):
        raise ConfigError(
            f"{key} expects finite numbers, got {value!r}", ln)
    return coefs, ln


def _field_from(cos, sin, constant: float = 0.0):
    c = np.asarray(cos if cos is not None else (constant,), dtype=float)
    s = np.asarray(sin, dtype=float) if sin is not None else None
    return FourierField(c, s)


@dataclass(frozen=True)
class Scenario:
    """Parsed, validated description of one flow run."""

    name: str
    manifold: WarpedProduct
    init_field: FourierField
    winding: int
    m: int
    cfl: float
    t_max: float
    tol_geo: float
    tol_bound: float
    theta_floor: float
    a_ceiling: float
    record_stride: int
    verify_bounds: bool
    verify_dissipation: bool
    verify_evolution: bool
    verify_commutator: bool
    verify_gradient: bool
    svg: bool

    def initial_curve(self) -> DiscreteCurve:
        return make_graph_curve(self.init_field, self.m,
                                x_winding=self.winding)

    def flow_params(self) -> FlowParams:
        return FlowParams(cfl=self.cfl, t_max=self.t_max, tol_geo=self.tol_geo,
                          theta_floor=self.theta_floor,
                          a_ceiling=self.a_ceiling,
                          record_stride=self.record_stride)


def parse_config(text: str, name: str = "scenario") -> Scenario:
    """Parse one config text into a Scenario, constructing the manifold.

    Raises ConfigError (with the line number) for malformed lines,
    duplicate or unknown keys, out-of-range values, non-positive warps,
    and non-positive-definite base metrics.
    """
    entries = _scan(text)

    run_name, _ = _take(entries, "scenario.name", name)

    kind_value, kind_ln = _take(entries, "manifold.kind", None)
    if kind_value is None:
        raise ConfigError("missing required key manifold.kind")
    kind = {"left": LEFT, "right": RIGHT}.get(kind_value.lower())
    if kind is None:
        raise ConfigError(
            f"manifold.kind must be left or right, got {kind_value!r}", kind_ln)

    exp_a, exp_ln = _take_float(entries, "warp.exp_cos", None)
    warp_cos, wc_ln = _take_floats(entries, "warp.cos")
    warp_sin, ws_ln = _take_floats(entries, "warp.sin")
    warp_ln = next((ln for ln in (wc_ln, ws_ln, exp_ln) if ln is not None), None)
    if exp_a is not None and (warp_cos is not None or warp_sin is not None):
        raise ConfigError(
            "warp.exp_cos conflicts with warp.cos/warp.sin", exp_ln)

    g11_cos, gc_ln = _take_floats(entries, "base.g11.cos")
    g11_sin, gs_ln = _take_floats(entries, "base.g11.sin")
    g11 = None
    if g11_cos is not None or g11_sin is not None:
        try:
            g11 = checked_g11(_field_from(g11_cos, g11_sin, 1.0))
        except ValueError as exc:
            raise ConfigError(str(exc), gc_ln or gs_ln) from None

    # g11 is already checked, so a ValueError here is the warp's
    try:
        if exp_a is not None:
            warp = FourierField.exp_cos(exp_a)
        elif warp_cos is not None or warp_sin is not None:
            warp = _field_from(warp_cos, warp_sin, 1.0)
        else:
            warp = 1.0
        manifold = WarpedProduct(kind, warp=warp, g11=g11)
    except ValueError as exc:
        raise ConfigError(str(exc), warp_ln) from None

    init_cos, _ = _take_floats(entries, "init.cos")
    init_sin, _ = _take_floats(entries, "init.sin")
    init_field = _field_from(init_cos, init_sin)

    winding, _ = _take_int(entries, "init.winding", 0)

    m, m_ln = _take_int(entries, "grid.m", 128)
    if m < 32 or m > 1024 or m & (m - 1):
        raise ConfigError(
            f"grid.m must be a power of two between 32 and 1024, got {m}", m_ln)

    cfl, cfl_ln = _take_float(entries, "time.cfl", 0.25)
    if not 0.0 < cfl <= 1.0:
        raise ConfigError(f"time.cfl must lie in (0, 1], got {cfl}", cfl_ln)
    t_max, tm_ln = _take_float(entries, "time.t_max", 50.0)
    if t_max < 0.0:
        raise ConfigError(f"time.t_max must be nonnegative, got {t_max}", tm_ln)

    tol_geo, tg_ln = _take_float(entries, "tol.geo", 1e-6)
    if tol_geo < 0.0:
        raise ConfigError(f"tol.geo must be nonnegative, got {tol_geo}", tg_ln)
    tol_bound, tb_ln = _take_float(entries, "tol.bound", 1e-4)
    if tol_bound < 0.0:
        raise ConfigError(
            f"tol.bound must be nonnegative, got {tol_bound}", tb_ln)
    theta_floor, tf_ln = _take_float(entries, "tol.theta_floor", 1e-3)
    if theta_floor < 0.0:
        raise ConfigError(
            f"tol.theta_floor must be nonnegative, got {theta_floor}", tf_ln)
    a_ceiling, ac_ln = _take_float(entries, "tol.a_ceiling", 1e6)
    if a_ceiling <= 0.0:
        raise ConfigError(
            f"tol.a_ceiling must be positive, got {a_ceiling}", ac_ln)

    stride, st_ln = _take_int(entries, "record.stride", 50)
    if stride < 1:
        raise ConfigError(
            f"record.stride must be a positive integer, got {stride}", st_ln)

    verify_bounds, _ = _take_bool(entries, "verify.bounds", True)
    verify_dissipation, _ = _take_bool(entries, "verify.dissipation", True)
    verify_evolution, _ = _take_bool(entries, "verify.evolution", False)
    verify_commutator, _ = _take_bool(entries, "verify.commutator", False)
    verify_gradient, _ = _take_bool(entries, "verify.gradient", False)
    svg, _ = _take_bool(entries, "output.svg", False)

    if entries:
        key, (_, ln) = min(entries.items(), key=lambda kv: kv[1][1])
        raise ConfigError(f"unknown key {key!r}", ln)

    return Scenario(
        name=str(run_name), manifold=manifold, init_field=init_field,
        winding=winding, m=m, cfl=cfl,
        t_max=t_max, tol_geo=tol_geo, tol_bound=tol_bound,
        theta_floor=theta_floor, a_ceiling=a_ceiling, record_stride=stride,
        verify_bounds=verify_bounds, verify_dissipation=verify_dissipation,
        verify_evolution=verify_evolution, verify_commutator=verify_commutator,
        verify_gradient=verify_gradient, svg=svg,
    )
