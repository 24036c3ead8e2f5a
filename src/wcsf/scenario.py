"""Scenario configs: a small `key = value` text format describing one run.

Lines are `key = value` pairs; blank lines and `#` comments are skipped.
Keys:

    scenario.name        run label, one plain path component (default:
                         supplied by the caller); the default artifact
                         directory of `wcsf run` and `wcsf verify` is
                         wcsf_out/<name>, but `wcsf suite` writes each
                         run under the stem of its .cfg file
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
    time.t_max           stop time >= 0 (default 50)
    tol.geo              geodesic convergence threshold (default 1e-6)
    tol.bound            slack tolerance >= 0 for bound monitors (default
                         1e-4)
    tol.theta_floor      graph-loss threshold on min angle (default 1e-3)
    tol.a_ceiling        blow-up threshold on max curvature (default 1e6)
    record.stride        record at times j k dt0 (default 50), dt0 the
                         parabolic step of the initial curve
    verify.bounds        on | off (default on; off drops the bounds
                         report section, the drift defects are still
                         computed as the run records)
    verify.dissipation   on | off (default on)
    verify.evolution     on | off (default off; the angle evolution
                         equation at every recorded state)
    verify.commutator    on | off (default off; the tangent/curvature
                         commutator at every recorded state)
    verify.gradient      on | off (default off; the gradient identity's
                         refinement study on the initial graph)
    output.svg           on | off (default off)

The run controls time.t_max, tol.geo, tol.bound, tol.theta_floor,
tol.a_ceiling and record.stride set the fields of Scenario.params, a
wcsf.record.FlowParams, which owns their defaults and ranges. Every run
steps with the factor flow.CFL.
Every number must be finite. All parse and validation errors carry the
offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curves import DiscreteCurve, _validate_m, flow_curve
from .record import FlowParams
from .fourier import FourierField
from .geometry import LEFT, RIGHT, WarpedProduct, checked_g11

__all__ = ["ConfigError", "Scenario", "parse_config"]


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


def _take(entries, key, parse, default=None):
    """(parse(value), line) for key, popped from entries, or (default, None)
    when the config does not set it. A ValueError from parse becomes a
    ConfigError that names the key and its line."""
    if key not in entries:
        return default, None
    value, ln = entries.pop(key)
    try:
        return parse(value), ln
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}", ln) from None


def _number(text: str) -> float:
    try:
        number = float(text)
    except ValueError:
        raise ValueError(f"expects a number, got {text!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"expects a finite number, got {text!r}")
    return number


def _numbers(text: str) -> tuple:
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    return tuple(_number(tok.strip()) for tok in text.split(","))


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expects an integer, got {text!r}") from None


def _choice(table: dict, expects: str):
    """Converter reading one word of table, in any letter case."""
    def parse(text: str):
        try:
            return table[text.lower()]
        except KeyError:
            raise ValueError(f"{expects}, got {text!r}") from None
    return parse


_flag = _choice({**dict.fromkeys(("on", "true", "yes", "1"), True),
                 **dict.fromkeys(("off", "false", "no", "0"), False)},
                "expects on or off")
_kind = _choice({"left": LEFT, "right": RIGHT}, "must be left or right")


def _run_name(text: str) -> str:
    # an artifact directory is named after it: the default one of wcsf run
    # and wcsf verify, and under wcsf suite each run's, after its file stem
    if (text in ("", ".", "..") or "/" in text or "\\" in text
            or "\0" in text):
        raise ValueError(f"must be one plain path component, got {text!r}")
    return text


def _nodes(text: str) -> int:
    m = _validate_m(_int(text))
    if m > 1024:
        raise ValueError(f"node count must be a power of two <= 1024, got {m}")
    return m


def _set(params: FlowParams, field: str, parse):
    """Converter giving params with field set to the parsed value; the
    range check is FlowParams'."""
    return lambda text: replace(params, **{field: parse(text)})


def _field_from(cos, sin, constant: float = 0.0):
    c = np.asarray(cos if cos is not None else (constant,), dtype=float)
    s = np.asarray(sin, dtype=float) if sin is not None else None
    return FourierField(c, s)


@dataclass(frozen=True)
class Scenario:
    """Parsed, validated description of one flow run; params is the
    FlowParams the run uses."""

    name: str
    manifold: WarpedProduct
    init_field: FourierField
    winding: int
    m: int
    params: FlowParams
    verify_bounds: bool
    verify_dissipation: bool
    verify_evolution: bool
    verify_commutator: bool
    verify_gradient: bool
    svg: bool

    def initial_curve(self) -> DiscreteCurve:
        return flow_curve(self.manifold, self.init_field, self.m,
                          self.winding)


def parse_config(text: str, name: str = "scenario") -> Scenario:
    """Parse one config text into a Scenario, constructing the manifold.

    Raises ConfigError (with the line number) for malformed lines,
    duplicate or unknown keys, out-of-range values, non-positive warps,
    and non-positive-definite base metrics.
    """
    entries = _scan(text)

    # the caller's default name is checked like one the config sets
    entries.setdefault("scenario.name", (name, None))
    run_name, _ = _take(entries, "scenario.name", _run_name)

    kind, _ = _take(entries, "manifold.kind", _kind)
    if kind is None:
        raise ConfigError("missing required key manifold.kind")

    exp_a, exp_ln = _take(entries, "warp.exp_cos", _number)
    warp_cos, wc_ln = _take(entries, "warp.cos", _numbers)
    warp_sin, ws_ln = _take(entries, "warp.sin", _numbers)
    warp_ln = next((ln for ln in (wc_ln, ws_ln, exp_ln) if ln is not None), None)
    if exp_a is not None and (warp_cos is not None or warp_sin is not None):
        raise ConfigError(
            "warp.exp_cos conflicts with warp.cos/warp.sin", exp_ln)

    g11_cos, gc_ln = _take(entries, "base.g11.cos", _numbers)
    g11_sin, gs_ln = _take(entries, "base.g11.sin", _numbers)
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

    init_cos, _ = _take(entries, "init.cos", _numbers)
    init_sin, _ = _take(entries, "init.sin", _numbers)
    init_field = _field_from(init_cos, init_sin)

    winding, _ = _take(entries, "init.winding", _int, 0)
    m, _ = _take(entries, "grid.m", _nodes, 128)

    # FlowParams owns the run controls' defaults and ranges
    params = FlowParams()
    params, _ = _take(entries, "time.t_max",
                      _set(params, "t_max", _number), params)
    params, _ = _take(entries, "tol.geo",
                      _set(params, "tol_geo", _number), params)
    params, _ = _take(entries, "tol.bound",
                      _set(params, "tol_bound", _number), params)
    params, _ = _take(entries, "tol.theta_floor",
                      _set(params, "theta_floor", _number), params)
    params, _ = _take(entries, "tol.a_ceiling",
                      _set(params, "a_ceiling", _number), params)
    params, _ = _take(entries, "record.stride",
                      _set(params, "record_stride", _int), params)

    verify_bounds, _ = _take(entries, "verify.bounds", _flag, True)
    verify_dissipation, _ = _take(entries, "verify.dissipation", _flag, True)
    verify_evolution, _ = _take(entries, "verify.evolution", _flag, False)
    verify_commutator, _ = _take(entries, "verify.commutator", _flag, False)
    verify_gradient, _ = _take(entries, "verify.gradient", _flag, False)
    svg, _ = _take(entries, "output.svg", _flag, False)

    if entries:
        key, (_, ln) = min(entries.items(), key=lambda kv: kv[1][1])
        raise ConfigError(f"unknown key {key!r}", ln)

    return Scenario(
        name=run_name, manifold=manifold, init_field=init_field,
        winding=winding, m=m, params=params,
        verify_bounds=verify_bounds, verify_dissipation=verify_dissipation,
        verify_evolution=verify_evolution, verify_commutator=verify_commutator,
        verify_gradient=verify_gradient, svg=svg,
    )
