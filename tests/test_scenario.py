import re
from pathlib import Path

import numpy as np
import pytest

import wcsf
from wcsf.scenario import ConfigError, Scenario, parse_config

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

BASE = """\
manifold.kind = left
warp.exp_cos = 0.3
init.sin = 0.0, 0.3
"""


def test_defaults():
    scn = parse_config(BASE, name="demo")
    assert scn.name == "demo"
    assert scn.m == 128
    assert scn.params.t_max == 50.0
    assert scn.params.tol_geo == 1e-6
    assert scn.params.tol_bound == 1e-4
    assert scn.params.theta_floor == 1e-3
    assert scn.params.a_ceiling == 1e6
    assert scn.params.record_stride == 50
    assert scn.winding == 0
    assert scn.verify_bounds and scn.verify_dissipation
    assert not scn.verify_evolution
    assert not scn.verify_commutator
    assert not scn.verify_gradient
    assert not scn.svg


def test_round_trip_objects():
    scn = parse_config(BASE + "grid.m = 64\ntime.t_max = 2.0\n")
    assert scn.manifold.kind == wcsf.LEFT
    curve = scn.initial_curve()
    assert curve.coords.shape == (64, 2)
    assert np.allclose(curve.coords[:, 1],
                       0.3 * np.sin(curve.coords[:, 0]), atol=1e-12)
    assert scn.params.t_max == 2.0


def test_run_controls_are_flow_params():
    # FlowParams owns the run controls' defaults; the config only sets them
    assert parse_config(BASE).params == wcsf.FlowParams()
    scn = parse_config(BASE + "record.stride = 7\ntol.a_ceiling = 1e3\n")
    assert scn.params == wcsf.FlowParams(record_stride=7, a_ceiling=1e3)


def test_exp_cos_matches_explicit_series():
    scn = parse_config(BASE)
    direct = wcsf.FourierField.exp_cos(0.3)
    x = np.linspace(0.0, 2 * np.pi, 97)
    assert np.allclose(scn.manifold.warp(x), direct(x), atol=1e-14)


def test_bracketed_and_bare_lists_agree():
    a = parse_config("manifold.kind = right\nwarp.cos = [1.0, 0.5]\n")
    b = parse_config("manifold.kind = right\nwarp.cos = 1.0, 0.5\n")
    x = np.linspace(0, 6, 31)
    assert np.array_equal(a.manifold.warp(x), b.manifold.warp(x))


def test_boolean_spellings():
    for word in ("on", "true", "yes", "1"):
        scn = parse_config(BASE + f"output.svg = {word}\n")
        assert scn.svg
    for word in ("off", "false", "no", "0"):
        scn = parse_config(BASE + f"verify.bounds = {word}\n")
        assert not scn.verify_bounds
    with pytest.raises(ConfigError, match="line 4"):
        parse_config(BASE + "output.svg = maybe\n")


def test_nonzero_winding_builds_a_winding_graph():
    scn = parse_config(BASE + "init.winding = 1\n")
    curve = scn.initial_curve()
    # in the DeTurck gauge, like every winding graph
    assert (curve.mode, curve.winding) == ("parametric", (1, 1))
    # a nonzero winding states the intent; no second key opts in
    with pytest.raises(ConfigError, match="unknown key 'init.allow_winding'"):
        parse_config(BASE + "init.winding = 1\ninit.allow_winding = on\n")


@pytest.mark.parametrize("stem,mode", [("left_warped", "parametric"),
                                       ("right_warped", "graph"),
                                       ("product", "graph")])
def test_a_varying_left_warp_flows_its_graph_in_the_deturck_gauge(stem,
                                                                  mode):
    # right products and the constant warp keep the graph gauge; the
    # initial curve has the graph's nodes in either gauge
    scn = parse_config((SCENARIO_DIR / f"{stem}.cfg").read_text())
    curve = scn.initial_curve()
    assert (curve.mode, curve.winding) == (mode, (1, 0))
    graph = wcsf.make_graph_curve(scn.init_field, scn.m)
    assert curve.coords.tobytes() == graph.coords.tobytes()


def test_perturbed_base_metric():
    scn = parse_config(BASE + "base.g11.cos = 1.0, 0.2\n")
    g, _ = scn.manifold.frame(np.zeros((1, 2)))
    assert abs(g[0, 1, 1] - 1.2) < 1e-14


@pytest.mark.parametrize("text,fragment", [
    ("warp.exp_cos = 0.3\n", "manifold.kind"),
    ("manifold.kind = middle\n", "manifold.kind"),
    (BASE + "manifold.base_dim = 1\n", "unknown key 'manifold.base_dim'"),
    (BASE + "warp.cos = 1.0\n", "warp.exp_cos"),
    ("manifold.kind = left\nwarp.cos = 0.0, 2.0\n", "warp not positive"),
    ("manifold.kind = left\nwarp.cos = -1.0\n", "warp not positive"),
    (BASE + "base.g11.cos = 1.0, 1.5\n", "positive definite"),
    (BASE + "grid.m = 100\n", "power of two"),
    (BASE + "grid.m = 16\n", "power of two"),
    (BASE + "grid.m = 2048\n", "power of two"),
    (BASE + "time.cfl = 0.25\n", "unknown key 'time.cfl'"),
    (BASE + "time.t_max = -1\n", "time.t_max"),
    (BASE + "tol.geo = -1e-6\n", "tol.geo"),
    (BASE + "tol.bound = -0.5\n", "line 4: tol.bound"),
    (BASE + "tol.theta_floor = -1\n", "tol.theta_floor"),
    (BASE + "tol.a_ceiling = 0\n", "tol.a_ceiling"),
    (BASE + "record.stride = 0\n", "record.stride"),
    ("manifold.kind = left\nwarp.exp_cos = 800\n", "line 2: exp_cos"),
    (BASE + "flow.speed = 2\n", "unknown key"),
    (BASE + "grid.m = 64\ngrid.m = 64\n", "duplicate"),
    (BASE + "grid.m 64\n", "="),
    (BASE + "grid.m = sixty\n", "integer"),
    (BASE + "init.cos =\n", "init.cos"),
    (BASE + "scenario.name =\n", "line 4: scenario.name"),
    (BASE + "scenario.name = a/b\n", "line 4: scenario.name"),
    (BASE + "scenario.name = a\\b\n", "line 4: scenario.name"),
    (BASE + "scenario.name = .\n", "line 4: scenario.name"),
    (BASE + "scenario.name = ..\n", "line 4: scenario.name"),
    (BASE + "scenario.name = ../out\n", "line 4: scenario.name"),
])
def test_rejects_bad_config(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


@pytest.mark.parametrize("name", ["", ".", "..", "a/b"])
def test_rejects_a_bad_default_name(name):
    # the caller's name, a .cfg file's stem, is checked like scenario.name
    with pytest.raises(ConfigError, match="scenario.name"):
        parse_config(BASE, name=name)


def test_zero_tol_bound_is_valid():
    # tol.bound = 0 demands the bounds hold exactly; only negative is wrong
    assert parse_config(BASE + "tol.bound = 0\n").params.tol_bound == 0.0


def test_bad_warp_and_bad_g11_name_their_lines():
    bad_warp = "manifold.kind = left\nwarp.cos = -1.0\nbase.g11.cos = 1.0\n"
    with pytest.raises(ConfigError, match="warp not positive") as err:
        parse_config(bad_warp)
    assert err.value.line == 2
    bad_g11 = "manifold.kind = left\nwarp.cos = 1.0\nbase.g11.sin = 0.5, 2\n"
    with pytest.raises(ConfigError, match="positive definite") as err:
        parse_config(bad_g11)
    assert err.value.line == 3
    # both bad: the base metric is checked first
    with pytest.raises(ConfigError, match="positive definite") as err:
        parse_config("manifold.kind = left\nwarp.cos = -1.0\n"
                     "base.g11.cos = -1.0\n")
    assert err.value.line == 3


def test_error_carries_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config(BASE + "grid.m = 100\n")
    assert err.value.line == 4
    assert str(err.value).startswith("line 4:")


NON_FINITE_BASE = "manifold.kind = left\nwarp.exp_cos = 0.3\n"


@pytest.mark.parametrize("line", ["time.t_max = nan", "time.t_max = inf",
                                  "tol.geo = nan", "init.sin = 0.0, inf"])
def test_rejects_non_finite_numbers(line):
    # a nan t_max with tol.geo = 0 would never stop
    with pytest.raises(ConfigError, match="finite") as err:
        parse_config(NON_FINITE_BASE + line + "\n")
    assert err.value.line == 3


def test_comments_and_blanks_ignored():
    text = "# header\n\nmanifold.kind = left\n  # indented comment\n" \
           "warp.exp_cos = 0.3\n"
    scn = parse_config(text)
    assert scn.manifold.kind == wcsf.LEFT


def test_sin_only_warp_defaults_constant_term():
    scn = parse_config("manifold.kind = right\nwarp.sin = 0.0, 0.4\n")
    v = scn.manifold.warp(np.array([np.pi / 2]))
    assert abs(v[0] - 1.4) < 1e-14


def test_scenario_is_frozen():
    scn = parse_config(BASE)
    assert isinstance(scn, Scenario)
    with pytest.raises(AttributeError):
        scn.m = 64


def _first_column_keys(cells):
    return {key for cell in cells for key in re.split(r",\s*", cell.strip())}


def test_documented_keys_are_the_parsed_keys():
    # README's config table, the module docstring and the parser's
    # _take*(entries, "...") calls must name the same keys
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Scenario configs", 1)[1].split("\n## ", 1)[0]
    table = {key for row in re.findall(r"^\| (.+?) \|", section, re.M)
             for key in re.findall(r"`([^`]+)`", row)}
    doc = _first_column_keys(re.findall(
        r"^    (\S.*?)(?:\s{2,}|$)", wcsf.scenario.__doc__, re.M))
    source = Path(wcsf.scenario.__file__).read_text()
    parsed = set(re.findall(r'_take\w*\(entries, "([^"]+)"', source))
    assert "manifold.kind" in parsed and len(parsed) == 23
    assert table == parsed
    assert doc == parsed
