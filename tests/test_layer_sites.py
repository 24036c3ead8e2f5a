"""The benchmark's tracer wraps program functions by module and attribute
name (perfbench/layers.py). A rename in the program would leave a layer
unwrapped, so it would read zero calls and the traced benchmark run would
fail; these tests catch that at tier-1 instead."""

import pytest

import wcsf
import wcsf.flow
from conftest import load_perfbench, report_steps


def test_every_traced_site_resolves():
    layers = load_perfbench("layers")
    missing = [(module, attr) for _, module, attr in layers.SITES
               if layers._resolve(module, attr) is None]
    assert missing == []


def test_untraced_rhs_counter_target_exists():
    # the untraced run counts RHS evaluations by replacing this name
    assert callable(getattr(wcsf.flow, "compute_fields", None))


def test_rhs_counter_counts_four_per_step_plus_one(tmp_path, monkeypatch):
    # the benchmark's untraced counter wraps wcsf.cli.run and
    # wcsf.flow.compute_fields; monkeypatch restores both afterwards
    import wcsf.cli

    monkeypatch.setattr(wcsf.cli, "run", wcsf.cli.run)
    monkeypatch.setattr(wcsf.flow, "compute_fields", wcsf.flow.compute_fields)
    counts = load_perfbench("layers").count_main_rhs()
    scn = wcsf.parse_config("manifold.kind = left\nwarp.exp_cos = 0.3\n"
                            "init.sin = 0.0, 0.3\ngrid.m = 32\n"
                            "time.t_max = 0.5\nrecord.stride = 7\n")
    code, _ = wcsf.cli.execute_scenario(scn, tmp_path)
    steps = report_steps(tmp_path)
    assert code == 0 and steps > 1
    assert counts["main"] == 4 * steps + 1


def test_sweep_calls_are_accepted():
    # the calls perfbench/sweep.py makes, with its argument shapes
    from wcsf import (LEFT, FlowState, FourierField, WarpedProduct,
                      adaptive_dt, compute_fields, make_graph_curve, spectral,
                      step_rk4)

    manifold = WarpedProduct(LEFT, warp=FourierField.exp_cos(0.3))
    curve = make_graph_curve(FourierField([0.0], [0.0, 0.3]), 64)
    spectral.diff12(curve.coords[:, 1].copy())
    state = FlowState(curve, 0.0, compute_fields(curve, manifold))
    dt = adaptive_dt(state, 0.25)
    nxt = step_rk4(state, manifold, dt)
    assert nxt.t == dt and nxt.curve.m == 64


def install_tracer(monkeypatch):
    """A perfbench Tracer wrapped around every layer site; monkeypatch
    puts the program's own functions back afterwards."""
    layers = load_perfbench("layers")
    for _, module, attr in layers.SITES:
        owner, name, fn = layers._resolve(module, attr)
        monkeypatch.setattr(owner, name, fn)
    tracer = layers.Tracer()
    tracer.install()
    return tracer


@pytest.mark.parametrize("name", sorted(load_perfbench("workloads").SMOKE))
def test_traced_run_reaches_every_layer_of_its_workload(tmp_path,
                                                        monkeypatch, name):
    # a traced benchmark repetition fails when a layer its workload must
    # reach saw no calls, e.g. after a call-graph change moves a monitor
    # or writer out of execute_scenario or behind another name; each
    # workload's short variant must reach its layers, and the kernel
    # must run 4 times a step plus once inside the scenario's own flow
    import wcsf.cli

    workload = load_perfbench("workloads").SMOKE[name]
    tracer = install_tracer(monkeypatch)
    scn = wcsf.parse_config(workload.config(0))
    code, _ = wcsf.cli.execute_scenario(scn, tmp_path)
    steps = report_steps(tmp_path)
    assert code == workload.exit_code
    assert sorted(layer for layer in workload.reaches
                  if tracer.stats[layer][0] == 0) == []
    assert tracer.rhs["main"] == 4 * steps + 1


def test_traced_verify_integrates_no_study_flow(tmp_path, monkeypatch):
    # every check of `wcsf verify` reads the states its own flow recorded,
    # so the tracer books no kernel call under "study"; outside any flow
    # the gradient study computes the fields of its initial curves, one
    # per grid of the ladder, and nothing rebuilds a state
    import wcsf.cli

    tracer = install_tracer(monkeypatch)
    scn = wcsf.parse_config("manifold.kind = left\nwarp.exp_cos = 0.3\n"
                            "init.sin = 0.0, 0.3\ngrid.m = 32\n"
                            "time.t_max = 0.2\nrecord.stride = 10\n"
                            + "".join(f"verify.{k} = on\n" for k in
                                      ("bounds", "dissipation", "evolution",
                                       "commutator", "gradient")))
    code, _ = wcsf.cli.execute_scenario(scn, tmp_path)
    steps = report_steps(tmp_path)
    assert code == 0 and steps > 1
    assert tracer.rhs["study"] == 0
    assert tracer.rhs["main"] == 4 * steps + 1
    assert tracer.stats["curves.compute_fields"][0] == 4 * steps + 1 + len(
        wcsf.verification.LADDER_GRIDS)


# (steps, kernel calls) of each smoke workload at seed 0; the benchmark
# gates steps and rhs_evals, so a change that moves them shows here first
SMOKE_COUNTS = {"left_warped.smoke": (14, 57),
                "right_warped.smoke": (36, 145),
                "product_record.smoke": (80, 321),
                "curved_verify.smoke": (19, 77)}


def test_smoke_workloads_keep_their_step_and_kernel_counts(monkeypatch):
    kernel = wcsf.flow.compute_fields
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(wcsf.flow, "compute_fields", counted)
    counts = {}
    for name, workload in load_perfbench("workloads").SMOKE.items():
        scn = wcsf.parse_config(workload.config(0))
        calls[0] = 0
        _, rep = wcsf.run(scn.manifold, scn.initial_curve(), scn.params)
        counts[name] = (rep.steps, calls[0])
    assert counts == SMOKE_COUNTS
