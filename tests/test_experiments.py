"""Tests for the experiments layer: result tables, the capacity model,
and the fast (model-based) experiment modules.

The DES-heavy experiments (fig9..fig12, fig14) are exercised end to end
by the benchmark suite; here we keep unit-level checks fast.
"""

import pytest

from repro.experiments import ExperimentResult
from repro.experiments.capacity import CapacityModel
from repro.experiments.common import relative_error
from repro.experiments import (appb2, fig3, fig13, fig15, figa1, table1,
                               table3, table5, tablea1)


# -- ExperimentResult ------------------------------------------------------------

def test_result_rows_and_lookup():
    result = ExperimentResult("x", "demo", ["a", "b"])
    result.add_row(a=1, b=2.5)
    result.add_row(a=2, b=1e6)
    assert [row["a"] for row in result.rows] == [1, 2]
    assert result.row_where("a", 2)["b"] == 1e6
    with pytest.raises(KeyError):
        result.row_where("a", 99)


def test_result_renders_text():
    result = ExperimentResult("x", "demo", ["name", "value"])
    result.add_row(name="alpha", value=0.123456)
    result.note("a note")
    text = result.to_text()
    assert "alpha" in text and "0.123" in text and "note: a note" in text


def test_relative_error():
    assert relative_error(1.1, 1.0) == pytest.approx(0.1)
    assert relative_error(5.0, 0.0) == 5.0


def test_fmt_negative_floats_mirror_positive():
    fmt = ExperimentResult._fmt
    # A negative float must render as "-" plus its positive twin — same
    # threshold bucket, same precision — in every magnitude regime.
    for value in (1e-6, 5e-05, 0.123456, 9.9999, 12.34, 999.94,
                  1234.5, 1e6):
        assert fmt(-value) == "-" + fmt(value)
    assert fmt(-12.34) == "-12.3"
    assert fmt(-0.123456) == "-0.123"
    assert fmt(-1e6) == "-1,000,000"
    assert fmt(-0.0) == "0"            # no stray sign on negative zero
    assert fmt(-5) == "-5"             # ints untouched


def test_to_text_aligns_negative_cells():
    result = ExperimentResult("x", "demo", ["delta"])
    result.add_row(delta=-3.21)
    result.add_row(delta=3.21)
    lines = result.to_text().splitlines()
    assert lines[3].startswith("-3.21")
    assert lines[4].startswith("3.21")
    assert len(lines[3].rstrip()) >= len(lines[4].rstrip())


# -- CapacityModel -----------------------------------------------------------------

def test_capacity_baseline_cps_is_paper_scale():
    cap = CapacityModel()
    assert 9e4 < cap.baseline_cps() < 1.6e5      # O(100K) CPS (§2.2.2)


def test_capacity_cps_gain_saturates_at_vm_limit():
    cap = CapacityModel()
    gains = [cap.cps_gain(k) for k in (1, 2, 4, 8)]
    assert gains[0] < gains[1] < gains[2]
    assert gains[3] == pytest.approx(gains[2])    # plateau
    assert 2.2 < gains[2] < 3.2                   # ~3x at saturation


def test_capacity_be_never_bottleneck():
    cap = CapacityModel()
    assert cap.cost_model.total_hz / cap.be_conn_cycles() \
        > cap.vm_cps_limit()


def test_capacity_flows_gain_shape():
    cap = CapacityModel()
    assert cap.flows_gain(4) == pytest.approx(3.8, abs=0.3)
    assert cap.flows_gain(8) == cap.flows_gain(4)     # saturated
    assert cap.flows_gain(2) < cap.flows_gain(4)


def test_capacity_vnics_proportional_and_capped():
    cap = CapacityModel()
    assert cap.vnics_gain(8) == pytest.approx(2 * cap.vnics_gain(4))
    assert cap.vnics_theoretical_max_gain() == pytest.approx(1000.0, rel=0.05)


# -- fast experiment modules ------------------------------------------------------------

def test_fig3_experiment_shape():
    result = fig3.run(n_vswitches=20_000)
    shares = {row["cause"]: row["measured_share"] for row in result.rows}
    assert shares["cps"] > shares["flows"] > shares["vnics"]
    assert sum(shares.values()) == pytest.approx(1.0)


def test_table1_normalized_to_p9999():
    result = table1.run(n_samples=20_000)
    for row in result.rows:
        if row["percentile"] == "P9999":
            assert row["measured"] == pytest.approx(1.0)


def test_fig13_vnic_overloads_always_mitigated():
    result = fig13.run(n_vswitches=3000, days=10)
    assert result.row_where("cause", "vnics")["mitigated_fraction"] == 1.0


def test_fig15_regions_in_paper_band():
    result = fig15.run(sessions_per_region=3000)
    for row in result.rows:
        assert 4.5 < row["avg_state_bytes"] < 9.5


def test_table3_ordering():
    result = table3.run()
    cps = {row["middlebox"]: row["measured_gain"] for row in result.rows
           if row["metric"] == "cps"}
    assert cps["transit-router"] < cps["load-balancer"]
    assert cps["transit-router"] < cps["nat-gateway"]
    flows = {row["middlebox"]: row["measured_gain"] for row in result.rows
             if row["metric"] == "flows"}
    assert flows["nat-gateway"] > flows["transit-router"] > \
        flows["load-balancer"]


def test_table5_scale_out_windows():
    result = table5.run()
    row = result.row_where("item", "scale-out time (days)")
    assert 1 <= row["nezha"] <= 7
    assert row["sailfish"] >= 30


def test_tablea1_monotonicity():
    result = tablea1.run(lookups_per_cell=50)
    rows = {(r["pkt_bytes"], r["acl_rules"]): r["measured_mpps"]
            for r in result.rows}
    assert rows[(64, 0)] > rows[(64, 1000)]
    assert rows[(64, 0)] > rows[(512, 0)]


def test_figa1_growth():
    result = figa1.run(samples_per_point=50)
    vcpu_rows = {r["value"]: r["avg_downtime_s"] for r in result.rows
                 if r["dimension"] == "vcpus"}
    assert vcpu_rows[128] > vcpu_rows[4]


def test_appb2_counts_consistent():
    result = appb2.run(n_events=500)
    rows = {row["quantity"]: row["measured"] for row in result.rows}
    assert rows["FEs provisioned"] >= 4 * rows["offload events"]
    assert 0 <= rows["scale-out ratio"] < 0.2


# -- CLI runner --------------------------------------------------------------------

def test_runner_list_and_unknown(capsys):
    from repro.experiments.runner import main
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig9" in out and "table4" in out
    assert main(["nope"]) == 2


def test_runner_runs_fast_experiment(capsys):
    from repro.experiments.runner import main
    assert main(["table5"]) == 0
    out = capsys.readouterr().out
    assert "deployment costs" in out
