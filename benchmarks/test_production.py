"""Benchmarks for the production results: Table 3, Table 4, Fig 13,
Fig 14, plus App B.2."""

from benchmarks.conftest import full_mode

from repro.experiments import appb2, fig13, fig14, table3, table4
from repro.workloads.fleet import HotspotKind


def test_table3_middlebox_gains(run_experiment):
    result = run_experiment(table3.run)
    gains = {(row["middlebox"], row["metric"]): row["measured_gain"]
             for row in result.rows}
    assert 3.4 < gains[("load-balancer", "cps")] < 4.6
    assert 3.8 < gains[("nat-gateway", "cps")] < 5.0
    assert 2.5 < gains[("transit-router", "cps")] < 3.5
    # TR gains least (bypasses the ACL).
    assert gains[("transit-router", "cps")] \
        < gains[("load-balancer", "cps")]
    assert gains[("transit-router", "cps")] < gains[("nat-gateway", "cps")]
    # Flows: NAT >> TR >> LB, near the paper's factors.
    assert 40 < gains[("nat-gateway", "flows")] < 60
    assert 12 < gains[("transit-router", "flows")] < 19
    assert 4 < gains[("load-balancer", "flows")] < 6.5
    # #vNICs > 40x everywhere.
    for mb in ("load-balancer", "nat-gateway", "transit-router"):
        assert gains[(mb, "vnics")] > 40


def test_table4_activation_completion(run_experiment):
    result = run_experiment(table4.run,
                            n_offloads=800 if full_mode() else 300)
    rows = {row["percentile"]: row["measured_ms"] for row in result.rows}
    assert 800 < rows["avg"] < 1400          # paper ~1077ms
    assert 1200 < rows["P90"] < 1900         # paper ~1503ms
    assert 1700 < rows["P99"] < 2900         # paper ~2087ms
    assert rows["P999"] < 4500               # paper ~2858ms
    assert rows["avg"] < rows["P90"] < rows["P99"] < rows["P999"]


def test_fig13_overload_mitigation(run_experiment):
    result = run_experiment(fig13.run,
                            n_vswitches=20_000 if full_mode() else 10_000,
                            days=60 if full_mode() else 30)
    rows = {row["cause"]: row for row in result.rows}
    assert rows["cps"]["mitigated_fraction"] > 0.995
    assert rows["flows"]["mitigated_fraction"] > 0.995
    assert rows["vnics"]["mitigated_fraction"] == 1.0
    assert rows["cps"]["before_per_day"] > rows["vnics"]["before_per_day"]


def test_fig14_fe_crash_loss_surge(run_experiment):
    result = run_experiment(fig14.run)
    losses = [(row["time_s"], row["loss_rate"]) for row in result.rows]
    surge = [t for t, loss in losses if loss > 0.02]
    assert surge, "the crash must cause visible loss"
    # Recovery within a few seconds (paper: ~2s).
    assert max(surge) - min(surge) < 4.0
    # Loss vanishes again after failover.
    post = [loss for t, loss in losses if t > max(surge) + 1.0]
    assert post and max(post) < 0.02
    # Active-active: only ~1/4 of transactions ever affected overall
    # (per-bucket loss can spike to 1.0 when timeouts bunch up).
    total_loss = sum(loss for _t, loss in losses) / max(1, len(losses))
    assert total_loss < 0.25


def test_failover_drill_example_recovers(capsys):
    """``examples/failover_drill.py`` is Fig 14 as a walkthrough; it was
    broken for the same six PRs and nothing ran it."""
    import re

    from tests.test_examples import load_example
    load_example("failover_drill").main()
    out = capsys.readouterr().out
    losses = [float(pct) for pct in re.findall(r"loss +([\d.]+)%", out)]
    assert max(losses) > 2.0, "the crash must cause visible loss"
    assert len(losses) >= 8 and max(losses[-4:]) <= 2.0
    assert "(4 FEs — minimum of 4 restored)" in out


def test_appb2_scale_out_ratio(run_experiment):
    result = run_experiment(appb2.run)
    rows = {row["quantity"]: row["measured"] for row in result.rows}
    assert rows["offload events"] == 2499
    assert rows["scale-out ratio"] < 0.05    # paper: 2.6%
    assert 9996 <= rows["FEs provisioned"] < 10600
