"""Parallel execution must be semantically invisible: for every
refactored experiment, ``jobs=2`` renders a table byte-identical to the
``jobs=1`` legacy in-process path.

Each sweep point builds its own engine and derives randomness from plain
integer seeds carried in the point, so running it in a pool worker (a
fresh process) and running it Nth-in-sequence in this process must agree
exactly — these tests also catch any process-global state leaking into
results. Parameters are scaled far below paper fidelity: identity, not
shape, is the property under test. Only multi-point sweeps belong here:
fig11 and fig14 are one-point sweeps (``jobs=2`` clamps to 1), so their
bytes are pinned by a digest in ``test_golden_tables.py`` instead.
"""

import pytest

from repro.experiments import fig2, fig9, fig10, fig12, tablea1
from repro.experiments.capacity import CapacityModel, sweep_gains

CASES = [
    (fig2, dict(n_vms=2, duration=0.3, concurrency_per_client=8, seed=1)),
    (fig9, dict(fe_counts=(0, 2), duration=0.3, warmup=0.1,
                concurrency_per_client=8, seed=3)),
    (fig10, dict(vcpu_counts=(16,), duration=0.3, warmup=0.1,
                 concurrency_per_client=8, seed=1)),
    (fig12, dict(load_levels=(8,), duration=0.5, seed=2)),
    (tablea1, dict(lookups_per_cell=10)),
]


@pytest.mark.parametrize("module,kwargs", CASES,
                         ids=[module.__name__.rsplit(".", 1)[-1]
                              for module, _ in CASES])
def test_jobs_2_table_identical_to_jobs_1(module, kwargs):
    sequential = module.run(jobs=1, **kwargs)
    parallel = module.run(jobs=2, **kwargs)
    assert parallel.to_text() == sequential.to_text()
    assert parallel.rows  # the pool actually produced data


def test_capacity_sweep_gains_identical_across_jobs():
    model = CapacityModel()
    fe_counts = (0, 1, 2, 4, 8)
    assert sweep_gains(fe_counts, model=model, jobs=2) == \
        sweep_gains(fe_counts, model=model, jobs=1)


def test_capacity_sweep_gains_matches_model():
    model = CapacityModel()
    rows = sweep_gains((0, 4), model=model)
    assert [row["n_fes"] for row in rows] == [0, 4]
    assert rows[0] == {"n_fes": 0, "cps_gain": 1.0, "flows_gain": 1.0,
                       "vnics_gain": 1.0}
    assert rows[1]["flows_gain"] == pytest.approx(model.flows_gain(4))
    assert rows[1]["cps_gain"] == pytest.approx(model.cps_gain(4))
