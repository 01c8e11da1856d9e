"""Parallel execution must be semantically invisible: every multi-point
experiment renders at ``jobs=2`` the bytes it renders at ``jobs=1``.

Each sweep point builds its own engine and derives randomness from plain
integer seeds carried in the point, so running it in a pool worker (a
fresh process) and running it Nth-in-sequence in this process must agree
exactly — these tests also catch any process-global state leaking into
results. Each experiment renders once, at ``jobs=2``, against a sha256
digest recorded at ``jobs=1`` at the parent of the commit that added it:
one render proves both the pinned bytes and pool identity. Parameters
are scaled far below paper fidelity. Only multi-point sweeps belong
here: fig11 and fig14 are one-point sweeps (``jobs=2`` clamps to 1), so
``test_golden_tables.py`` pins their bytes at ``jobs=1``.
"""

import hashlib

import pytest

from repro.experiments import fig2, fig9, fig10, fig12, tablea1
from repro.experiments.capacity import CapacityModel, sweep_gains

CASES = [
    (fig2, dict(n_vms=2, duration=0.3, concurrency_per_client=8, seed=1),
     "64403a8c2b25f769"),
    (fig9, dict(fe_counts=(0, 2), duration=0.4, warmup=0.2,
                concurrency_per_client=8, seed=3), "888fc94320600068"),
    (fig10, dict(vcpu_counts=(16,), duration=0.3, warmup=0.1,
                 concurrency_per_client=8, seed=1), "d735cde9d2c63b8a"),
    (fig12, dict(load_levels=(8,), seed=2), "569ef72087b24e5c"),
    (tablea1, dict(lookups_per_cell=10), "e78e4dd10f46d105"),
]


@pytest.mark.parametrize("module,kwargs,digest", CASES,
                         ids=[module.__name__.rsplit(".", 1)[-1]
                              for module, _, _ in CASES])
def test_jobs_2_table_identical_to_jobs_1(module, kwargs, digest):
    parallel = module.run(jobs=2, **kwargs)
    assert parallel.rows  # the pool actually produced data
    text = parallel.to_text()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


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
