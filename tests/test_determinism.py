"""Seeded end-to-end determinism: the same seed renders the same table,
run to run. (Across ``--jobs`` it is ``test_parallel_determinism.py``,
across commits ``test_golden_tables.py``.)
"""


def test_same_seed_same_table_twice():
    from repro.experiments import fig9
    kwargs = dict(fe_counts=(2,), duration=0.3, warmup=0.1,
                  concurrency_per_client=8, seed=11)
    assert fig9.run(**kwargs).rows == fig9.run(**kwargs).rows
