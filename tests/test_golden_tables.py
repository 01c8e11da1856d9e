"""One datapath configuration, and the bytes it renders.

"The same tables come out byte-identical" (ROADMAP north star) as a test:
sha256 of the rendered fig9 / fig12 / fleet tables at scaled-down
parameters, each recorded at the parent of the commit that added it. A
change that moves a digest changed simulated behaviour — re-record only
when that is the point of the change, and say so.
"""

import hashlib
import importlib

import pytest

FIG9_KWARGS = dict(fe_counts=(0, 2), duration=0.4, warmup=0.2,
                   concurrency_per_client=8, seed=3)
FIG12_KWARGS = dict(load_levels=(8,), seed=2)
FLEET_KWARGS = dict(n_vswitches=400, epochs=2, seed=0, shards=1, jobs=1)


@pytest.mark.parametrize("name,kwargs,digest", [
    ("fig9", FIG9_KWARGS, "888fc94320600068"),
    ("fig12", FIG12_KWARGS, "569ef72087b24e5c"),
    ("fleet", FLEET_KWARGS, "791384cdf446f552"),
], ids=["fig9", "fig12", "fleet"])
def test_table_bytes_match_recorded_digest(name, kwargs, digest):
    module = importlib.import_module(f"repro.experiments.{name}")
    text = module.run(**kwargs).to_text()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_no_legacy_switch_survives():
    """The ten on/off twins are gone; a stage has one body. Fluid is an
    ``ElephantFlow`` argument, not a process global."""
    from repro.fabric.link import Link
    from repro.net.five_tuple import FiveTuple
    from repro.net.packet import Packet
    from repro.sim.engine import Engine
    from repro.sim.resources import CpuResource
    from repro.vswitch import flow_records
    from repro.vswitch.rule_tables import AclTable
    from repro.vswitch.slow_path import SlowPath
    from repro.vswitch.vswitch import Datapath
    for owner, name in [
            (Engine, "micro_queue"), (SlowPath, "caching"),
            (AclTable, "bucketed"), (Packet, "memoize"),
            (FiveTuple, "memoize_key"), (Link, "burst"),
            (Datapath, "batching"), (CpuResource, "direct_dispatch"),
            (flow_records.FlowRecordStore, "enabled"),
            (flow_records, "FluidMode")]:
        assert not hasattr(owner, name), f"{owner.__name__}.{name} is back"
