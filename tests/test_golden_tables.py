"""One datapath configuration, and the bytes it renders.

"The same tables come out byte-identical" (ROADMAP north star) as a test:
sha256 of the rendered fig9 / fig11 / fig12 / fig14 / fleet /
policy_arena tables at scaled-down parameters, and of every model-based
experiment and chaos as ``python -m repro.experiments <id> --fast``
renders them, each recorded at the parent of the commit that added it.
``test_parallel_determinism.py`` renders the multi-point sweeps at
``jobs=2`` against the same kind of digest.
A change that moves a digest changed simulated behaviour — re-record
only when that is the point of the change, and say so.
"""

import ast
import hashlib
import importlib
from pathlib import Path

import pytest

from repro.experiments.runner import QUICK_KWARGS

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

FIG9_KWARGS = dict(fe_counts=(0, 2), duration=0.4, warmup=0.2,
                   concurrency_per_client=8, seed=3)
FIG12_KWARGS = dict(load_levels=(8,), seed=2)
FLEET_KWARGS = dict(n_vswitches=400, epochs=2, seed=0, shards=1, jobs=1)

#: The ``--fast`` tables (``QUICK_KWARGS``, else the defaults, seed 0).
FAST_DIGESTS = {
    "fig3": "85038374ed8103fc", "fig4": "ec03e27ff475f0ac",
    "table1": "88c4c423c554b326", "table3": "ded4dbf742b0bd47",
    "table4": "4468d12874bec8b3", "table5": "57152da1c04d983b",
    "fig13": "8312b059eff8d186", "fig15": "7ecd1965ae019864",
    "tablea1": "e78e4dd10f46d105", "figa1": "92438f3ca5d0f265",
    "appb2": "aa2e46a37273ba14", "chaos": "c89f278d383c35f6",
}

CASES = [
    ("fig9", FIG9_KWARGS, "888fc94320600068"),
    ("fig12", FIG12_KWARGS, "569ef72087b24e5c"),
    ("fleet", FLEET_KWARGS, "791384cdf446f552"),
    # One-point sweeps (``jobs=2`` clamps to 1), so a digest is what pins
    # them, not a jobs-identity rerun; fig14's bytes are the ~2 s failover.
    ("fig11", QUICK_KWARGS["fig11"], "949f78223fdba60b"),
    ("fig14", QUICK_KWARGS["fig14"], "224492ec80bb2195"),
    ("policy_arena", QUICK_KWARGS["policy_arena"], "6558e6a2565dcb9c"),
] + [(name, QUICK_KWARGS.get(name, {}), digest)
     for name, digest in FAST_DIGESTS.items()]


@pytest.mark.parametrize("name,kwargs,digest", CASES,
                         ids=[case[0] for case in CASES])
def test_table_bytes_match_recorded_digest(name, kwargs, digest):
    module = importlib.import_module(f"repro.experiments.{name}")
    text = module.run(**kwargs).to_text()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def _reads_spans_active(tree) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == "ACTIVE"
               and isinstance(node.value, ast.Name)
               and node.value.id == "_spans" for node in ast.walk(tree))


def _spans_active_forks(tree):
    """Lines where ``_spans.ACTIVE`` selects a datapath instead of
    guarding an observation: under ``or`` / ``not``, or in front of a
    body that returns."""
    for node in ast.walk(tree):
        negated = isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                               ast.Not)
        either = isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)
        if (negated or either) and _reads_spans_active(node):
            yield node.lineno
        if (isinstance(node, ast.If) and _reads_spans_active(node.test)
                and any(isinstance(inner, ast.Return) for stmt in node.body
                        for inner in ast.walk(stmt))):
            yield node.lineno


def test_no_legacy_switch_survives():
    """The ten on/off twins are gone; a stage has one body. Fluid is an
    ``ElephantFlow`` argument, not a process global. The eleventh —
    ``spans.ACTIVE`` — is only ever a guard in front of an observation."""
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
    guards = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        if ("telemetry" in path.relative_to(SRC).parts
                or "_spans" not in text):
            continue
        tree = ast.parse(text)
        forks = list(_spans_active_forks(tree))
        assert not forks, f"{path}: _spans.ACTIVE forks the datapath {forks}"
        guards += _reads_spans_active(tree)
    assert guards  # the walk found the files that carry the guard
