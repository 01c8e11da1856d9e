"""The examples are executed: each ``main()`` runs and prints the line
its walkthrough is about. (``failover_drill`` takes 13 s, so it runs in
the gating ``paper-shapes`` suite, ``benchmarks/test_production.py``.)
``rate_limit_one_point`` is also §2.3.3's check: its ``measure`` is held
to the claim, and a mutant that moves enforcement to the FE fails it."""

import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,line", [
    ("quickstart", "  TX relayed via FEs     : 300"),
    ("middlebox_offload", "  transactions after offload: 1 completed"),
    ("fleet_planning",
     "vnics    480 overload-days before,   0 after  (mitigated 100.00%)"),
    ("rate_limit_one_point", "    4             1.02·L           4.02·L"),
], ids=["quickstart", "middlebox_offload", "fleet_planning",
        "rate_limit_one_point"])
def test_example_main_prints_its_result(name, line, capsys):
    load_example(name).main()
    assert line in capsys.readouterr().out.splitlines()


# -- §2.3.3: a VM-level rate limit is enforced at one point -----------------

def _check_one_point(example):
    """At the BE, the aggregate stays within one bucket's depth of L over
    the window for every N; cloned onto N FEs, it reaches about N·L."""
    limit = example.LIMIT_BPS
    bound = 1 + 8 * example.BURST_BYTES / (limit * example.WINDOW_S)
    for n_fes in example.FE_COUNTS:
        at_be = example.measure(n_fes, at_be=True) / limit
        assert at_be <= bound, f"BE row at N={n_fes}: {at_be:.2f}·L"
        cloned = example.measure(n_fes, at_be=False) / limit
        assert cloned >= 0.9 * n_fes, \
            f"clone row at N={n_fes}: {cloned:.2f}·L"


def _recompiled(cls, name, old, new):
    """``cls.name`` compiled from its own source with one edit."""
    module = sys.modules[cls.__module__]
    source = textwrap.dedent(inspect.getsource(getattr(cls, name)))
    assert source.count(old) == 1, f"mutation site moved: {old!r}"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"),
         namespace)
    return namespace[name]


def test_rate_limit_holds_at_one_point():
    _check_one_point(load_example("rate_limit_one_point"))


def test_rate_limit_moved_to_the_fes_trips_the_be_row(monkeypatch):
    """Enforcement moved to the FE: the BE polices nothing and each FE
    polices the VM-level limit with its own bucket, so N FEs let N·L
    through and the BE row fails from N = 2."""
    from repro.core.backend import BackendInstance
    from repro.core.frontend import FrontendInstance
    monkeypatch.setattr(BackendInstance, "handle_tx", _recompiled(
        BackendInstance, "handle_tx",
        "if not _qos_admits(vs, vnic, None, packet.wire_length):",
        "if False:"))
    monkeypatch.setattr(FrontendInstance, "handle_from_be", _recompiled(
        FrontendInstance, "handle_from_be", "vnic_level=False)",
        "vnic_level=True)"))
    with pytest.raises(AssertionError, match="BE row at N=2"):
        _check_one_point(load_example("rate_limit_one_point"))
