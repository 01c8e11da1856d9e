"""The examples are executed: each ``main()`` runs and prints the line
its walkthrough is about. (``failover_drill`` takes 13 s, so it runs in
the gating ``paper-shapes`` suite, ``benchmarks/test_production.py``.)"""

import importlib.util
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
], ids=["quickstart", "middlebox_offload", "fleet_planning"])
def test_example_main_prints_its_result(name, line, capsys):
    load_example(name).main()
    assert line in capsys.readouterr().out.splitlines()
