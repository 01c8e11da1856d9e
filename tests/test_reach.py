"""The reach census's comparator can fail: ``tools/reach.py`` run on a
tiny fixture package instead of ``src/repro`` (no experiment runs).

The fixture holds a decorated def, a nested def and methods; tracing its
import and two calls must key them exactly as the AST walk does, and
each way the allow-list can drift from the unreached set is reported.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"

FIXTURE = '''
import functools


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@deco
def decorated():
    def nested():
        return 1
    return nested()


class Box:
    def method(self):
        return 2

    def idle(self):
        return 3


def never():
    return 4
'''

EXACT = {"pkg/mod.py:Box.idle": "dunder", "pkg/mod.py:never": "error-path"}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    reach = _load("reach_tool", TOOL)
    root = tmp_path_factory.mktemp("reach")
    (root / "pkg").mkdir()
    (root / "pkg" / "mod.py").write_text(FIXTURE)
    universe = reach.functions(root, "pkg")
    with reach.tracing(root) as reached:
        mod = _load("reach_fixture", root / "pkg" / "mod.py")
        assert mod.decorated() == 1 and mod.Box().method() == 2
    return reach, universe, reached


def test_trace_keys_match_ast_keys(census):
    _reach, universe, reached = census
    assert set(universe) == {
        "pkg/mod.py:deco", "pkg/mod.py:deco.<locals>.wrapper",
        "pkg/mod.py:decorated", "pkg/mod.py:decorated.<locals>.nested",
        "pkg/mod.py:Box.method", "pkg/mod.py:Box.idle", "pkg/mod.py:never"}
    assert set(universe) - reached == set(EXACT)


def test_exact_list_is_accepted(census):
    reach, universe, reached = census
    assert reach.compare(universe, reached, EXACT) == []


@pytest.mark.parametrize("edit,problem", [
    (lambda a: a.pop("pkg/mod.py:never"),
     "unreached, not listed: pkg/mod.py:never"),
    (lambda a: a.update({"pkg/mod.py:Box.method": "dunder"}),
     "listed, but reached: pkg/mod.py:Box.method"),
    (lambda a: a.update({"pkg/mod.py:gone": "cli"}),
     "listed, no such function: pkg/mod.py:gone"),
    (lambda a: a.update({"pkg/mod.py:never": "misc"}),
     "unknown reason 'misc': pkg/mod.py:never"),
], ids=["unlisted", "reached", "missing", "reason"])
def test_each_drift_is_reported(census, edit, problem):
    reach, universe, reached = census
    allow = dict(EXACT)
    edit(allow)
    assert reach.compare(universe, reached, allow) == [problem]


def test_allow_file_format(census, tmp_path):
    reach, _universe, _reached = census
    path = tmp_path / "allow.txt"
    path.write_text("# header\n\npkg/mod.py:never  error-path  # why\n"
                    "pkg/mod.py:Box.idle dunder\n")
    assert reach.load_allow(path) == EXACT


def test_real_allow_list_names_live_functions_and_known_reasons(census):
    """The census's static half, without running anything: every line of
    ``tools/reach_allow.txt`` names a function under ``src/repro`` and
    gives a reason from ``REASONS``. Everything unlisted counts as
    reached, so only a stale key or an unknown reason can be reported."""
    reach = census[0]
    universe = reach.functions(reach.SRC)
    allow = reach.load_allow(reach.ALLOW)
    assert allow
    assert reach.compare(universe, set(universe) - set(allow), allow) == []
