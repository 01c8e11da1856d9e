#!/usr/bin/env python
"""Reach census: every function under ``src/repro`` is run by an
experiment, an example or a benchmark, or ``tools/reach_allow.txt``
lists it with a reason.

    python tools/reach.py

One process, traced with ``sys.settrace`` (call events only), runs every
experiment at ``--fast --jobs 1``; fleet again at ``--jobs 2``, so the
parent side of its resident worker pool is traced (the workers' own
calls happen in child processes the census cannot see); the examples;
fig9, chaos, fleet and policy_arena again with ``--telemetry``, each
capture followed
by ``tools/telemetry.py validate`` and ``report``; and ``pytest
benchmarks --benchmark-disable``.
pytest-benchmark switches tracing off inside timed calls, so a census or
profiler over ``benchmarks/`` without that flag reads everything a
benchmark times as unreached.

A function is keyed ``<path under src/>:<qualname>``: the code object's
``co_qualname`` on the traced side, the same dotted name (``<locals>``
included) from an AST walk on the source side. The census exits 1 if a
stage fails, if an unreached function is not listed, if a listed one was
reached or no longer exists, or if a reason is outside ``REASONS``. It
prints the unreached lines (``def`` spans) per reason.
"""

from __future__ import annotations

import ast
import contextlib
import os
import runpy
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOW = ROOT / "tools" / "reach_allow.txt"

#: Experiments re-run with ``--telemetry``: fig9 for the datapath
#: recorders, chaos for the controller / monitor ones, fleet for the
#: fleet snapshot and the coordinator's decision journal, policy_arena
#: for span lines (the only capture here that holds any), so ``report``
#: renders spans through the one aggregation.
TELEMETRY_CAPTURES = ("fig9", "chaos", "fleet", "policy_arena")

REASONS = {
    "pool": "worker-process side of sweep / ResidentPool (untraced)",
    "cli": "command-line entry points the census does not drive",
    "codec": "net/ wire formats kept whole (decode, options, errors)",
    "perfbench": "names perfbench/trace.py binds ([benchmark] PRs only)",
    "reference": "oracles and longhand references the tests compare to",
    "error-path": "raised or recovered only on misuse or failure",
    "dunder": "protocol methods (repr, eq, len, ...) for users and tests",
    "unit": "live API only unit tests call (queries, teardown, setters)",
    "item1": "policy branches the quick arena does not fire (PAM, SuperNIC)",
    "item2a": "§4.3 scale-in / fallback: live policy branches no run drives",
    "item4": "burst shapes only the reference oracle drives",
    "item6": "ConcurrentFlowHolder, waiting on the hot micro-sim rework",
    "item7": "MutualPing / watch_links, waiting on gray-failure chaos",
}


def functions(root: Path, package: str = "repro") -> Dict[str, int]:
    """``path:qualname`` -> lines its ``def`` spans, for every function
    under ``root/package`` (same-named defs, e.g. a property's getter and
    setter, share one key)."""
    found: Dict[str, int] = {}

    def walk(node: ast.AST, rel: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{rel}:{prefix}{child.name}"
                span = child.end_lineno - child.lineno + 1
                found[key] = found.get(key, 0) + span
                walk(child, rel, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, rel, f"{prefix}{child.name}.")
            else:
                walk(child, rel, prefix)

    for path in sorted((root / package).rglob("*.py")):
        walk(ast.parse(path.read_text()), path.relative_to(root).as_posix(),
             "")
    return found


@contextlib.contextmanager
def tracing(root: Path) -> Iterator[Set[str]]:
    """Yield a set that, on exit, holds the key of every function under
    ``root`` entered inside the block."""
    codes = set()

    def on_call(frame, _event, _arg):
        codes.add(frame.f_code)     # returning None: no line events

    previous = sys.gettrace()
    reached: Set[str] = set()
    sys.settrace(on_call)
    try:
        yield reached
    finally:
        sys.settrace(previous)
        prefix = str(root) + os.sep
        for code in codes:
            if code.co_filename.startswith(prefix):
                rel = Path(code.co_filename).relative_to(root).as_posix()
                reached.add(f"{rel}:{code.co_qualname}")


def load_allow(path: Path) -> Dict[str, str]:
    """``path:qualname  reason`` lines; ``#`` starts a comment."""
    allow: Dict[str, str] = {}
    for line in path.read_text().splitlines():
        key, _, reason = line.split("#", 1)[0].strip().partition(" ")
        if key:
            allow[key] = reason.strip()
    return allow


def compare(universe: Dict[str, int], reached: Set[str],
            allow: Dict[str, str]) -> List[str]:
    """Every way ``allow`` is not exactly the unreached part of
    ``universe``, one line each (empty: the list is exact)."""
    problems = [f"unreached, not listed: {key}" for key in sorted(universe)
                if key not in reached and key not in allow]
    for key, reason in sorted(allow.items()):
        if key not in universe:
            problems.append(f"listed, no such function: {key}")
        elif key in reached:
            problems.append(f"listed, but reached: {key}")
        if reason not in REASONS:
            problems.append(f"unknown reason {reason!r}: {key}")
    return problems


def stages(tmp: Path) -> Iterator[Tuple[str, Callable[[], object], bool]]:
    """(label, call, quiet): what the census runs, in order."""
    from repro.experiments import runner
    for name in runner.ALL_EXPERIMENTS:
        yield (f"{name} --fast", lambda name=name: runner.main(
            [name, "--fast", "--jobs", "1"]), True)
    yield ("fleet --fast --jobs 2", lambda: runner.main(
        ["fleet", "--fast", "--jobs", "2"]), True)
    for path in sorted((ROOT / "examples").glob("*.py")):
        yield (f"examples/{path.name}", lambda path=path: runpy.run_path(
            str(path), run_name="__main__"), True)
    cli = runpy.run_path(str(ROOT / "tools" / "telemetry.py"))["main"]
    for name in TELEMETRY_CAPTURES:
        capture = str(tmp / f"{name}.jsonl")
        yield (f"{name} --fast --telemetry",
               lambda name=name, capture=capture: runner.main(
                   [name, "--fast", "--jobs", "1", "--telemetry", capture]),
               True)
        for command in ("validate", "report"):
            yield (f"tools/telemetry.py {command} {name}.jsonl",
                   lambda command=command, capture=capture:
                   cli([command, capture]), True)
    import pytest
    yield ("pytest benchmarks", lambda: pytest.main(
        [str(ROOT / "benchmarks"), "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"]), False)


def run_stage(label: str, call: Callable[[], object], quiet: bool) -> bool:
    print(f"[reach] {label}", file=sys.stderr, flush=True)
    try:
        with open(os.devnull, "w") as sink, contextlib.ExitStack() as stack:
            if quiet:
                stack.enter_context(contextlib.redirect_stdout(sink))
            code = call()
    except SystemExit as exit_:
        code = exit_.code
    except Exception:
        traceback.print_exc()
        return False
    return not isinstance(code, int) or code == 0


def main() -> int:
    sys.path.insert(0, str(SRC))
    universe = functions(SRC)
    with tempfile.TemporaryDirectory() as tmp, tracing(SRC) as reached:
        failed = [label for label, call, quiet in stages(Path(tmp))
                  if not run_stage(label, call, quiet)]
    allow = load_allow(ALLOW)
    problems = compare(universe, reached, allow)
    problems += [f"stage failed: {label}" for label in failed]
    print(f"\nreach: {len(reached & universe.keys())} of {len(universe)} "
          f"functions entered; unreached, by reason:")
    for reason in REASONS:
        keys = [k for k, r in allow.items()
                if r == reason and k in universe and k not in reached]
        lines = sum(universe[k] for k in keys)
        print(f"  {reason:<11} {len(keys):4d} functions {lines:6d} lines")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
