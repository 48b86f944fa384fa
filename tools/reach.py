"""The reach audit: which ``src/repro`` code only tier-1 runs.

Run from the repository root (4 to 8 min on a 2-vCPU host, so it is
not run in CI):

    PYTHONPATH=src python tools/reach.py

A ``sys.setprofile`` hook (``threading.setprofile`` for threads)
records which functions under ``src/repro`` run under each source, one
child process per source:

* ``cli`` — every pinned argument set of
  ``tools/regen_cli_goldens.CASES``, plus the six report-style
  subcommands, in a scratch directory;
* ``bench`` — one execution of each ``bench/`` workload (seed 1);
* ``examples`` — every script in ``examples/``;
* ``benchmarks`` — ``pytest benchmarks/``, run from a copy so the
  committed ``benchmarks/results/`` files are not rewritten;
* ``tier1`` — ``pytest tests/``.

It then prints each module none of whose functions runs outside tier-1,
and each other function that runs under no source but tier-1 (marked
``never`` when tier-1 does not run it either), with line counts.  Many
such functions are legitimate test-side readers (``parse_metrics``,
``validate_chrome_trace``): the function list is for review, the module
list is for deletion.  A module that defines no function is not
audited.  Processes a source starts itself (the examples tier-1 runs as
scripts, sweep pool workers above ``--jobs 1``) are not recorded;
``sweep --jobs 1`` runs its shards inline, so ``cli`` covers ``sweep/``.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import io
import json
import os
import pathlib
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: The report-style subcommands, which have no golden.
REPORTS = (
    ["report", "all"],
    ["compare"],
    ["advise", "--platform", "a100", "--dataset", "plant_village"],
    ["predict", "--model", "vit_tiny", "--platform", "jetson"],
    ["figures", "--out", "figures"],
    ["backtest", "--platform", "v100", "--donor", "a100"],
)


def _cli() -> None:
    sys.path[:0] = [str(ROOT / "tools"), str(ROOT)]
    from regen_cli_goldens import CASES

    from repro.cli import main

    runs = [args + [part for pair in outputs.items() for part in pair]
            for args, outputs in CASES.values()]
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for argv in runs + list(REPORTS):
            with contextlib.redirect_stdout(io.StringIO()):
                if main(list(argv)) != 0:
                    raise SystemExit(f"repro {' '.join(argv)} failed")


def _bench() -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        workload.execute(workload.setup(1, False))


def _examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        sys.argv = [str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")


def _pytest(path: pathlib.Path) -> None:
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", str(path)])
    print(f"pytest {path.name}: exit {int(code)}", file=sys.stderr)


def _benchmarks() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "benchmarks"
        shutil.copytree(ROOT / "benchmarks", copy, ignore=shutil
                        .ignore_patterns("results", "__pycache__"))
        _pytest(copy)


def _tier1() -> None:
    _pytest(ROOT / "tests")


SOURCES = {"cli": _cli, "bench": _bench, "examples": _examples,
           "benchmarks": _benchmarks, "tier1": _tier1}


def record(source: str, out: pathlib.Path) -> None:
    """Run ``source`` under the hook; write the ``[path, first line]``
    of every ``src/repro`` code object that ran to ``out``."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # pytest-benchmark calls sys.setprofile(None) around every timed
    # run; left alone, that would hide all benchmarked code.
    set_profile = sys.setprofile
    sys.setprofile = lambda func: None
    threading.setprofile(hook)
    set_profile(hook)
    try:
        SOURCES[source]()
    finally:
        set_profile(None)
        sys.setprofile = set_profile
    prefix = str(PACKAGE) + os.sep
    paths = {code: os.path.realpath(code.co_filename) for code in codes}
    ran = sorted({(os.path.relpath(path, SRC), code.co_firstlineno)
                  for code, path in paths.items()
                  if path.startswith(prefix)})
    out.write_text(json.dumps(ran))


def functions() -> dict:
    """``(path, first line) -> (qualified name, lines)`` for every
    function under ``src/repro``; the first line is a decorator's, as
    in ``co_firstlineno``."""
    found = {}

    def visit(node, rel: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                found[rel, first] = (prefix + child.name,
                                     child.end_lineno - first + 1)
                visit(child, rel, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, rel, f"{prefix}{child.name}.")
            else:
                visit(child, rel, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()),
              path.relative_to(SRC).as_posix(), "")
    return found


def report(runs: dict) -> None:
    """Print the modules and functions only tier-1 reaches."""
    outside = set().union(*(ran for source, ran in runs.items()
                            if source != "tier1"))
    for source, ran in runs.items():
        print(f"{source}: {len(ran)} functions ran")
    table = functions()
    by_module = collections.defaultdict(list)
    for key in table:
        by_module[key[0]].append(key)
    orphans = sorted(rel for rel, keys in by_module.items()
                     if outside.isdisjoint(keys))
    sizes = {rel: len((SRC / rel).read_text().splitlines())
             for rel in orphans}
    print(f"modules no source outside tier-1 reaches: {len(orphans)}, "
          f"{sum(sizes.values())} lines")
    for rel in orphans:
        print(f"  {rel}  {sizes[rel]} lines")
    lonely = sorted(key for key in table if key not in outside
                    and key[0] not in orphans)
    print(f"functions only tier-1 reaches: {len(lonely)}, "
          f"{sum(table[key][1] for key in lonely)} lines")
    for key in lonely:
        name, lines = table[key]
        never = "" if key in runs["tier1"] else "  never"
        print(f"  {key[0]}:{key[1]}  {name}  {lines} lines{never}")


def main() -> None:
    if sys.argv[1:2] == ["--record"]:
        record(sys.argv[2], pathlib.Path(sys.argv[3]))
        return
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for source in SOURCES:
            out = pathlib.Path(tmp) / f"{source}.json"
            print(f"recording {source} ...", file=sys.stderr, flush=True)
            subprocess.run([sys.executable, __file__, "--record", source,
                            str(out)], cwd=ROOT, env=env,
                           stdout=subprocess.DEVNULL, check=True)
            runs[source] = {tuple(key)
                            for key in json.loads(out.read_text())}
    report(runs)


if __name__ == "__main__":
    main()
