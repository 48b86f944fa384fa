"""Every module under ``src/repro`` is reached from an entry point.

The entry points are the CLI, the benchmark (``bench/``), the
paper-figure suite (``benchmarks/``) and the examples.  The walk reads
``ast`` imports, at any depth of a file, transitively.  A package's
``__init__`` imports are re-exports and are not followed:
``from repro.pkg import Name`` reaches the submodule that defines
``Name``, so a re-exported module does not look used.  A
``"repro.x.y:func"`` string constant is a sweep worker spec and counts
as an import of ``repro.x.y``.  A module this test reports is code that
only tests run: give it a caller or delete it.
"""

import ast
import functools
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_POINTS = [
    SRC / "repro" / "cli.py",
    SRC / "repro" / "__main__.py",
    *sorted((ROOT / "bench").glob("*.py")),
    *sorted((ROOT / "benchmarks").glob("*.py")),
    *sorted((ROOT / "examples").glob("*.py")),
]
WORKER_SPEC = re.compile(r"(repro(?:\.\w+)+):\w+")


def _path(module: str) -> pathlib.Path | None:
    """The source file of a ``repro`` module, or None."""
    base = SRC.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@functools.cache
def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text())


def _absolute(node: ast.ImportFrom, path: pathlib.Path) -> str:
    """The module an ``ImportFrom`` in ``path`` names."""
    if not node.level:
        return node.module
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[:len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _definer(module: str, name: str) -> str:
    """The module that ``from module import name`` reaches."""
    if _path(f"{module}.{name}"):
        return f"{module}.{name}"
    path = _path(module)
    if path is None or path.name != "__init__.py":
        return module
    for node in _tree(path).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _definer(_absolute(node, path), alias.name)
    return module


def _imports(path: pathlib.Path):
    """Every ``repro`` module the code in ``path`` imports."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(node, path)
            for alias in node.names:
                yield _definer(module, alias.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                           str):
            match = WORKER_SPEC.fullmatch(node.value)
            if match:
                yield match.group(1)


def reached() -> set[str]:
    """The ``repro`` modules the entry points reach, with their
    parent packages."""
    seen: set[str] = set()
    stack = list(ENTRY_POINTS)
    while stack:
        for module in _imports(stack.pop()):
            path = _path(module)
            if path is None or module in seen:
                continue
            parts = module.split(".")
            seen.update(".".join(parts[:i]) for i in range(1, len(parts)))
            seen.add(module)
            if path.name != "__init__.py":
                stack.append(path)
    return seen | {_module_name(p) for p in ENTRY_POINTS
                   if SRC in p.parents}


def test_every_module_is_reached_from_an_entry_point():
    modules = {_module_name(path)
               for path in (SRC / "repro").rglob("*.py")}
    assert sorted(modules - reached()) == []


def test_a_re_export_alone_does_not_reach_a_module():
    assert _definer("repro.serving", "TritonLikeServer") == \
        "repro.serving.server"
    assert _definer("repro", "InferenceEngine") == "repro.engine.engine"
    assert _definer("repro.serving", "events") == "repro.serving.events"
