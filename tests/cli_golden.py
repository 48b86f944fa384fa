"""Golden outputs of the simulation subcommands, pinned byte for byte.

``tests/golden/cli/<case>/`` holds one run of the CLI: ``stdout.txt``
with the output directory replaced by ``<tmp>``, every written file of
up to 16 KiB verbatim, and larger files as ``<name>.sha256``.
``defaults.json`` holds each simulation subcommand's parser defaults.

A CLI output changes only together with regenerated goldens
(``PYTHONPATH=src python tools/regen_cli_goldens.py``) and a line in
CHANGES.md that says why.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli"
TMP = "<tmp>"
INLINE_LIMIT = 16 * 1024
SIMULATION_COMMANDS = ("metrics", "autoscale", "trace", "cache",
                       "network", "profile", "faas", "sweep")


def parser_defaults() -> dict:
    """``vars(parse_args([cmd]))`` per simulation subcommand, sans func."""
    from repro.cli import build_parser

    parser = build_parser()
    return {cmd: {k: v for k, v in vars(parser.parse_args([cmd])).items()
                  if k != "func"}
            for cmd in SIMULATION_COMMANDS}


def snapshot(stdout: str, out_dir: pathlib.Path | None) -> dict:
    """One run as ``{golden file name: bytes}``."""
    files = {"stdout.txt": (stdout if out_dir is None
                            else stdout.replace(str(out_dir), TMP)).encode()}
    for path in sorted(out_dir.iterdir()) if out_dir is not None else ():
        data = path.read_bytes()
        if len(data) > INLINE_LIMIT:
            files[f"{path.name}.sha256"] = (
                hashlib.sha256(data).hexdigest() + "\n").encode()
        else:
            files[path.name] = data
    return files


def assert_golden(case: str, stdout: str,
                  out_dir: pathlib.Path | None = None) -> None:
    """Require a run's stdout and written files to match the golden."""
    expected = {path.name: path.read_bytes()
                for path in sorted((GOLDEN / case).iterdir())}
    actual = snapshot(stdout, out_dir)
    assert sorted(actual) == sorted(expected), case
    for name, data in expected.items():
        assert actual[name] == data, f"{case}/{name} differs from golden"


def defaults_text() -> str:
    return json.dumps(parser_defaults(), indent=2, sort_keys=True) + "\n"
