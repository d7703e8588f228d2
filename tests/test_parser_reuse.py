"""``cli.main`` called many times in one interpreter reuses one parser and
prints, for each command line, what a fresh ``python -m pqsurf.cli``
prints: the same stdout, stderr and exit code, argparse's usage, errors,
``--help`` and ``--version`` included."""

import contextlib
import io
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import zip_longest
from pathlib import Path

from pqsurf import cli

REPO = Path(__file__).resolve().parents[1]
INPUTS = sorted((REPO / "surfaces").iterdir()) + sorted((REPO / "tests" / "golden" / "inputs").iterdir())
COLUMNS = "80"

SUCCESSES = [
    *(["analyze", str(path), *fmt] for path in INPUTS for fmt in ([], ["--format", "json"])),
    ["reproduce-tables"],
    ["reproduce-tables", "--format", "json"],
    ["reproduce-tables", "--row", "Q8"],
    ["search", "V4", "1", "2,2"],
    ["search", "Q8", "1", "2"],
]
# argparse exits (help, version, usage errors) and pqsurf errors
OTHERS = [
    ["--version"],
    [],
    ["analyze", str(INPUTS[0]), "--format", "xml"],
    ["--help"],
    ["search", "V4", "x", "2"],
    ["analyze", "--help"],
    ["analyze", str(INPUTS[0]), "--bogus"],
    ["reproduce-tables", "--row", "nope"],
    ["search", "V4", "1", "2,,2"],
]
# each call follows a call of another kind
ARGVS = [argv for pair in zip_longest(SUCCESSES, OTHERS) for argv in pair if argv is not None]


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def in_subprocess(argv):
    env = dict(os.environ, COLUMNS=COLUMNS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pqsurf.cli", *argv],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_repeated_main_calls_match_fresh_processes(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    monkeypatch.setattr(cli, "_parser", None)
    builds = []
    build = cli._build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting_build)
    in_one_process = [in_process(argv) for argv in ARGVS]
    assert len(builds) == 1

    with ThreadPoolExecutor(max_workers=2) as pool:
        fresh = list(pool.map(in_subprocess, ARGVS))
    for argv, got, want in zip(ARGVS, in_one_process, fresh):
        assert got == want, argv
    codes = {tuple(argv): code for argv, (code, _, _) in zip(ARGVS, fresh)}
    assert {codes[tuple(argv)] for argv in SUCCESSES} == {0}
    assert {codes[tuple(argv)] for argv in OTHERS} == {0, 2, 3}
