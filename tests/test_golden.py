"""Golden CLI outputs: stdout, stderr and exit code of the verification and
table commands at small n, and of every help text, byte for byte.

The files under tests/golden/ were captured from the CLI itself, so these
tests pin its present behaviour, not a closed form. To re-capture after a
deliberate change of output, or to capture a new case, run from the repo
root with the names of the cases (every case when none is named):

    PYTHONPATH=src python tests/test_golden.py [NAME...]
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from hallq.cli import COMMANDS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
SMALL_PRIMES = ("--primes", "2,3,5,7")

CASES: dict[str, tuple[str, ...]] = {
    "lie-table-n2-tsv": ("lie-table", "--n", "2", *SMALL_PRIMES),
    "lie-table-n2-json": ("lie-table", "--n", "2", *SMALL_PRIMES, "--format", "json"),
    "lie-table-n2-latex": ("lie-table", "--n", "2", *SMALL_PRIMES, "--format", "latex"),
    "lie-verify-n2-tsv": ("lie-verify", "--n", "2", *SMALL_PRIMES),
    "lie-verify-n2-json": ("lie-verify", "--n", "2", *SMALL_PRIMES, "--format", "json"),
    # no --primes: the default prime schedule
    "lie-table-n2-default-tsv": ("lie-table", "--n", "2"),
    "lie-table-n3-default-tsv": ("lie-table", "--n", "3"),
    "verify-prop-n3-default-tsv": ("verify-prop", "--n", "3"),
    "verify-prop-n4-default-tsv": ("verify-prop", "--n", "4"),
    "hall-poly-n2-default": ("hall-poly", "--n", "2", "W1,1", "U2,1", "U1,1"),
    "verify-identities-n4-p3-tsv": ("verify-identities", "--n", "4", "--p", "3"),
    # prime lists too short for some fit: exit 2, naming the first failing triple
    "verify-prop-n3-short-primes": ("verify-prop", "--n", "3", "--primes", "2,3"),
    "lie-table-n3-two-primes": ("lie-table", "--n", "3", "--primes", "2,3"),
    # too short only for pairs that bracket to 0 by the grading, so never
    # fitted: exit 0, the rows of the default-schedule table
    "lie-table-n3-short-primes": ("lie-table", "--n", "3", "--primes", "2,3,5"),
    # larger n on the default schedule, where the walk's structure still changes
    "lie-table-n6-default-tsv": ("lie-table", "--n", "6"),
    "lie-table-n6-default-json": ("lie-table", "--n", "6", "--format", "json"),
    "lie-table-n10-default-tsv": ("lie-table", "--n", "10"),
    "lie-verify-n10-default-tsv": ("lie-verify", "--n", "10"),
    "lie-verify-n10-default-json": ("lie-verify", "--n", "10", "--format", "json"),
    "verify-prop-n8-default-tsv": ("verify-prop", "--n", "8"),
    "verify-identities-n5-p2-tsv": ("verify-identities", "--n", "5", "--p", "2"),
    "verify-identities-n5-p3-tsv": ("verify-identities", "--n", "5", "--p", "3"),
}
for _n in ("2", "3"):
    for _fmt in ("tsv", "json"):
        CASES[f"verify-prop-n{_n}-{_fmt}"] = (
            "verify-prop", "--n", _n, *SMALL_PRIMES, "--format", _fmt
        )
        for _p in ("2", "3"):
            CASES[f"verify-identities-n{_n}-p{_p}-{_fmt}"] = (
                "verify-identities", "--n", _n, "--p", _p, "--format", _fmt
            )
# help texts: argparse wraps them to the terminal width, which run_cli pins
CASES["help"] = ("-h",)
for _name, *_ in COMMANDS:
    CASES[f"help-{_name}"] = (_name, "-h")


def run_cli(argv: tuple[str, ...]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(
        os.environ, {"COLUMNS": "80"}
    ):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stderr": err.getvalue(), "stdout": out.getvalue()}


def _stdout_path(name: str) -> Path:
    return GOLDEN / f"{name}.out"


def _meta_path(name: str) -> Path:
    return GOLDEN / f"{name}.json"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    got = run_cli(CASES[name])
    meta = json.loads(_meta_path(name).read_text(encoding="utf-8"))
    assert meta["argv"] == got["argv"]
    assert got["stdout"] == _stdout_path(name).read_text(encoding="utf-8")
    assert got["stderr"] == meta["stderr"]
    assert got["exit"] == meta["exit"]


def capture(names: list[str]) -> None:
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        sys.exit(f"unknown golden case: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(names or CASES):
        got = run_cli(CASES[name])
        _stdout_path(name).write_text(got.pop("stdout"), encoding="utf-8")
        _meta_path(name).write_text(json.dumps(got, indent=2) + "\n", encoding="utf-8")
        print(f"{name}: exit {got['exit']}", file=sys.stderr)


if __name__ == "__main__":
    capture(sys.argv[1:])
