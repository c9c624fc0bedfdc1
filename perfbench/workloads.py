"""Workload inputs and the reference checks, shared by run.py, the
reference builder and the tests. Imports nothing from hallq."""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

LIE_ARGV = {
    "lie-n2-wide-primes": ["lie-table", "--n", "2"],
    "lie-n3-small-primes": ["lie-verify", "--n", "3", "--primes", "2,3,5,7"],
}
WORKLOADS = (*LIE_ARGV, "products")

# the draw rule of the products pool, and the work budget a draw must meet
DRAW_N = (3, 4)
DRAW_P = (2, 3, 5)
MAX_SUMMANDS = 2
MAX_TOTAL_DIM = 12
MAX_CANDIDATES = 200_000
# a draw within the budget whose product took longer than this when the
# reference was captured is excluded too: one such product would make up
# a large, seed-dependent share of a pass
MAX_COST_S = 1.0
# a seed keeps one product out of each group of this many pool entries of
# neighbouring cost, so every seed gets the same mix of cheap and costly work
GROUP = 4

LIE_VERDICTS = {
    "lie-n2-wide-primes": {"stderr": "21 pairs: 0 closed-form mismatches"},
    "lie-n3-small-primes": {
        "stdout": "diagonal\tpass\nantisymmetry\tpass\njacobi\tpass\ngrading\tpass\n"
        "closed_form_mismatches\t0\n",
    },
}


def load_pool() -> dict:
    with open(DATA / "products_pool.json", encoding="utf-8") as fh:
        return json.load(fh)


def select_products(pool: dict, seed: int) -> list[dict]:
    """The seed's products: one entry from each cost group, in seeded order."""
    rng = random.Random(seed)
    entries = sorted(pool["entries"], key=lambda e: (e["cost_s"], e["id"]))
    picked = [
        entries[start + rng.randrange(min(GROUP, len(entries) - start))]
        for start in range(0, len(entries), GROUP)
    ]
    rng.shuffle(picked)
    return picked


def lie_reference(workload: str) -> list[str]:
    with open(DATA / f"{workload}.tsv", encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if not ln.startswith("#")]


def check_lie(workload: str, unit: dict, reference: list[str]) -> str | None:
    """None when the invocation matches the reference, else the reason."""
    if unit.get("error"):
        return unit["error"]
    if unit.get("exit") != 0:
        return f"exit code {unit.get('exit')}"
    for stream, want in LIE_VERDICTS[workload].items():
        if unit.get(stream, "").strip() != want.strip():
            return f"{stream} verdict differs: {unit.get(stream, '')!r}"
    if workload == "lie-n2-wide-primes":
        rows = [ln for ln in unit["stdout"].splitlines() if not ln.startswith("#")]
        if rows != reference:
            return "lie-table TSV rows differ from the reference"
    if unit.get("table") != reference:
        return "bracket table differs from the reference"
    return None


def check_product(unit: dict, entry: dict) -> str | None:
    if unit.get("error"):
        return unit["error"]
    if unit.get("terms") != entry["terms"]:
        return f"coefficients of {entry['x']} * {entry['y']} differ from the reference"
    if unit.get("roundtrip") != entry["roundtrip"]:
        return f"decompose round trip of {entry['x']} * {entry['y']} differs"
    return None
