"""Capture the benchmark's reference results from the current source tree.

    PYTHONPATH=src python3 perfbench/make_reference.py [--recost]

Writes, under perfbench/data/:

- lie-n2-wide-primes.tsv, lie-n3-small-primes.tsv: the bracket tables the
  two lie workloads build (only the data rows are compared, never the
  `#` header lines);
- products_pool.json: the products pool. Draws follow the rule in
  workloads.py: n in {3, 4}, p in {2, 3, 5}, X and Y each a direct sum of
  1 or 2 random indecomposables. A draw is kept only if the total dimension
  is at most 12 and the candidate-subspace estimate
  prod_v gaussian_binomial(dim M_v, dim Y_v, p) is at most 2e5; every other
  draw is listed under "excluded" with its estimate, and so is a draw whose
  product took longer than 1 s here. Each kept draw stores the product's
  coefficients, the decompose round trip of every term and its cost, which
  orders the pool into cost groups.

The cost is measured again once the pool is written: each entry's cost_s
becomes its median time in reference seconds (refclock.py) within the
benchmark's own passes, one fresh interpreter per seed, where a product
shares the caches of the pass's other products. Ordered by the plain time
each product took while the pool was built, the pass totals of 24 seeds
spread by 9% of their median (interquartile range); ordered by cost_s,
by 3-5%. `--recost` redoes only this step.

The references are what this tree computes; rerun only on purpose, after a
change that is meant to alter results.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import sys
from math import prod
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from hallq import cli, lie  # noqa: E402
from hallq.gf import gaussian_binomial  # noqa: E402
from hallq.hall_core import hall_product  # noqa: E402
from hallq.hom_decomp import decompose, hom_table  # noqa: E402
from hallq.quiver_rep import (  # noqa: E402
    AlgebraContext,
    IndecLabel,
    all_labels,
    multiset_dims,
    parse_multiset,
    rep_of_multiset,
)

POOL_SEED = 20240205
POOL_SIZE = 600
# the draw that motivated the budget: total dimension 8, yet about 3.2e8
# candidate subspaces at vertex 3 and minutes for a single product
BUDGET_EXAMPLE = (3, 5, "U3,3+V3", "U3,3+U2,3")
# passes timed for cost_s: at least this many seeds, and on until every
# entry has this many samples
RECOST_SEEDS = 24
RECOST_SAMPLES = 3


def key(labels) -> str:
    return "+".join(str(label) for label in labels)


def estimate(n: int, p: int, x, y) -> tuple[int, tuple[int, ...]]:
    dx, dy = multiset_dims(x, n), multiset_dims(y, n)
    dm = tuple(a + b for a, b in zip(dx, dy))
    return prod(gaussian_binomial(m, k, p) for m, k in zip(dm, dy)), dm


def draw(rng: random.Random):
    n = rng.choice(workloads.DRAW_N)
    p = rng.choice(workloads.DRAW_P)
    labels = all_labels(n)
    x, y = (
        tuple(sorted((rng.choice(labels) for _ in range(rng.randint(1, workloads.MAX_SUMMANDS))),
                     key=IndecLabel.sort_key))
        for _ in range(2)
    )
    return n, p, x, y


def capture_lie() -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(workloads.LIE_ARGV["lie-n2-wide-primes"])
    if code != 0:
        raise SystemExit(f"lie-table exited with {code}; no reference written")
    (workloads.DATA / "lie-n2-wide-primes.tsv").write_text(out.getvalue(), encoding="utf-8")
    table = lie.build_bracket_table(3, [2, 3, 5, 7])
    if table.mismatches or not lie.verify_lie_axioms(table).ok:
        raise SystemExit("the n=3 bracket table fails its own checks; no reference written")
    (workloads.DATA / "lie-n3-small-primes.tsv").write_text(
        lie.bracket_table_to_tsv(table), encoding="utf-8"
    )


def build_pool() -> dict:
    rng = random.Random(POOL_SEED)
    for n in workloads.DRAW_N:
        for p in workloads.DRAW_P:
            hom_table(n, p)
    seen = set()
    entries, excluded = [], []
    draws = 0
    while len(entries) < POOL_SIZE:
        n, p, x, y = draw(rng)
        draws += 1
        est, dm = estimate(n, p, x, y)
        record = {"n": n, "p": p, "x": key(x), "y": key(y)}
        if sum(dm) > workloads.MAX_TOTAL_DIM or est > workloads.MAX_CANDIDATES:
            excluded.append({**record, "total_dim": sum(dm), "estimate": est, "why": "budget"})
            continue
        if (n, p, x, y) in seen:
            continue
        seen.add((n, p, x, y))
        ctx = AlgebraContext(n, p)
        t0 = perf_counter()
        terms = hall_product(x, y, ctx).terms
        rebuilt = [decompose(rep_of_multiset(ms.as_labels(), ctx)) for ms, _ in terms]
        cost = perf_counter() - t0
        if cost > workloads.MAX_COST_S:
            excluded.append(
                {**record, "total_dim": sum(dm), "estimate": est, "why": "cost", "cost_s": round(cost, 3)}
            )
            continue
        entries.append(
            {
                "id": len(entries),
                **record,
                "estimate": est,
                "cost_s": round(cost, 6),
                "terms": [[key(ms.as_labels()), c] for ms, c in terms],
                "roundtrip": [key(d.as_labels()) for d in rebuilt],
            }
        )
    n, p, x, y = BUDGET_EXAMPLE
    est, dm = estimate(n, p, parse_multiset(x), parse_multiset(y))
    return {
        "pool_seed": POOL_SEED,
        "draws": draws,
        "budget": {
            "max_total_dim": workloads.MAX_TOTAL_DIM,
            "max_candidates": workloads.MAX_CANDIDATES,
            "max_cost_s": workloads.MAX_COST_S,
            "example": {"n": n, "p": p, "x": x, "y": y, "dims": list(dm), "estimate": est},
        },
        "excluded": excluded,
        "entries": entries,
    }


def recost(pool: dict) -> None:
    """Set every entry's cost_s from the benchmark's own passes over the
    pool as written; see the module doc."""
    root = Path(__file__).resolve().parents[1]
    times: dict[int, list[float]] = {e["id"]: [] for e in pool["entries"]}
    seed = 0
    while seed < RECOST_SEEDS or min(len(t) for t in times.values()) < RECOST_SAMPLES:
        seed += 1
        bench = run.Run(root, "products", seed, 0.0)
        job, _, _ = run.workload_job("products", seed)
        picked = workloads.select_products(pool, seed)
        units = [ln for ln in bench.spawn(job, limit=run.UNIT_LIMIT_S["products"]) if "unit" in ln]
        if bench.failures or len(units) != len(picked):
            raise SystemExit(f"seed {seed}: the pass failed ({bench.failures[:1]}); costs unchanged")
        for unit in units:
            times[picked[unit["unit"]]["id"]].append(unit["s"])
        print(f"seed {seed}: {sum(u['s'] for u in units):.2f} s", file=sys.stderr)
    for entry in pool["entries"]:
        entry["cost_s"] = round(statistics.median(times[entry["id"]]), 6)


def write_pool(pool: dict) -> None:
    with open(workloads.DATA / "products_pool.json", "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=0)
        fh.write("\n")


def main() -> None:
    if sys.argv[1:] == ["--recost"]:
        pool = workloads.load_pool()
    else:
        workloads.DATA.mkdir(exist_ok=True)
        capture_lie()
        pool = build_pool()
        write_pool(pool)
    recost(pool)
    write_pool(pool)
    costs = sorted(e["cost_s"] for e in pool["entries"])
    print(
        f"{len(pool['entries'])} products from {pool['draws']} draws, "
        f"{len(pool['excluded'])} excluded; total cost {sum(costs):.1f} s, "
        f"median {costs[len(costs) // 2] * 1000:.1f} ms, max {costs[-1]:.2f} s"
    )


if __name__ == "__main__":
    main()
