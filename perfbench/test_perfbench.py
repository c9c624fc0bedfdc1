"""Tests of the benchmark itself: the products reference against a naive
oracle, the tracer's bindings and counts, the reference checks and the
reference clock.

    PYTHONPATH=src python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import random
import unittest
from time import perf_counter

import bench_trace
import refclock
import workloads
from hallq import cli, gf, hall_core, hall_poly, hom_decomp, lie
from hallq.gf import SubspaceBasis, gaussian_binomial
from hallq.hall_core import enumerate_submodules
from hallq.hom_decomp import DecompositionMultiset, decompose
from hallq.quiver_rep import (
    AlgebraContext,
    multiset_dims,
    multisets_with_dims,
    parse_multiset,
    rep_of_multiset,
    submodule_and_quotient,
)

ORACLE_SEED = 7
ORACLE_CASES = 6


def naive_product(n: int, p: int, x, y) -> dict[str, int]:
    """F^M_{X,Y} for every M by listing all submodules: no hom prune, no
    rank screens, no profile shortcut."""
    ctx = AlgebraContext(n, p)
    dx, dy = multiset_dims(x, n), multiset_dims(y, n)
    want_x = DecompositionMultiset.from_labels(x)
    want_y = DecompositionMultiset.from_labels(y)
    out = {}
    for m in multisets_with_dims(n, tuple(a + b for a, b in zip(dx, dy))):
        count = 0
        for w in enumerate_submodules(rep_of_multiset(m, ctx)):
            if tuple(s.dim for s in w.spaces) != dy:
                continue
            sub, quot = submodule_and_quotient(w)
            if decompose(sub) == want_y and decompose(quot) == want_x:
                count += 1
        if count:
            out["+".join(str(label) for label in DecompositionMultiset.from_labels(m).as_labels())] = count
    return out


class OracleTest(unittest.TestCase):
    def test_small_products_match_naive_enumeration(self):
        pool = workloads.load_pool()
        small = [
            e for e in pool["entries"]
            if e["p"] <= 3 and sum(multiset_dims(parse_multiset(e["x"] + "+" + e["y"]), e["n"])) <= 6
        ]
        cases = random.Random(ORACLE_SEED).sample(small, ORACLE_CASES)
        for e in cases:
            with self.subTest(n=e["n"], p=e["p"], x=e["x"], y=e["y"]):
                got = naive_product(e["n"], e["p"], parse_multiset(e["x"]), parse_multiset(e["y"]))
                self.assertEqual(got, dict(e["terms"]))
                self.assertEqual([t for t, _ in e["terms"]], e["roundtrip"])


class PoolTest(unittest.TestCase):
    def test_selection_is_seeded(self):
        pool = workloads.load_pool()
        a = workloads.select_products(pool, 1)
        self.assertEqual(a, workloads.select_products(pool, 1))
        self.assertNotEqual(a, workloads.select_products(pool, 2))
        self.assertEqual(len(a), len(pool["entries"]) // workloads.GROUP)
        self.assertEqual(len({e["id"] for e in a}), len(a))

    def test_every_entry_meets_the_budget_and_excluded_ones_do_not(self):
        pool = workloads.load_pool()
        for e in pool["entries"]:
            self.assertLessEqual(e["estimate"], workloads.MAX_CANDIDATES)
        for e in pool["excluded"]:
            over = e["estimate"] > workloads.MAX_CANDIDATES or e["total_dim"] > workloads.MAX_TOTAL_DIM
            self.assertEqual(over, e["why"] == "budget")
        self.assertGreater(pool["budget"]["example"]["estimate"], 3 * 10**8)


class CheckTest(unittest.TestCase):
    def test_header_lines_are_not_compared(self):
        ref = workloads.lie_reference("lie-n2-wide-primes")
        with open(workloads.DATA / "lie-n2-wide-primes.tsv", encoding="utf-8") as fh:
            text = fh.read().replace("# primes: 2,3,5,7,11,13", "# primes: 2,3,5")
        unit = {"exit": 0, "stdout": text, "stderr": "21 pairs: 0 closed-form mismatches\n", "table": ref}
        self.assertIsNone(workloads.check_lie("lie-n2-wide-primes", unit, ref))
        unit["stdout"] = text.replace("V2\tV1:1", "V2\tV1:2")
        self.assertIsNotNone(workloads.check_lie("lie-n2-wide-primes", unit, ref))

    def test_changed_coefficient_fails(self):
        entry = next(e for e in workloads.load_pool()["entries"] if e["terms"])
        unit = {"terms": [list(t) for t in entry["terms"]], "roundtrip": list(entry["roundtrip"])}
        self.assertIsNone(workloads.check_product(unit, entry))
        unit["terms"][0][1] += 1
        self.assertIsNotNone(workloads.check_product(unit, entry))


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.tracer = bench_trace.Tracer()
        self.tracer.install()

    def tearDown(self):
        self.tracer.uninstall()

    def test_every_binding_is_wrapped(self):
        self.assertEqual(self.tracer.unwrapped_bindings(), [])
        for mod, name in (
            (hall_core, "echelon_supersets"),
            (hom_decomp, "matrix_rank"),
            (hall_poly, "hall_number"),
            (lie, "interpolate_hall_poly"),
            (cli, "build_bracket_table"),
            (hall_core, "_count_witnesses"),
        ):
            self.assertTrue(hasattr(getattr(mod, name), "__wrapped__"), f"{mod.__name__}.{name}")

    def test_uninstall_restores_the_originals(self):
        self.tracer.uninstall()
        self.assertFalse(hasattr(hall_core.echelon_supersets, "__wrapped__"))
        self.assertIs(hall_core.echelon_supersets, gf.echelon_supersets)

    def test_generator_yields_are_counted(self):
        # called through the module, as the package's own callers do
        spaces = list(gf.enumerate_subspaces(3, 2, SubspaceBasis.zero(2, 3)))
        self.assertEqual(len(spaces), sum(gaussian_binomial(3, k, 2) for k in range(4)))
        entry = self.tracer.agg[("hallq.gf.echelon_supersets", "hallq.gf.enumerate_subspaces")]
        self.assertEqual(entry[0], 4)
        self.assertEqual(entry[3], len(spaces))

    def test_hall_number_spans(self):
        ctx = AlgebraContext(2, 3)
        x, y, m = (parse_multiset(s) for s in ("W1,1", "U2,1", "U1,1"))
        self.assertEqual(hall_core.hall_number(x, y, m, ctx), 3)
        metrics = self.tracer.metrics()
        self.assertEqual(metrics["hall_core.hall_number.calls"], 1)
        self.assertEqual(metrics["hall_core.hall_number.calls.p3"], 1)
        self.assertEqual(metrics["hall_core.hall_number.nonzero_frac"], 1.0)
        self.assertEqual(metrics["hall_core.count_witnesses.calls"], 1)
        self.assertGreater(metrics["gf.echelon_supersets.yields"], 0)
        for name, value in metrics.items():
            self.assertGreaterEqual(value, 0, name)
        hn = next(r for r in self.tracer.spans if r[0] == "hallq.hall_core.hall_number")
        self.assertLessEqual(hn[4], hn[2] - hn[1])

    def test_metric_names_match_benchmark_json(self):
        bench = json.loads((workloads.DATA.parents[1] / "BENCHMARK.json").read_text())
        names = {m["name"] for m in bench["per_layer"]}
        produced = set(self.tracer.metrics()) | {"trace.overhead_frac", "products.excluded_draws"}
        self.assertEqual(names, produced)


def busy(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


class RefClockTest(unittest.TestCase):
    def test_ref_scales_raw_by_the_sampled_speed(self):
        clock = refclock.RefClock(2 * refclock.REF_S)
        r0, raw0 = clock.ref(), clock.raw()
        busy(0.05)
        self.assertAlmostEqual(clock.ref() - r0, (clock.raw() - raw0) / 2, delta=1e-4)

    def test_the_kernel_time_is_left_out(self):
        clock = refclock.RefClock(refclock.REF_S)
        raw0 = clock.raw()
        clock.sample()
        self.assertEqual(len(clock.samples), 2)
        self.assertLess(clock.raw() - raw0, clock.samples[-1] / 2)

    def test_samples_follow_cpu_time_until_stopped(self):
        clock = refclock.RefClock(refclock.REF_S)
        clock.start()
        try:
            busy(5 * refclock.PERIOD_S)
        finally:
            clock.stop()
        taken = len(clock.samples)
        self.assertGreaterEqual(taken, 3)
        busy(2 * refclock.PERIOD_S)
        self.assertEqual(len(clock.samples), taken)


if __name__ == "__main__":
    unittest.main()
