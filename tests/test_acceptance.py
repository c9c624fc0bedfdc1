"""Acceptance checks, one test per numbered criterion.

Each test prints a single `[acceptance] C<k>: PASS|FAIL` line so a full run
reads as a checklist (visible under `pytest -s`, or in the failure report).

C4 requires every tabulated product expansion to hold with its tabulated
coefficients. The published loop-glue display prints q, q where the true
coefficients are 1, 1 whenever the projective index sits strictly below the
interval start (first at n=3); the table carries the corrected q^delta(i,j),
proved in the docstring of verify_product_identities and derived from Hom
dimensions alone in test_hall_poly.py.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from hallq.gf import SubspaceBasis, enumerate_subspaces, gaussian_binomial
from hallq.hall_core import (
    enumerate_submodules,
    hall_number,
    verify_hall_identity,
)
from hallq.hall_poly import (
    ONE_POLY,
    T_POLY,
    ZERO_POLY,
    HallPolynomial,
    combo_to_str,
    reconcile_poly_table,
    verify_product_identities,
)
from hallq.hom_decomp import decompose
from hallq.lie import build_bracket_table, verify_lie_axioms
from hallq.quiver_rep import (
    AlgebraContext,
    IndecLabel,
    all_labels,
    check_relation,
    label_dims,
    make_indec,
    multisets_with_dims,
    rep_of_multiset,
    submodule_and_quotient,
)
from test_hall_core import associativity_mismatches

RECON_PRIMES = (2, 3, 5, 7, 11, 13)
LABEL_COUNTS = {2: 7, 3: 15, 4: 26, 5: 40}


def in_t_table_range(x: IndecLabel, y: IndecLabel, m: IndecLabel) -> bool:
    # the table's T rows W(i,j); U(j+1,l); U(i,l) with i <= l <= j
    if x.kind != "W" or y.kind != "U" or m.kind != "U":
        return False
    i, j = x.i, x.j
    return y.i == j + 1 and m == IndecLabel("U", i, y.j) and i <= y.j <= j


def _report(tag: str, ok: bool) -> bool:
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'}", flush=True)
    return ok


@pytest.fixture(scope="module")
def recon_reports():
    return {n: reconcile_poly_table(n, RECON_PRIMES) for n in (2, 3)}


def test_c1_classification_sanity():
    problems: list[str] = []
    for n in range(2, 6):
        labels = all_labels(n)
        if len(labels) != LABEL_COUNTS[n]:
            problems.append(f"n={n}: {len(labels)} labels, wanted {LABEL_COUNTS[n]}")
        for p in (2, 3):
            ctx = AlgebraContext(n, p)
            reps = [make_indec(lab, ctx) for lab in labels]
            for lab, rep in zip(labels, reps):
                if not check_relation(rep):
                    problems.append(f"n={n} p={p}: relation fails for {lab}")
                if rep.dims != label_dims(lab, n):
                    problems.append(f"n={n}: dims of {lab} are {rep.dims}")
            decomps = [decompose(rep) for rep in reps]
            for a in range(len(reps)):
                for b in range(a + 1, len(reps)):
                    if decomps[a] == decomps[b]:
                        problems.append(
                            f"n={n} p={p}: {labels[a]} and {labels[b]} are isomorphic"
                        )
    assert _report("C1", not problems), problems[:5]


def test_c2_closed_form_table_reconciles(recon_reports):
    problems: list[str] = []
    for n in (2, 3):
        reports = recon_reports[n]
        one_rows = 0
        t_rows = 0
        for r in reports:
            x, y, m = r.triple
            name = f"n={n} ({x}, {y}, {m})"
            if r.verdict == "mismatch":
                problems.append(
                    f"{name}: expected {r.expected_str()}, interpolated {r.interpolated}"
                )
            # the T rows sit inside an ambiguity zone, so check their truth
            # directly on the interpolated polynomial
            if in_t_table_range(x, y, m):
                t_rows += 1
                if r.interpolated != T_POLY:
                    problems.append(f"{name}: T row interpolated to {r.interpolated}")
            if isinstance(r.expected, HallPolynomial) and r.expected == ONE_POLY:
                one_rows += 1
                if r.interpolated != ONE_POLY:
                    problems.append(f"{name}: unit row interpolated to {r.interpolated}")
            if r.expected == "unlisted" and r.interpolated != ZERO_POLY:
                problems.append(f"{name}: unlisted row interpolated to {r.interpolated}")
        if not t_rows:
            problems.append(f"n={n}: no T rows found")
        if not one_rows:
            problems.append(f"n={n}: no unit rows found")
    # the junction case of the T family (upper index equal to the interval
    # end) appears first at n=3 and must also interpolate to T
    junction = [
        r
        for r in recon_reports[3]
        if tuple(map(str, r.triple)) == ("W1,2", "U3,2", "U1,2")
    ]
    if len(junction) != 1 or junction[0].interpolated != T_POLY:
        problems.append("junction T row missing or off at n=3")
    assert _report("C2", not problems), problems[:5]


def test_c3_ambiguous_rows_carry_brute_forced_truth(recon_reports):
    problems: list[str] = []
    flagged = {n: set() for n in (2, 3)}
    for n in (2, 3):
        for r in recon_reports[n]:
            if r.verdict != "ambiguous":
                continue
            flagged[n].add(tuple(map(str, r.triple)))
            if r.expected != "ambiguous":
                problems.append(f"n={n} {r.triple}: verdict/expected out of step")
            if not isinstance(r.interpolated, HallPolynomial):
                problems.append(f"n={n} {r.triple}: no interpolated polynomial")
    # rows double-covered by the unconstrained T shape must be flagged
    for triple in (("W1,1", "U2,1", "U1,1"), ("W1,1", "U2,2", "U1,2")):
        if triple not in flagged[2]:
            problems.append(f"n=2: {triple} not flagged")
    for triple in (
        ("W1,1", "U2,1", "U1,1"),
        ("W2,2", "U1,3", "U1,2"),
        ("W1,2", "U3,2", "U2,1"),
    ):
        if triple not in flagged[3]:
            problems.append(f"n=3: {triple} not flagged")
    # the garbled-subscript zone hides a genuinely nonzero family: its truth
    # is T - 1, attached to the flagged row rather than silently dropped
    tm1 = [
        r
        for r in recon_reports[3]
        if tuple(map(str, r.triple)) == ("W1,2", "U3,2", "U2,1")
    ]
    if tm1 and tm1[0].interpolated.coefficients != (-1, 1):
        problems.append(f"T-1 row interpolated to {tm1[0].interpolated}")
    assert _report("C3", not problems), problems[:5]


def test_c4_product_expansions_hold_verbatim():
    failures: list[str] = []
    for n in (2, 3):
        for p in (2, 3):
            for chk in verify_product_identities(n, p):
                if not chk.ok:
                    failures.append(
                        f"n={n} p={p} {chk.family} [{chk.left}].[{chk.right}]: "
                        f"expected {combo_to_str(chk.expected)}, "
                        f"got {combo_to_str(chk.got)}"
                    )
    ok = _report("C4", not failures)
    # The loop-glue rows use the corrected coefficients q^delta(i,j) rather
    # than the printed q, q; a failure here is a wrong table entry or a wrong
    # count, never an expected one.
    assert ok, failures


def test_c5_composition_instances():
    ctx = AlgebraContext(2, 2)
    q = Fraction(2)
    w11 = IndecLabel("W", 1, 1)
    v1, v2 = IndecLabel("V", 1), IndecLabel("V", 2)
    u11, u21, u12 = (
        IndecLabel("U", 1, 1),
        IndecLabel("U", 2, 1),
        IndecLabel("U", 1, 2),
    )
    ys: list[tuple[IndecLabel, ...]] = []
    for total in range(7):
        for d1 in range(total + 1):
            ys.extend(multisets_with_dims(2, (d1, total - d1)))
    assert len(ys) == 123
    problems: list[str] = []
    for y in ys:
        # each check covers every M; the interval-chain relation has no
        # admissible indices at n=2 (it needs i < j <= n-1), so three
        # relations instantiate here
        if not verify_hall_identity(v1, [(1, w11, v2), (-1, v2, w11)], y, ctx).holds:
            problems.append(f"interval-tail fails at Y={y}")
        if not verify_hall_identity(u11, [(1 / q, w11, u21), (-1, u21, w11)], y, ctx).holds:
            problems.append(f"interval-projective fails at Y={y}")
        chk = verify_hall_identity(
            u12,
            [(1, v2, v1), (1 / q, u21, ()), (-1 / q, v1, v2)],
            y,
            ctx,
        )
        if not chk.holds:
            problems.append(f"socle-socle fails at Y={y}: lhs {chk.lhs} rhs {chk.rhs}")
    assert _report("C5", not problems), problems[:5]


def test_c6_lie_table_and_axioms():
    problems: list[str] = []
    for n in (2, 3, 4):
        # bracket() raises if any decomposable coefficient survives the T=1
        # cancellation on a pair it walks; a pair whose degree is no label's
        # is 0 by the grading and not walked, and test_lie's
        # test_walks_cover_skipped_pairs walks those at n <= 5
        table = build_bracket_table(n)
        expected_pairs = LABEL_COUNTS[n] * (LABEL_COUNTS[n] - 1) // 2
        if len(table.entries) != expected_pairs:
            problems.append(f"n={n}: {len(table.entries)} pairs, wanted {expected_pairs}")
        for x, y, got, expected in table.mismatches:
            problems.append(f"n={n}: [{x},{y}] = {got}, closed form {expected}")
        axioms = verify_lie_axioms(table)
        if not axioms.ok:
            problems.append(f"n={n}: axioms fail: {axioms.violations[:3]}")
    assert _report("C6", not problems), problems[:5]


def test_c7_oracle_cross_checks(rng):
    problems: list[str] = []

    # subspace counts against the gaussian binomial
    for p in (2, 3, 5):
        for d in range(5):
            counts: dict[int, int] = {}
            for sub in enumerate_subspaces(d, p, SubspaceBasis.zero(p, d)):
                counts[sub.dim] = counts.get(sub.dim, 0) + 1
            for k in range(d + 1):
                if counts.get(k, 0) != gaussian_binomial(d, k, p):
                    problems.append(f"subspace count off at d={d} k={k} p={p}")

    # decompose round-trips random direct sums
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        p = rng.choice((2, 3, 5))
        ctx = AlgebraContext(n, p)
        labels = all_labels(n)
        ms: list[IndecLabel] = []
        total = 0
        for _ in range(rng.randint(1, 4)):
            lab = rng.choice(labels)
            d = sum(label_dims(lab, n))
            if total + d <= 14:
                ms.append(lab)
                total += d
        if not ms:
            ms = [labels[0]]
        want = tuple(sorted(ms, key=IndecLabel.sort_key))
        got = decompose(rep_of_multiset(ms, ctx)).as_labels()
        if got != want:
            problems.append(f"round-trip n={n} p={p}: {want} came back as {got}")

    # conservation: per-class counts from the engine sum to the number of
    # submodules found by raw enumeration, class by class
    for _ in range(30):
        n = rng.choice((2, 3, 4))
        labels = all_labels(n)
        ms = []
        total = 0
        for _ in range(rng.randint(1, 4)):
            lab = rng.choice(labels)
            d = sum(label_dims(lab, n))
            if total + d <= 8:
                ms.append(lab)
                total += d
        if not ms:
            ms = [labels[0]]
            total = sum(label_dims(labels[0], n))
        p = 3 if total <= 5 and rng.random() < 0.4 else 2
        ctx = AlgebraContext(n, p)
        mtuple = tuple(sorted(ms, key=IndecLabel.sort_key))
        tally: dict[tuple, int] = {}
        witnesses = 0
        for w in enumerate_submodules(rep_of_multiset(mtuple, ctx)):
            sub, quot = submodule_and_quotient(w)
            key = (decompose(quot).as_labels(), decompose(sub).as_labels())
            tally[key] = tally.get(key, 0) + 1
            witnesses += 1
        from_engine = 0
        for (xs, ys), c in tally.items():
            h = hall_number(xs, ys, mtuple, ctx)
            from_engine += h
            if h != c:
                problems.append(
                    f"conservation n={n} p={p} M={mtuple}: F[{xs},{ys}] = {h}, saw {c}"
                )
        if from_engine != witnesses:
            problems.append(
                f"conservation n={n} p={p} M={mtuple}: {from_engine} != {witnesses}"
            )

    # associativity on random indecomposable triples
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 5000:
        attempts += 1
        n = rng.choice((2, 3))
        labels = all_labels(n)
        a, b, c = (rng.choice(labels) for _ in range(3))
        if sum(sum(label_dims(l, n)) for l in (a, b, c)) > 7:
            continue
        ctx = AlgebraContext(n, rng.choice((2, 3)))
        if associativity_mismatches(ctx, [(a, b, c)]):
            problems.append(f"associativity n={ctx.n} p={ctx.p} ({a}, {b}, {c})")
        checked += 1
    if checked < 50:
        problems.append(f"only {checked} associativity triples drawn")

    assert _report("C7", not problems), problems[:5]
