import json

import pytest

from hallq.cli import _rows_text
from hallq.errors import InterpolationError, LabelError
from hallq.gf import first_primes
from hallq.hall_core import IsoClassCombo, hall_number, hall_product
from hallq.hall_poly import (
    ZERO_POLY,
    HallPolynomial,
    expected_hall_poly,
    fit_hall_poly,
    hom_degree_bound,
    identity_rows,
    interpolate_hall_poly,
    reconcile_poly_table,
    reconciliation_rows,
    verify_product_identities,
)
from hallq.hom_decomp import DecompositionMultiset, hom_dim, hom_dim_raw, hom_table, raw_rep
from hallq.quiver_rep import (
    AlgebraContext,
    IndecLabel,
    all_labels,
    label_dims,
    make_indec,
    multisets_with_dims,
    rep_of_multiset,
)


def U(i, j):
    return IndecLabel("U", i, j)


def V(i):
    return IndecLabel("V", i)


def W(i, j):
    return IndecLabel("W", i, j)


def test_polynomial_normalization():
    assert HallPolynomial((1, 0, 0)).coefficients == (1,)
    assert HallPolynomial(()).degree == -1
    assert HallPolynomial((0, 1)).evaluate(7) == 7
    assert str(HallPolynomial((0, 1))) == "T"
    assert str(HallPolynomial((-1, 1))) == "T - 1"
    assert str(HallPolynomial((2, 0, 3))) == "3*T^2 + 2"
    assert str(HallPolynomial(())) == "0"


# what a fit is named by in its errors: the label tuples of X, Y and M
XYM = ((W(1, 1),), (V(2),), (V(1),))


def test_fit_hall_poly_recovers_integer_polynomials():
    # unsorted primes, the last one held out to certify
    primes = (5, 2, 11, 3, 7)
    for coeffs in [(-1, 1), (0, 0, 1), (), (4,), (3, -2, 0, 1)]:
        poly = HallPolynomial(coeffs)
        values = [poly.evaluate(p) for p in primes]
        assert fit_hall_poly(primes, values, XYM).coefficients == coeffs


def test_fit_hall_poly_rejects_non_integer_and_uncertified_fits():
    # 0, 1, 0 at 2, 3, 5 lie on -(T - 2)(T - 5)/2, and f[3, 5] = -1/2
    with pytest.raises(InterpolationError, match=r"divided difference -1/2 .*\(W1,1; V2; V1\)$"):
        fit_hall_poly((2, 3, 5, 7), (0, 1, 0, 0), XYM)
    # T^2 through 2, 3 is fitted as a line, and p = 5 refutes it
    with pytest.raises(InterpolationError, match=r"certification point p=5 .*\(W1,1; V2; V1\):"):
        fit_hall_poly((2, 3, 5), (4, 9, 25), XYM)


@pytest.mark.parametrize("k", range(2, 7))
def test_all_zero_counts_fit_to_the_zero_polynomial(k):
    # every divided difference of zeros is 0 and the certification compares
    # 0 with 0, so the early answer is what the general path returns, on
    # distinct nodes in any order
    for primes in (first_primes(k), first_primes(k)[::-1], first_primes(6)[6 - k :]):
        assert fit_hall_poly(primes, [0] * k, XYM) == ZERO_POLY


def test_reconciliation_renders_no_label_when_every_fit_succeeds(monkeypatch):
    # a fit's name is rendered only when it fails
    want = [(r.triple, r.interpolated, r.verdict) for r in reconcile_poly_table(3)]

    def refuse(label):
        raise AssertionError(f"rendered {label!r}")

    monkeypatch.setattr(IndecLabel, "__str__", refuse)
    assert [(r.triple, r.interpolated, r.verdict) for r in reconcile_poly_table(3)] == want


def test_interpolate_known_values():
    assert interpolate_hall_poly(W(1, 1), U(2, 1), U(1, 1), 2).coefficients == (0, 1)
    assert interpolate_hall_poly(V(1), V(2), U(2, 1), 2).coefficients == (1,)
    assert interpolate_hall_poly(V(1), V(2), U(1, 2), 2).coefficients == ()


def test_interpolate_explicit_primes():
    poly = interpolate_hall_poly(W(1, 1), U(2, 1), U(1, 1), 2, [2, 3, 5, 7, 11, 13])
    assert poly.coefficients == (0, 1)


def test_interpolate_unlisted_family_vanishing_at_one():
    poly = interpolate_hall_poly(W(1, 2), U(3, 2), U(2, 1), 3)
    assert poly.coefficients == (-1, 1)
    assert str(poly) == "T - 1"
    assert poly.evaluate(1) == 0


def bracket_triples(n):
    """Every ordered triple (x, y, m) whose two products bracket() fits."""
    labels = all_labels(n)
    for x in labels:
        for y in labels:
            if x != y:
                dims = tuple(a + b for a, b in zip(label_dims(x, n), label_dims(y, n)))
                for m in multisets_with_dims(n, dims):
                    yield x, y, m


def schedule_disagreements(n):
    """Triples where the default schedule departs from the fit through the
    fixed primes 2..13 (certified at 13), or where that fit exceeds the
    dim Hom(y, x) degree bound; also returns the number of triples checked."""
    table = hom_table(n)
    bad = []
    count = 0
    for x, y, m in bracket_triples(n):
        count += 1
        oracle = interpolate_hall_poly(x, y, m, n, first_primes(6))
        bound = table[(y, x)]
        if oracle.degree > bound:
            bad.append((x, y, m, f"degree {oracle.degree} > {bound}"))
        elif interpolate_hall_poly(x, y, m, n) != oracle:
            bad.append((x, y, m, "scheduled fit differs"))
    return bad, count


def test_schedule_matches_wide_fit_on_bracket_triples():
    bad, count = schedule_disagreements(2)
    assert count == 398
    assert bad == []


def test_hom_table_does_not_depend_on_p():
    # hom_table reads its columns from path ranks over F_2 and serves every
    # field size; the coboundary rank of the cocycle system, taken afresh
    # at each p, must agree with it for every label pair
    for n in range(2, 9):
        table = hom_table(n)
        for p in first_primes(6) if n <= 6 else (2,):
            ctx = AlgebraContext(n, p)
            raws = {l: raw_rep(make_indec(l, ctx)) for l in all_labels(n)}
            solved = {
                (a, b): hom_dim_raw(n, p, *ra, *rb)
                for a, ra in raws.items()
                for b, rb in raws.items()
            }
            assert solved == table, (n, p)


def test_hom_degree_bound_is_dim_hom_of_the_sums():
    for p in (2, 3):
        ctx = AlgebraContext(3, p)
        for xs, ys in [
            ([W(1, 1), V(1)], [U(2, 1), V(2)]),
            ([U(1, 1), U(1, 1)], [U(3, 2), W(2, 2)]),
            ([V(3)], [W(1, 2), W(1, 2), V(1)]),
        ]:
            direct = hom_dim(rep_of_multiset(ys, ctx), rep_of_multiset(xs, ctx))
            assert hom_degree_bound(xs, ys, 3) == direct


def test_schedule_beyond_supported_primes_fails_fast():
    # F is the Gaussian binomial [12, 6]_q, of degree 36 = dim Hom(Y, X):
    # more primes than are supported, so nothing is counted at all
    six = [W(1, 1)] * 6
    with pytest.raises(InterpolationError, match="needs 38 primes; 25 are supported"):
        interpolate_hall_poly(six, six, six + six, 2)


def test_interpolate_rejects_bad_prime_lists():
    with pytest.raises(InterpolationError):
        interpolate_hall_poly(V(1), V(2), U(2, 1), 2, [5])
    with pytest.raises(InterpolationError):
        interpolate_hall_poly(V(1), V(2), U(2, 1), 2, [3, 3, 5])
    with pytest.raises(InterpolationError):
        interpolate_hall_poly(V(1), V(2), U(2, 1), 2, [2, 3, 4])


def test_interpolate_certification_point_catches_low_degree():
    # two primes allow only a constant fit, and the count here grows with p
    with pytest.raises(InterpolationError):
        interpolate_hall_poly(W(1, 1), U(2, 1), U(1, 1), 2, [2, 3])


def test_expected_listed_items():
    one = (1,)
    assert expected_hall_poly(W(1, 1), W(2, 2), W(1, 2), 3).coefficients == one
    assert expected_hall_poly(W(1, 1), V(2), V(1), 2).coefficients == one
    assert expected_hall_poly(W(1, 1), U(2, 3), U(1, 3), 3).coefficients == one
    assert expected_hall_poly(W(1, 1), U(2, 2), U(2, 1), 2).coefficients == one
    assert expected_hall_poly(W(1, 2), U(2, 3), U(2, 1), 3).coefficients == one
    assert expected_hall_poly(W(1, 2), U(1, 3), U(1, 1), 3).coefficients == one
    assert expected_hall_poly(V(2), V(1), U(1, 2), 2).coefficients == one
    assert expected_hall_poly(V(1), V(1), U(1, 1), 2).coefficients == one


def test_expected_ambiguous_zones():
    # T-value rows collide with an unconstrained 1-value row
    assert expected_hall_poly(W(1, 1), U(2, 1), U(1, 1), 2) == "ambiguous"
    # the same unconstrained row reaches beyond every other listed range
    assert expected_hall_poly(W(1, 1), U(2, 2), U(1, 2), 2) == "ambiguous"
    # ... and below the T rows' range, l < i
    assert expected_hall_poly(W(2, 2), U(3, 1), U(2, 1), 3) == "ambiguous"
    # malformed entry, reading the first two of its three indices
    assert expected_hall_poly(W(2, 2), U(1, 3), U(1, 2), 3) == "ambiguous"
    # malformed entry, reading the last two of its three indices
    assert expected_hall_poly(W(1, 2), U(3, 2), U(2, 1), 3) == "ambiguous"


def test_expected_unlisted():
    assert expected_hall_poly(V(1), V(2), U(1, 2), 2) == "unlisted"
    assert expected_hall_poly(V(2), V(1), U(2, 1), 2) == "unlisted"
    assert expected_hall_poly(U(1, 1), V(1), V(1), 2) == "unlisted"


def test_expected_rejects_bad_input():
    with pytest.raises(LabelError):
        expected_hall_poly((W(1, 1), W(1, 1)), V(1), V(1), 2)
    with pytest.raises(LabelError):
        expected_hall_poly(W(1, 2), V(1), V(1), 2)


def test_reconcile_table_n2():
    reports = reconcile_poly_table(2)
    assert len(reports) == 16
    assert all(r.verdict != "mismatch" for r in reports)
    ambiguous = {r.triple for r in reports if r.verdict == "ambiguous"}
    assert ambiguous == {
        (W(1, 1), U(2, 1), U(1, 1)),
        (W(1, 1), U(2, 2), U(1, 2)),
    }
    by_triple = {r.triple: r for r in reports}
    assert by_triple[(V(1), V(2), U(2, 1))].interpolated.coefficients == (1,)
    # the T-value rows hold even though their verdict stays ambiguous
    assert by_triple[(W(1, 1), U(2, 1), U(1, 1))].interpolated.coefficients == (0, 1)
    for r in reports:
        if r.expected == "unlisted":
            assert r.interpolated.coefficients == ()


def test_reconcile_degrees_small():
    for r in reconcile_poly_table(2):
        assert r.interpolated.degree <= 1


def test_reconcile_deterministic_order():
    first = reconcile_poly_table(2)
    second = reconcile_poly_table(2)
    assert [r.triple for r in first] == [r.triple for r in second]


def test_evaluation_consistency():
    for triple in [
        (W(1, 1), U(2, 1), U(1, 1)),
        (V(1), V(2), U(2, 1)),
        (W(1, 1), V(2), V(1)),
    ]:
        poly = interpolate_hall_poly(*triple, 2)
        for p in (2, 3, 5):
            got = hall_number(*triple, AlgebraContext(2, p))
            assert poly.evaluate(p) == got


def test_identities_small_context_all_pass():
    for p in (2, 3):
        checks = verify_product_identities(2, p)
        assert len(checks) == 6
        assert all(c.ok for c in checks)


def test_identities_known_failure_at_n3():
    # the published loop-glue display gives [W2,2].[U3,1] the coefficients
    # q, q; the table carries the corrected 1, 1 (projective index strictly
    # below the interval start), and with it every expansion at n=3 holds
    for p in (2, 3):
        checks = verify_product_identities(3, p)
        assert [(c.family, c.left, c.right) for c in checks if not c.ok] == []
        (slip,) = [
            c
            for c in checks
            if (c.family, c.left, c.right) == ("loop-glue", W(2, 2), U(3, 1))
        ]
        pair = DecompositionMultiset.from_labels((U(3, 1), W(2, 2)))
        single = DecompositionMultiset.from_labels((U(2, 1),))
        assert slip.expected.coefficient(pair) == 1
        assert slip.expected.coefficient(single) == 1
        assert len(slip.expected) == 2


def test_loop_glue_coefficients_from_hom_dimensions():
    # Independent of the enumerator and the table: with P_j = U(n,j),
    # Riedtmann's formula gives the split term |Hom(P_j, W(i,n-1))|, and the
    # copies of P_j inside U(i,j) number q^(dim Hom(P_j, U(i,j)) - 1)
    for n in (2, 3, 4):
        for p in (2, 3):
            hom = hom_table(n)
            checks = {
                (c.left, c.right): c
                for c in verify_product_identities(n, p)
                if c.family == "loop-glue"
            }
            for i in range(1, n):
                for j in range(1, i + 1):
                    w, proj, glued = W(i, n - 1), U(n, j), U(i, j)
                    derived = IsoClassCombo.from_dict(
                        {
                            DecompositionMultiset.from_labels((w, proj)): p
                            ** hom[proj, w],
                            DecompositionMultiset.from_labels((glued,)): p
                            ** (hom[proj, glued] - 1),
                        }
                    )
                    chk = checks[w, proj]
                    assert chk.expected == derived, (n, p, i, j)
                    assert chk.got == derived, (n, p, i, j)


def test_identity_failure_has_unit_coefficients():
    ctx = AlgebraContext(3, 2)
    got = hall_product(W(2, 2), U(3, 1), ctx)
    pair = DecompositionMultiset.from_labels((U(3, 1), W(2, 2)))
    single = DecompositionMultiset.from_labels((U(2, 1),))
    assert got.coefficient(pair) == 1
    assert got.coefficient(single) == 1
    assert len(got) == 2


def test_report_serializations_agree():
    rows = reconciliation_rows(reconcile_poly_table(2))
    assert json.loads(_rows_text(rows, "json")) == rows
    lines = _rows_text(rows, "tsv").strip().split("\n")
    assert lines[0] == "triple\texpected\tinterpolated\tverdict"
    assert len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        triple, expected, interpolated, verdict = line.split("\t")
        assert triple == ";".join(row["triple"])
        assert expected == row["expected"]
        assert interpolated == row["interpolated"]
        assert verdict == row["verdict"]
    assert any(row["expected"] == "unlisted (expected 0)" for row in rows)


def test_identity_serializations_agree():
    rows = identity_rows(verify_product_identities(2, 2))
    assert json.loads(_rows_text(rows, "json")) == rows
    lines = _rows_text(rows, "tsv").strip().split("\n")
    assert lines[0] == "family\tleft\tright\texpected\tgot\tverdict"
    assert len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        fields = line.split("\t")
        assert fields == [
            row["family"],
            row["left"],
            row["right"],
            row["expected"],
            row["got"],
            row["verdict"],
        ]
    assert all(row["verdict"] == "pass" for row in rows)
