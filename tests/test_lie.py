import json
import re

import pytest

from hallq.cli import main
from hallq.errors import InternalInvariantError, InterpolationError, LabelError
from hallq.hall_core import IsoClassCombo
from hallq.hall_poly import expected_hall_poly
import hallq.lie
from hallq.lie import (
    RANGE_NOTE,
    SCHEDULE_NOTE,
    ZERO_COMBO,
    BracketTable,
    _walked_bracket,
    bracket,
    bracket_table_to_json,
    bracket_table_to_latex,
    bracket_table_to_tsv,
    build_bracket_table,
    expected_bracket,
    verify_lie_axioms,
)
from hallq.quiver_rep import IndecLabel, all_labels, degree_table, label_dims


def U(i, j):
    return IndecLabel("U", i, j)


def V(i):
    return IndecLabel("V", i)


def W(i, j):
    return IndecLabel("W", i, j)


def combo(*pairs):
    return IsoClassCombo.from_dict(dict(pairs))


@pytest.fixture(scope="module")
def table2():
    return build_bracket_table(2)


def test_label_combo_basics():
    c = combo((U(2, 1), 1), (U(1, 2), -1))
    assert str(c) == "-U1,2 + U2,1"
    assert c.coefficient(U(2, 1)) == 1
    assert c.coefficient(V(1)) == 0
    assert (-c).coefficient(U(1, 2)) == 1
    assert str(ZERO_COMBO) == "0"
    assert combo((V(1), 0)).is_zero()
    assert str(combo((V(1), 2))) == "2*V1"


def test_bracket_socle_pair():
    got = bracket(V(1), V(2), 2)
    assert got == combo((U(2, 1), 1), (U(1, 2), -1))
    assert bracket(V(2), V(1), 2) == -got
    assert bracket(V(1), V(1), 2).is_zero()


def test_bracket_interval_hits_tail():
    assert bracket(W(1, 1), V(2), 2) == combo((V(1), 1))
    assert bracket(V(2), W(1, 1), 2) == combo((V(1), -1))


def test_bracket_interval_chain():
    assert bracket(W(1, 1), W(2, 2), 3) == combo((W(1, 2), 1))
    assert bracket(W(2, 2), W(1, 1), 3) == combo((W(1, 2), -1))


def test_bracket_interval_with_projective():
    assert bracket(W(1, 1), U(1, 2), 2) == combo((U(1, 1), 1))


def test_bracket_validates_labels():
    with pytest.raises(LabelError):
        bracket(W(1, 2), V(1), 2)


def test_expected_bracket_families():
    assert expected_bracket(W(1, 1), W(2, 2), 3) == combo((W(1, 2), 1))
    assert expected_bracket(W(1, 1), V(2), 2) == combo((V(1), 1))
    assert expected_bracket(W(1, 1), U(2, 2), 2) == combo(
        (U(2, 1), 1), (U(1, 2), 1)
    )
    assert expected_bracket(V(1), V(2), 2) == combo((U(2, 1), 1), (U(1, 2), -1))
    assert expected_bracket(V(1), V(1), 2).is_zero()


def test_expected_bracket_zero_pairs():
    assert expected_bracket(U(1, 1), U(2, 2), 3).is_zero()
    assert expected_bracket(V(1), U(1, 2), 2).is_zero()
    assert expected_bracket(W(1, 1), V(1), 2).is_zero()


def test_expected_bracket_swap_convention():
    for x, y in [(V(2), W(1, 1)), (U(2, 2), W(1, 1)), (W(2, 2), W(1, 1))]:
        assert expected_bracket(x, y, 3) == -expected_bracket(y, x, 3)


def test_expected_bracket_is_the_hall_table_at_one():
    # the two stated tables, compared with each other and no count: off the
    # ambiguous zones, E^m_{x,y}(1) - E^m_{y,x}(1) is the coefficient of m in
    # [x, y], an "unlisted" entry reading 0, and every term of [x, y] lies
    # in the degree dim x + dim y
    compared = 0
    for n in range(2, 7):
        labels = all_labels(n)
        degrees = degree_table(n)
        for idx, x in enumerate(labels):
            for y in labels[idx + 1 :]:
                want = tuple(a + b for a, b in zip(degrees.by_label[x], degrees.by_label[y]))
                got = expected_bracket(x, y, n)
                assert all(degrees.by_label[lab] == want for lab, _ in got.terms), (x, y)
                for m in degrees.by_dims.get(want, ()):
                    ends = [expected_hall_poly(x, y, m, n), expected_hall_poly(y, x, m, n)]
                    if "ambiguous" in ends:
                        continue
                    at_one = [0 if e == "unlisted" else e.evaluate(1) for e in ends]
                    assert at_one[0] - at_one[1] == got.coefficient(m), (x, y, m)
                    compared += 1
    # every indecomposable composite off the ambiguous zones at n = 2..6
    assert compared == 420


def test_table_n2_matches_closed_forms(table2):
    table = table2
    assert len(table.entries) == 21
    assert table.mismatches == ()
    assert table.get(V(1), V(2)) == combo((U(2, 1), 1), (U(1, 2), -1))
    assert table.get(V(2), V(1)) == combo((U(2, 1), -1), (U(1, 2), 1))
    assert table.get(V(1), V(1)).is_zero()
    # pairs outside the basis fail loudly
    with pytest.raises(KeyError):
        table.get(W(1, 2), V(1))


def test_axioms_n2(table2):
    report = verify_lie_axioms(table2)
    assert report.ok
    assert report.violations == ()
    assert report.diagonal_ok and report.antisymmetry_ok
    assert report.jacobi_ok and report.grading_ok


def test_grading_direct(table2):
    for x, y, c in table2.entries:
        want = tuple(
            a + b for a, b in zip(label_dims(x, 2), label_dims(y, 2))
        )
        for lab, _ in c.terms:
            assert label_dims(lab, 2) == want


def test_axiom_check_catches_planted_defect(table2):
    table = table2
    bad_entries = []
    for x, y, c in table.entries:
        if (x, y) == (W(1, 1), V(2)):
            c = combo((V(2), 1))  # wrong grading and breaks Jacobi inputs
        bad_entries.append((x, y, c))
    bad = BracketTable(2, table.primes, tuple(bad_entries), (), table.notes)
    report = verify_lie_axioms(bad)
    assert not report.grading_ok


def test_table_serializations_agree(table2):
    table = table2
    tsv = bracket_table_to_tsv(table)
    payload = json.loads(bracket_table_to_json(table))
    assert payload["n"] == 2
    # built on the default schedule: the widest one, dim Hom = 2 at n = 2
    assert payload["primes"] == [2, 3, 5, 7]
    assert payload["notes"] == [RANGE_NOTE, SCHEDULE_NOTE]
    data_lines = [
        line for line in tsv.strip().split("\n") if not line.startswith("#")
    ]
    assert data_lines[0] == "x\ty\tbracket"
    assert len(data_lines) == len(payload["entries"]) + 1
    for line, row in zip(data_lines[1:], payload["entries"]):
        fields = line.split("\t")
        assert fields[0] == row["x"]
        assert fields[1] == row["y"]
        assert fields[2:] == [f"{lab}:{c}" for lab, c in row["bracket"]]
    note_lines = [line for line in tsv.split("\n") if line.startswith("# note: ")]
    assert [line.removeprefix("# note: ") for line in note_lines] == payload["notes"]


def test_table_latex_export(table2):
    latex = bracket_table_to_latex(table2)
    assert latex.startswith("\\begin{tabular}")
    assert latex.rstrip().endswith("\\end{tabular}")
    assert "V_{1} & V_{2} & -U_{1,2} + U_{2,1} \\\\" in latex


def test_all_labels_basis_size():
    assert len(all_labels(2)) == 7


def _dense_jacobi_violations(table):
    # the reference: every triple x < y < z expanded, none skipped
    labels = all_labels(table.n)
    terms = {(a, b): table.get(a, b).terms for a in labels for b in labels}
    out = []
    for ix, x in enumerate(labels):
        for iy in range(ix + 1, len(labels)):
            y = labels[iy]
            for z in labels[iy + 1 :]:
                acc = {}
                for a, (b, c) in ((x, (y, z)), (y, (z, x)), (z, (x, y))):
                    for lab, k in terms[(b, c)]:
                        for lab2, k2 in terms[(a, lab)]:
                            acc[lab2] = acc.get(lab2, 0) + k * k2
                if any(acc.values()):
                    out.append(f"Jacobi fails on ({x}, {y}, {z})")
    return out


def test_axiom_check_catches_planted_jacobi_defect():
    # doubling [W1,1, W2,2] = W1,2 keeps the grading; only Jacobi sees it
    table = build_bracket_table(3, (2, 3, 5, 7))
    entries = tuple(
        (x, y, combo((W(1, 2), 2)) if (x, y) == (W(1, 1), W(2, 2)) else c)
        for x, y, c in table.entries
    )
    report = verify_lie_axioms(BracketTable(3, table.primes, entries, (), table.notes))
    assert report.grading_ok and report.diagonal_ok and report.antisymmetry_ok
    assert not report.jacobi_ok


def test_sparse_jacobi_matches_dense_on_planted_tables():
    # one planted entry per table: a nonzero entry doubled, which keeps the
    # grading, so only triples of a label's degree are expanded, or a zero
    # one given a label, which mostly breaks it, so every triple with a
    # nonzero entry is; failing triples sit on every side of the pair. At
    # n = 4 every nonzero entry is planted, and every fifth zero one
    for n, stride in ((3, 1), (4, 5)):
        table = build_bracket_table(n, (2, 3, 5, 7))
        labels = all_labels(n)
        failing = graded = 0
        for k, (x, y, c) in enumerate(table.entries):
            if not c.terms and k % stride:
                continue
            planted = combo(*((lab, 2 * v) for lab, v in c.terms)) if c.terms else combo(
                (labels[k % len(labels)], 1)
            )
            entries = table.entries[:k] + ((x, y, planted),) + table.entries[k + 1 :]
            bad = BracketTable(n, table.primes, entries, (), table.notes)
            report = verify_lie_axioms(bad)
            jacobi = [v for v in report.violations if v.startswith("Jacobi")]
            assert jacobi == _dense_jacobi_violations(bad), (n, x, y)
            failing += bool(jacobi)
            graded += report.grading_ok and bool(jacobi)
        assert failing > 50, n
        assert graded > 10, n


def test_diagonal_check_reads_stored_entries(table2):
    # get answers (x, x) with 0 whatever is stored, so the check reads the
    # stored entry; a stored zero diagonal is no violation
    planted = table2.entries + ((V(1), V(1), combo((U(1, 1), 1))), (V(2), V(2), ZERO_COMBO))
    report = verify_lie_axioms(BracketTable(2, table2.primes, planted, (), table2.notes))
    assert not report.diagonal_ok
    assert report.antisymmetry_ok and report.jacobi_ok
    assert [v for v in report.violations if "diagonal" in v] == ["nonzero diagonal at V1"]


def _dense_antisymmetry_violations(table):
    # the reference: every ordered pair of labels compared through get
    labels = all_labels(table.n)
    return [
        f"antisymmetry fails on ({x}, {y})"
        for x in labels
        for y in labels
        if table.get(x, y) != -table.get(y, x)
    ]


@pytest.mark.parametrize("consistent", [True, False], ids=["consistent", "inconsistent"])
def test_antisymmetry_on_pairs_stored_in_both_orders(consistent):
    # every third entry stored once more in the opposite order, negated or
    # not; get reads each order as stored, so only these pairs can fail
    table = build_bracket_table(3, (2, 3, 5, 7))
    extra = tuple(
        (y, x, -c if consistent else c) for x, y, c in table.entries[::3]
    )
    planted = BracketTable(3, table.primes, table.entries + extra, (), table.notes)
    report = verify_lie_axioms(planted)
    got = [v for v in report.violations if v.startswith("antisymmetry")]
    assert got == _dense_antisymmetry_violations(planted)
    assert report.antisymmetry_ok == consistent
    if not consistent:
        # both orders of each nonzero pair, in label order
        assert len(got) == 2 * sum(1 for _, _, c in extra if not c.is_zero()) > 0


def test_axiom_check_refuses_a_missing_pair(table2):
    # a pair stored in neither order is not a table at all, also when no
    # Jacobi triple reads it, as for this pair with bracket 0
    with pytest.raises(KeyError, match=r"pair \(V2, U2,2\) not in the table"):
        verify_lie_axioms(
            BracketTable(
                2,
                table2.primes,
                tuple(e for e in table2.entries if e[:2] != (V(2), U(2, 2))),
                (),
                table2.notes,
            )
        )


def _pair_degree(x, y, n):
    dims = degree_table(n).by_label
    return tuple(a + b for a, b in zip(dims[x], dims[y]))


# unordered pairs whose degree is some label's: the ones bracket walks
WALKED_PAIRS = {2: 5, 3: 22, 4: 58, 5: 120}


@pytest.mark.parametrize("n", sorted(WALKED_PAIRS))
def test_walks_cover_skipped_pairs(n):
    # every pair through the walks, so the decomposable-cancellation
    # assertion, the coboundary-rank check and Riedtmann's integrality check
    # still run on the pairs bracket answers by the grading alone
    labels = all_labels(n)
    walked = 0
    for ix, x in enumerate(labels):
        for y in labels[ix + 1 :]:
            got = _walked_bracket(x, y, n, None)
            if _pair_degree(x, y, n) in degree_table(n).by_dims:
                walked += 1
                assert got == bracket(x, y, n)
            else:
                assert got.is_zero(), (x, y, got)
    assert walked == WALKED_PAIRS[n]


def test_table_build_walks_only_graded_pairs(monkeypatch):
    calls = []
    real = hallq.lie.product_counts

    def counting(*args):
        calls.append(args[:2])
        return real(*args)

    monkeypatch.setattr(hallq.lie, "product_counts", counting)
    table = build_bracket_table(3, (2, 3, 5, 7))
    assert len(table.entries) == 105
    # one walk each way for the 22 pairs whose degree is a label's
    assert len(calls) == 2 * WALKED_PAIRS[3]


def test_short_list_unused_by_skipped_pairs():
    # 2,3,5 is too short only for pairs that bracket to 0 by the grading
    assert build_bracket_table(3, (2, 3, 5)).entries == build_bracket_table(3).entries


def _with_extra_count(monkeypatch, sides, ms, extra):
    # the walk of sides counts ms extra(p) more at each of its primes p
    real = hallq.lie.product_counts

    def patched(xs, ys, n, primes, where):
        plist, counts = real(xs, ys, n, primes, where)
        if (xs, ys) == sides:
            counts = [{**c, ms: c.get(ms, 0) + extra(p)} for p, c in zip(plist, counts)]
        return plist, counts

    monkeypatch.setattr(hallq.lie, "product_counts", patched)


@pytest.mark.parametrize(
    "sides, ms, want",
    [
        # the split term, which both orientations count, one more in x.y
        (((W(1, 1),), (V(2),)), (W(1, 1), V(2)), "W1,1 + V2 carries coefficient 1"),
        # a composite neither orientation counts, added to y.x: x.y fits it
        # through the all-zero list
        (((V(2),), (W(1, 1),)), (W(1, 2), V(3)), "W1,2 + V3 carries coefficient -1"),
    ],
)
def test_decomposable_coefficient_is_an_invariant_breach(monkeypatch, capsys, sides, ms, want):
    _with_extra_count(monkeypatch, sides, ms, lambda p: 1)
    message = f"decomposable class {want} in the bracket of W1,1 and V2"
    with pytest.raises(InternalInvariantError, match=f"^{re.escape(message)}$"):
        bracket(W(1, 1), V(2), 3, (2, 3, 5, 7))
    assert main(["lie-verify", "--n", "3"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"internal invariant breach: {message}\n")


def test_bracket_names_a_non_integer_fit_by_its_triple(monkeypatch):
    # 0, 1, 0 at 2, 3, 5 is no integer polynomial: f[3, 5] = -1/2
    _with_extra_count(monkeypatch, ((W(1, 1),), (W(2, 2),)), (W(1, 2),), lambda p: -(p != 3))
    with pytest.raises(InterpolationError) as err:
        bracket(W(1, 1), W(2, 2), 3, (2, 3, 5, 7))
    assert str(err.value) == (
        "non-integer Newton divided difference -1/2 (order 1) fitting (W1,1; W2,2; W1,2)"
    )


def test_table_build_renders_no_label_when_every_fit_succeeds(monkeypatch):
    # a fit's name is rendered only when it fails
    want = build_bracket_table(3, (2, 3, 5, 7))

    def refuse(label):
        raise AssertionError(f"rendered {label!r}")

    monkeypatch.setattr(IndecLabel, "__str__", refuse)
    assert build_bracket_table(3, (2, 3, 5, 7)) == want
