import json

import pytest

from hallq.errors import LabelError
from hallq.hall_core import IsoClassCombo
from hallq.lie import (
    RANGE_NOTE,
    SCHEDULE_NOTE,
    ZERO_COMBO,
    bracket,
    bracket_table_to_json,
    bracket_table_to_latex,
    bracket_table_to_tsv,
    build_bracket_table,
    expected_bracket,
    verify_lie_axioms,
)
from hallq.quiver_rep import IndecLabel, all_labels, label_dims


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
    from hallq.lie import BracketTable

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
