import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hallq import hall_poly, hom_decomp, lie
from hallq.cli import COMMANDS, build_parser, main
from hallq.errors import InternalInvariantError
from hallq.hall_core import IsoClassCombo
from hallq.hall_poly import ONE_POLY, ZERO_POLY, ProductIdentityCheck, verify_product_identities
from hallq.quiver_rep import (
    AlgebraContext,
    IndecLabel,
    all_labels,
    label_dims,
    parse_label,
    rep_of_multiset,
    rep_to_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hall_number_example(capsys):
    code, out, _ = run(capsys, "hall-number", "--n", "2", "--p", "3", "W1,1", "U2,1", "U1,1")
    assert code == 0
    assert out == "3\n"


def test_hall_number_and_hall_poly_write_out(capsys, tmp_path):
    target = tmp_path / "number.txt"
    code, out, _ = run(
        capsys, "hall-number", "--n", "2", "--p", "3", "W1,1", "U2,1", "U1,1",
        "--out", str(target),
    )
    assert (code, out) == (0, "")
    assert target.read_text() == "3\n"
    target = tmp_path / "poly.txt"
    code, out, _ = run(
        capsys, "hall-poly", "--n", "2", "W1,1", "U2,1", "U1,1", "--out", str(target)
    )
    assert (code, out) == (0, "")
    assert target.read_text() == "T\n"


def test_hall_number_dims_mismatch_prints_zero(capsys):
    code, out, _ = run(capsys, "hall-number", "--n", "2", "--p", "2", "V1", "V1", "U1,2")
    assert code == 0
    assert out == "0\n"


def test_indec_list_counts(capsys):
    code, out, _ = run(capsys, "indec-list", "--n", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "label\tdims"
    assert len(lines) == 8
    code, out, _ = run(capsys, "indec-list", "--n", "3")
    assert len(out.strip().split("\n")) == 16


def test_indec_list_dims_recompute(capsys):
    _, out, _ = run(capsys, "indec-list", "--n", "3")
    for line in out.strip().split("\n")[1:]:
        name, dims = line.split("\t")
        label = parse_label(name)
        assert tuple(int(d) for d in dims.split(",")) == label_dims(label, 3)


def test_indec_list_json_parity(capsys):
    _, tsv_out, _ = run(capsys, "indec-list", "--n", "2")
    _, json_out, _ = run(capsys, "indec-list", "--n", "2", "--format", "json")
    rows = json.loads(json_out)
    lines = tsv_out.strip().split("\n")[1:]
    assert len(rows) == len(lines)
    for row, line in zip(rows, lines):
        name, dims = line.split("\t")
        assert row["label"] == name
        assert row["dims"] == [int(d) for d in dims.split(",")]


def test_hall_poly_command(capsys):
    code, out, _ = run(capsys, "hall-poly", "--n", "2", "W1,1", "U2,1", "U1,1")
    assert code == 0
    assert out == "T\n"
    code, out, _ = run(
        capsys, "hall-poly", "--n", "2", "--primes", "2,3,5,7", "V1", "V2", "U2,1"
    )
    assert code == 0
    assert out == "1\n"


def test_verify_prop_exit_and_report(capsys, tmp_path):
    target = tmp_path / "report.tsv"
    code, out, err = run(capsys, "verify-prop", "--n", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "0 mismatch" in err
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "triple\texpected\tinterpolated\tverdict"
    assert len(lines) == 17


def test_verify_prop_format_parity(capsys):
    _, tsv_out, _ = run(capsys, "verify-prop", "--n", "2")
    _, json_out, _ = run(capsys, "verify-prop", "--n", "2", "--format", "json")
    rows = json.loads(json_out)
    assert len(tsv_out.strip().split("\n")) == len(rows) + 1


def test_verify_identities_exit_codes(capsys, monkeypatch):
    for n in ("2", "3"):
        code, _, err = run(capsys, "verify-identities", "--n", n, "--p", "2")
        assert code == 0
        assert "0 fail" in err
    # every built-in expansion holds, so a failing check is injected to cover
    # the mismatch exit code
    held = verify_product_identities(2, 2)[0]
    failing = ProductIdentityCheck(
        held.family, held.left, held.right, held.expected, held.got, ok=False
    )
    monkeypatch.setattr(
        "hallq.cli.verify_product_identities", lambda *a, **kw: [failing]
    )
    code, out, err = run(capsys, "verify-identities", "--n", "2", "--p", "2")
    assert code == 1
    assert "1 fail" in err
    assert out.strip().split("\n")[-1].endswith("\tfail")


def test_verify_identities_at_n7_needs_no_ceiling(capsys):
    # total dimension 14 and more, but every walk visits a few classes
    code, _, err = run(capsys, "verify-identities", "--n", "7", "--p", "3")
    assert code == 0
    assert err == "126 expansions: 0 fail\n"


def test_internal_invariant_breach_exits_3(capsys, monkeypatch, tmp_path):
    # a hom-count inverse of zeros gives every label multiplicity 0, which
    # cannot have the module's dimensions: decompose reports the breach. The
    # inverse reaches decompose by its nonzeros, here none in any row
    ctx = AlgebraContext(2, 3)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(rep_of_multiset((IndecLabel("V", 1),), ctx))))
    empty = ((),) * len(all_labels(2))
    monkeypatch.setattr("hallq.hom_decomp._c_inverse", lambda n: (empty, empty))
    code, out, err = run(capsys, "decompose", str(path))
    assert (code, out) == (3, "")
    assert err == (
        "internal invariant breach: decomposition does not have the module's dimensions\n"
    )


def test_riedtmann_count_off_the_integers_exits_3(capsys, monkeypatch):
    # |Aut| of an indecomposable, p - 1, taken p times over: the split term
    # of W1,1 by V2 at n = 2 then counts (p-1)^2 / (p(p-1))^2, first at p = 2
    real = hom_decomp._aut_order
    monkeypatch.setattr(
        hom_decomp, "_aut_order", lambda shape, p: real(shape, p) * (p if shape == (0, (1,)) else 1)
    )
    message = "Riedtmann count 1/4 for W1,1 + V2 is not an integer"
    with pytest.raises(InternalInvariantError, match=f"^{re.escape(message)}$"):
        hom_decomp.riedtmann_hall_numbers((IndecLabel("W", 1, 1),), (IndecLabel("V", 2),), 2, (2,))
    code, out, err = run(capsys, "lie-verify", "--n", "2")
    assert (code, out, err) == (3, "", f"internal invariant breach: {message}\n")


def test_a_wrong_closed_form_is_a_mismatch(capsys, monkeypatch):
    # the coefficient of W1,2 in [W1,1, W2,2] flipped in the closed-form
    # brackets, then the polynomial of (W1,1, W2,2, W1,2), 1, tabulated as
    # 0: each is the one mismatch of its report
    pair = (IndecLabel("W", 1, 1), IndecLabel("W", 2, 2))
    real_bracket = lie.expected_bracket

    def flipped(x, y, n):
        combo = real_bracket(x, y, n)
        if (x, y) != pair:
            return combo
        (key, c), *rest = combo.terms
        return IsoClassCombo(((key, -c), *rest))

    monkeypatch.setattr(lie, "expected_bracket", flipped)
    code, _, err = run(capsys, "lie-table", "--n", "3")
    assert (code, err) == (1, "105 pairs: 1 closed-form mismatches\n")
    code, out, _ = run(capsys, "lie-verify", "--n", "3")
    assert code == 1 and "closed_form_mismatches\t1" in out.split("\n")
    real_poly = hall_poly.expected_hall_poly
    triple = (*pair, IndecLabel("W", 1, 2))
    assert real_poly(*triple, 3) == ONE_POLY
    monkeypatch.setattr(
        hall_poly,
        "expected_hall_poly",
        lambda x, y, m, n: ZERO_POLY if (x, y, m) == triple else real_poly(x, y, m, n),
    )
    code, _, err = run(capsys, "verify-prop", "--n", "3")
    assert (code, err) == (1, "71 triples: 58 match, 12 ambiguous, 1 mismatch\n")


@pytest.mark.parametrize("command", ["indec-list", "lie-verify"])
def test_tsv_report_never_loads_json(command):
    # a fresh interpreter, since this one has json loaded already; the JSON
    # branch of the same command does load it
    code = (
        "import sys\n"
        "from hallq.cli import main\n"
        "main(sys.argv[1:])\n"
        "print('json' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    loaded = []
    for fmt in ("tsv", "json"):
        done = subprocess.run(
            [sys.executable, "-c", code, command, "--n", "2", "--format", fmt],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        loaded.append(done.stdout.splitlines()[-1])
    assert loaded == ["False", "True"]


def test_lie_verify_small(capsys):
    code, out, _ = run(capsys, "lie-verify", "--n", "2")
    assert code == 0
    assert "antisymmetry\tpass" in out
    assert "jacobi\tpass" in out


def test_lie_table_formats(capsys):
    code, out, _ = run(capsys, "lie-table", "--n", "2")
    assert code == 0
    assert "x\ty\tbracket" in out
    code, json_out, _ = run(capsys, "lie-table", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    assert len(payload["entries"]) == 21
    code, latex_out, _ = run(capsys, "lie-table", "--n", "2", "--format", "latex")
    assert code == 0
    assert latex_out.startswith("\\begin{tabular}")


def test_decompose_file(capsys, tmp_path):
    ctx = AlgebraContext(2, 3)
    rep = rep_of_multiset((IndecLabel("V", 1), IndecLabel("W", 1, 1)), ctx)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(rep)))
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 0
    assert out == "W1,1 + V1\n"


@pytest.mark.parametrize("p", [3, 5])
def test_decompose_file_in_a_rescaled_basis(capsys, tmp_path, p):
    # U1,2 + W1,2 + V2 with its coordinates at vertex 2 doubled: arrow
    # entries 2 and 1/2 fail the unit-column check, so the profile is
    # eliminated
    labels = (IndecLabel("U", 1, 2), IndecLabel("W", 1, 2), IndecLabel("V", 2))
    data = rep_to_json(rep_of_multiset(labels, AlgebraContext(3, p)))
    into, out_of = data["arrows"]
    data["arrows"] = [
        [[2 * e % p for e in row] for row in into],
        [[pow(2, -1, p) * e % p for e in row] for row in out_of],
    ]
    assert any(e > 1 for mat in data["arrows"] for row in mat for e in row)
    path = tmp_path / "rescaled.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 0
    assert out == "W1,2 + V2 + U1,2\n"


def test_decompose_rejects_bad_loop(capsys, tmp_path):
    ctx = AlgebraContext(2, 2)
    rep = rep_of_multiset((IndecLabel("U", 1, 1),), ctx)
    data = rep_to_json(rep)
    data["loop"] = [[1, 0], [0, 1]]  # squares to the identity
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "decompose", str(path))
    assert code == 2
    assert "loop" in err


def test_decompose_missing_and_malformed(capsys, tmp_path):
    code, _, _ = run(capsys, "decompose", str(tmp_path / "nope.json"))
    assert code == 2
    path = tmp_path / "mangled.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "decompose", str(path))
    assert code == 2


def test_hall_number_from_file(capsys, tmp_path):
    ctx = AlgebraContext(2, 3)
    rep = rep_of_multiset((IndecLabel("U", 1, 1),), ctx)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(rep_to_json(rep)))
    code, out, _ = run(
        capsys, "hall-number", "--n", "2", "--p", "3", "W1,1", "U2,1",
        "--m-file", str(path),
    )
    assert code == 0
    assert out == "3\n"


def test_hall_number_file_wrong_n(capsys, tmp_path):
    ctx = AlgebraContext(3, 2)
    rep = rep_of_multiset((IndecLabel("V", 1),), ctx)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(rep_to_json(rep)))
    code, _, err = run(
        capsys, "hall-number", "--n", "2", "--p", "2", "V1", "V2",
        "--m-file", str(path),
    )
    assert code == 2
    assert "n=3" in err


def test_hall_number_file_wrong_p(capsys, tmp_path):
    rep = rep_of_multiset((IndecLabel("U", 1, 1),), AlgebraContext(2, 3))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(rep_to_json(rep)))
    code, out, err = run(
        capsys, "hall-number", "--n", "2", "--p", "5", "W1,1", "U2,1",
        "--m-file", str(path),
    )
    assert (code, out) == (2, "")
    assert "p=3" in err and "p=5" in err
    # hall-poly has no --p and reads the file for its isoclass only
    code, out, _ = run(capsys, "hall-poly", "--n", "2", "W1,1", "U2,1", "--m-file", str(path))
    assert (code, out) == (0, "T\n")


def test_rep_file_non_integers_exit_2(capsys, tmp_path):
    data = rep_to_json(rep_of_multiset((IndecLabel("U", 1, 1),), AlgebraContext(2, 3)))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(dict(data, p="3")))
    code, _, err = run(capsys, "decompose", str(path))
    assert code == 2
    assert "integers" in err
    path.write_text(json.dumps(dict(data, n=2.9)))
    code, _, err = run(
        capsys, "hall-number", "--n", "2", "--p", "3", "W1,1", "U2,1",
        "--m-file", str(path),
    )
    assert code == 2
    assert "integers" in err


def test_usage_errors(capsys):
    assert run(capsys, "hall-number", "--n", "2", "--p", "3", "Q1", "V2", "U2,1")[0] == 2
    assert run(capsys, "hall-number", "--n", "2", "--p", "3", "V1", "V2")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    # --parallelism was a no-op and is gone; argparse now rejects it
    assert run(capsys, "lie-verify", "--n", "2", "--parallelism", "0")[0] == 2
    # LaTeX is a --format choice of lie-table alone
    assert run(capsys, "lie-table", "--n", "2", "--latex")[0] == 2
    assert run(capsys, "lie-verify", "--n", "2", "--format", "latex")[0] == 2
    assert run(capsys, "lie-verify", "--n", "2", "--parallelism", "2")[0] == 2
    # --dim-ceiling is gone: every counter refuses on its own work count
    assert run(capsys, "lie-table", "--n", "2", "--dim-ceiling", "3")[0] == 2
    assert run(capsys, "indec-list", "--n", "2", "--dim-ceiling", "1")[0] == 2
    assert run(
        capsys, "hall-number", "--n", "2", "--p", "2", "W1,1", "U2,1", "U1,1",
        "--dim-ceiling", "3",
    )[0] == 2
    assert run(
        capsys, "hall-poly", "--n", "2", "W1,1", "U2,1", "U1,1", "--dim-ceiling", "3"
    )[0] == 2


# each invalid input with the text of its rule, read from its one owner:
# fit_primes (an explicit prime list), the --primes type (its integers),
# all_labels (n >= 2, for every command that builds no context) and
# AlgebraContext (a single prime, and n for the commands that build one)
PRIME_LIST_RULES = [
    ("3", "need at least two evaluation primes"),
    ("2,2,3", "evaluation primes must be distinct"),
    ("2,3,4", "unsupported evaluation prime 4"),
    ("2,x", "could not parse prime list '2,x'"),
]
INVALID_INPUTS = [
    pytest.param([command, "--n", "2", "--primes", primes, *triple], rule, id=f"{command}-{primes}")
    for command, triple in (
        ("hall-poly", ("V1", "V2", "U2,1")),
        ("verify-prop", ()),
        ("lie-table", ()),
        ("lie-verify", ()),
    )
    for primes, rule in PRIME_LIST_RULES
] + [
    pytest.param(["indec-list", "--n", "1"], "need n >= 2", id="indec-list-n1"),
    pytest.param(
        ["hall-number", "--n", "1", "--p", "3", "V1", "V1", "U1,1"],
        "need at least 2 vertices, got n=1",
        id="hall-number-n1",
    ),
    pytest.param(["hall-poly", "--n", "1", "V1", "V1", "U1,1"], "need n >= 2", id="hall-poly-n1"),
    pytest.param(["verify-prop", "--n", "1"], "need n >= 2", id="verify-prop-n1"),
    pytest.param(
        ["verify-identities", "--n", "1", "--p", "3"],
        "need at least 2 vertices, got n=1",
        id="verify-identities-n1",
    ),
    pytest.param(["lie-table", "--n", "1"], "need n >= 2", id="lie-table-n1"),
    pytest.param(["lie-verify", "--n", "1"], "need n >= 2", id="lie-verify-n1"),
    pytest.param(
        ["hall-number", "--n", "2", "--p", "4", "V1", "V2", "U2,1"],
        "unsupported field order 4; need a prime in [2, 97]",
        id="hall-number-p4",
    ),
    pytest.param(
        ["verify-identities", "--n", "2", "--p", "4"],
        "unsupported field order 4; need a prime in [2, 97]",
        id="verify-identities-p4",
    ),
]


@pytest.mark.parametrize("argv, rule", INVALID_INPUTS)
def test_invalid_input_exits_2_naming_its_rule(capsys, argv, rule):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert rule in err


def test_one_subcommand_parser_prints_the_full_parsers_texts(capsys):
    # main builds only the parser of the subcommand argv[0] names; the full
    # parser is the reference for every help, usage and error text
    cases = [[name, "-h"] for name, *_ in COMMANDS] + [
        ["lie-table", "--n", "2", "extra"],
        ["lie-table"],
        ["lie-verify", "--n", "2", "--parallelism", "0"],
        ["hall-number", "--n", "2", "--p", "3", "V1"],
        ["indec-list", "--n", "x"],
        ["verify-prop", "--n", "2", "--primes", "2,x"],
        ["decompose"],
    ]
    for argv in cases:
        texts = []
        for parser in (build_parser(), build_parser(argv[0])):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            texts.append((exc.value.code, *capsys.readouterr()))
        assert texts[0] == texts[1], argv
        assert texts[0][1] or texts[0][2], argv
    # and it knows no other subcommand
    with pytest.raises(SystemExit):
        build_parser("lie-table").parse_args(["lie-verify", "--n", "2"])
    capsys.readouterr()


def test_short_prime_list_exits_2(capsys):
    # a list too short for some triple is an error, never silently widened
    code, out, err = run(capsys, "lie-table", "--n", "2", "--primes", "2,3")
    assert code == 2
    assert out == ""
    assert "certification point p=3" in err
    assert "(W1,1; U1,2; W1,1 + U1,2)" in err


def test_help_exits_clean(capsys):
    assert run(capsys, "--help")[0] == 0


def test_ceiling_env(capsys, monkeypatch):
    # HALLQ_DIM_CEILING is gone: a value below the input's dimension no
    # longer refuses the engine commands
    monkeypatch.setenv("HALLQ_DIM_CEILING", "3")
    code, out, _ = run(
        capsys, "hall-number", "--n", "2", "--p", "2", "W1,1", "U2,1", "U1,1"
    )
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, "hall-poly", "--n", "2", "W1,1", "U2,1", "U1,1")
    assert (code, out) == (0, "T\n")


def test_ceiling_env_is_read_by_the_engine_commands_only(capsys, monkeypatch):
    # the engine commands used to reject a malformed value with exit 2; no
    # command reads the variable now, so none of them does
    monkeypatch.setenv("HALLQ_DIM_CEILING", "banana")
    assert run(capsys, "indec-list", "--n", "2")[0] == 0
    assert run(capsys, "lie-verify", "--n", "2")[0] == 0
    code, out, _ = run(
        capsys, "hall-number", "--n", "2", "--p", "2", "W1,1", "U2,1", "U1,1"
    )
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, "hall-poly", "--n", "2", "W1,1", "U2,1", "U1,1")
    assert (code, out) == (0, "T\n")


def test_label_roundtrip_through_wire_syntax():
    for n in range(2, 7):
        for label in all_labels(n):
            assert parse_label(str(label)) == label
