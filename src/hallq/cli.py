"""Command-line front end.

Exit codes: 0 all checks pass, 1 a mathematical mismatch was found, 2 usage or
input error, 3 internal invariant breach.  Verification subcommands write
their full report to stdout (or --out) and a one-line summary to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    CeilingError,
    InternalInvariantError,
    InterpolationError,
    LabelError,
    RelationError,
    WitnessError,
)
from .hall_core import as_multiset, hall_number
from .hall_poly import (
    identity_rows,
    interpolate_hall_poly,
    reconcile_poly_table,
    reconciliation_rows,
    verify_product_identities,
)
from .hom_decomp import decompose
from .lie import (
    bracket_table_to_json,
    bracket_table_to_latex,
    bracket_table_to_tsv,
    build_bracket_table,
    verify_lie_axioms,
)
from .quiver_rep import (
    AlgebraContext,
    all_labels,
    label_dims,
    multiset_to_str,
    parse_multiset,
    rep_from_json,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tsv_cell(value) -> str:
    # a list of numbers is a dimension vector, joined by ','; labels contain
    # commas (W1,1), so a list of them is joined by ';'
    if isinstance(value, list):
        return (";" if isinstance(value[0], str) else ",").join(map(str, value))
    return str(value)


def _rows_text(rows: list[dict], fmt: str) -> str:
    """A tabular report, rows of field name to cell with the same fields in
    the same order, as the JSON list of the rows or as TSV under a header
    line of the field names (taken from the first row; there is always one)."""
    if fmt == "json":
        # imported where used: a TSV report, the default, never loads json
        import json
        return json.dumps(rows, indent=2) + "\n"
    lines = ["\t".join(rows[0])]
    lines.extend("\t".join(map(_tsv_cell, row.values())) for row in rows)
    return "\n".join(lines) + "\n"


def cmd_indec_list(args) -> int:
    rows = [
        {"label": str(label), "dims": list(label_dims(label, args.n))}
        for label in all_labels(args.n)
    ]
    _emit(_rows_text(rows, args.format), args.out)
    return EXIT_OK


def _load_m(args, n: int, p: int | None = None):
    import json
    if args.m_file:
        if args.m is not None:
            raise ValueError("give the composite either inline or as a file, not both")
        with open(args.m_file, encoding="utf-8") as fh:
            rep = rep_from_json(json.load(fh))
        if rep.ctx.n != n:
            raise ValueError(
                f"representation file has n={rep.ctx.n}, command asked for n={n}"
            )
        if p is not None and rep.ctx.p != p:
            raise ValueError(
                f"representation file has p={rep.ctx.p}, command asked for p={p}"
            )
        return decompose(rep).as_labels()
    if args.m is None:
        raise ValueError("missing the composite argument")
    return as_multiset(parse_multiset(args.m), n)


def cmd_hall_number(args) -> int:
    ctx = AlgebraContext(args.n, args.p)
    x = as_multiset(parse_multiset(args.x), ctx.n)
    y = as_multiset(parse_multiset(args.y), ctx.n)
    m = _load_m(args, ctx.n, ctx.p)
    value = hall_number(x, y, m, ctx)
    _emit(f"{value}\n", args.out)
    return EXIT_OK


def cmd_hall_poly(args) -> int:
    x = as_multiset(parse_multiset(args.x), args.n)
    y = as_multiset(parse_multiset(args.y), args.n)
    m = _load_m(args, args.n)
    poly = interpolate_hall_poly(x, y, m, args.n, args.primes)
    _emit(f"{poly}\n", args.out)
    return EXIT_OK


def cmd_verify_prop(args) -> int:
    reports = reconcile_poly_table(args.n, args.primes)
    _emit(_rows_text(reconciliation_rows(reports), args.format), args.out)
    mismatches = [r for r in reports if r.verdict == "mismatch"]
    ambiguous = sum(1 for r in reports if r.verdict == "ambiguous")
    print(
        f"{len(reports)} triples: {len(reports) - len(mismatches) - ambiguous} match, "
        f"{ambiguous} ambiguous, {len(mismatches)} mismatch",
        file=sys.stderr,
    )
    return EXIT_MISMATCH if mismatches else EXIT_OK


def cmd_verify_identities(args) -> int:
    checks = verify_product_identities(args.n, args.p)
    _emit(_rows_text(identity_rows(checks), args.format), args.out)
    bad = [c for c in checks if not c.ok]
    print(f"{len(checks)} expansions: {len(bad)} fail", file=sys.stderr)
    return EXIT_MISMATCH if bad else EXIT_OK


# the lie-table renderers by --format, in the order -h lists the choices
TABLE_RENDERERS = {
    "tsv": bracket_table_to_tsv,
    "json": bracket_table_to_json,
    "latex": bracket_table_to_latex,
}


def cmd_lie_table(args) -> int:
    table = build_bracket_table(args.n, args.primes)
    _emit(TABLE_RENDERERS[args.format](table), args.out)
    print(
        f"{len(table.entries)} pairs: {len(table.mismatches)} closed-form mismatches",
        file=sys.stderr,
    )
    return EXIT_MISMATCH if table.mismatches else EXIT_OK


def cmd_lie_verify(args) -> int:
    table = build_bracket_table(args.n, args.primes)
    report = verify_lie_axioms(table)
    checks = {
        "diagonal": report.diagonal_ok,
        "antisymmetry": report.antisymmetry_ok,
        "jacobi": report.jacobi_ok,
        "grading": report.grading_ok,
    }
    if args.format == "json":
        import json
        payload = {
            "n": report.n,
            **checks,
            "closed_form_mismatches": len(table.mismatches),
            "violations": list(report.violations),
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"{name}\t{'pass' if ok else 'fail'}" for name, ok in checks.items()]
        lines.append(f"closed_form_mismatches\t{len(table.mismatches)}")
        lines.extend(f"violation\t{v}" for v in report.violations)
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    ok = report.ok and not table.mismatches
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_decompose(args) -> int:
    import json
    with open(args.file, encoding="utf-8") as fh:
        rep = rep_from_json(json.load(fh))
    ms = decompose(rep)
    print(multiset_to_str(ms.as_labels()))
    return EXIT_OK


# each subcommand as (name, help, handler, options of _add_common); None
# for decompose, which takes a file alone. In the order -h lists them
COMMANDS = (
    ("indec-list", "list indecomposable labels with dimensions", cmd_indec_list, {}),
    (
        "hall-number",
        "count submodules with fixed sub and quotient",
        cmd_hall_number,
        {"prime": True, "fmt": False},
    ),
    ("hall-poly", "interpolate the counting polynomial", cmd_hall_poly, {"primes": True, "fmt": False}),
    (
        "verify-prop",
        "reconcile interpolated polynomials with the closed forms",
        cmd_verify_prop,
        {"primes": True},
    ),
    (
        "verify-identities",
        "check the eight product expansions at one prime",
        cmd_verify_identities,
        {"prime": True},
    ),
    (
        "lie-table",
        "bracket table on indecomposable classes",
        cmd_lie_table,
        {"primes": True, "fmt": tuple(TABLE_RENDERERS)},
    ),
    ("lie-verify", "check antisymmetry and Jacobi on the table", cmd_lie_verify, {"primes": True}),
    ("decompose", "split a JSON representation into indecomposables", cmd_decompose, None),
)
# the help of x, y, m and --m-file, for the subcommands that take a triple
TRIPLE_HELP = {
    "hall-number": (
        "quotient isoclass, e.g. W1,1 or V1+W1,1",
        "submodule isoclass",
        "composite isoclass",
        "JSON representation file for the composite",
    ),
    "hall-poly": (None, None, None, None),
}


def _prime_list(raw: str) -> tuple[int, ...]:
    # the --primes type: the integers alone; fit_primes judges the list
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse prime list {raw!r}") from None


def _add_common(sp, *, primes=False, prime=False, fmt=("tsv", "json")) -> None:
    # fmt: the choices of --format, or False for a command without it
    sp.add_argument("--n", type=int, required=True, help="number of vertices")
    if primes:
        sp.add_argument(
            "--primes",
            type=_prime_list,
            help="comma-separated evaluation primes; the last certifies the fit "
            "(default: per triple, the first dim Hom(Y,X)+2 primes)",
        )
    if prime:
        sp.add_argument("--p", type=int, required=True, help="field size (prime)")
    if fmt:
        sp.add_argument("--format", choices=fmt, default="tsv")
    sp.add_argument("--out", help="write the report to this path")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or, for command a subcommand name, the same
    top-level parser with that subcommand's parser alone. Its usage line
    still lists every subcommand, so each text it prints, usage errors
    included, is the full parser's."""
    parser = argparse.ArgumentParser(
        prog="hallq",
        description="Submodule counting and bracket tables for the one-cycle "
        "bound quiver algebra over prime fields.",
    )
    chosen = [spec for spec in COMMANDS if spec[0] == command]
    if chosen:
        # a metavar would change the full parser's "invalid choice" message,
        # which this parser never prints: its one choice is argv[0]
        choices = ",".join(spec[0] for spec in COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True, metavar=f"{{{choices}}}")
    else:
        sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, common in chosen or COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        if common is None:
            sp.add_argument("file", help="JSON representation file")
        else:
            _add_common(sp, **common)
        if name in TRIPLE_HELP:
            hx, hy, hm, hfile = TRIPLE_HELP[name]
            sp.add_argument("x", help=hx)
            sp.add_argument("y", help=hy)
            sp.add_argument("m", nargs="?", help=hm)
            sp.add_argument("--m-file", dest="m_file", help=hfile)
        sp.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (
        LabelError,
        RelationError,
        WitnessError,
        CeilingError,
        InterpolationError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
