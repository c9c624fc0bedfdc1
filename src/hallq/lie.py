"""Bracket structure on indecomposable classes in the degenerate product.

Setting T = 1 in the interpolated polynomials turns the counting product into
integer structure constants; the commutator of two indecomposable classes is
again a combination of indecomposable classes (decomposable contributions
cancel pairwise, and this cancellation is asserted on every walked pair).
A pair whose degree dim x + dim y is no label's brackets to 0 by the
grading and is not walked (see bracket). The closed-form bracket table is
encoded in expected_bracket and compared entrywise, skipped pairs included,
when a table is built. verify_lie_axioms checks the axioms at the cost of
the table's nonzero entries: Jacobi on the triples of a label's degree
once the grading holds, antisymmetry on the pairs stored in both orders.
"""

from __future__ import annotations

from operator import add, sub
from typing import NamedTuple, Sequence

from .errors import InternalInvariantError
from .frozen import Frozen, set_field
from .hall_core import IsoClassCombo, signed_sum
from .hall_poly import fit_hall_poly, product_counts, scheduled_primes
from .hom_decomp import hom_table
from .quiver_rep import IndecLabel, all_labels, check_label, degree_table, multiset_to_str

# the interval family W(i,j) needs j <= n-1, so closed-form ranges written
# up to n are clipped to that bound when instantiated
RANGE_NOTE = "interval labels stop at n-1; ranges touching n are clipped"
# added to a table built without an explicit prime list
SCHEDULE_NOTE = (
    "each polynomial is fitted through dim Hom(y,x)+1 primes and certified at "
    "the next; the primes line is the widest such schedule"
)


ZERO_COMBO = IsoClassCombo(())


def bracket(
    x: IndecLabel, y: IndecLabel, n: int, primes: Sequence[int] | None = None
) -> IsoClassCombo:
    """Commutator of two indecomposable classes at T = 1.

    The grading: F^M_{x,y} is nonzero only when M is the middle term of an
    extension of x by y, so only when dim M = dim x + dim y, and the same
    holds for F^M_{y,x}. The bracket keeps the indecomposable M alone, so
    when no label has the degree dim x + dim y every coefficient is 0, and
    the pair returns 0 before any walk, as x == y does. Such a pair reads
    no primes and runs none of _walked_bracket's checks. Every other pair
    is walked by _walked_bracket.
    """
    check_label(x, n)
    check_label(y, n)
    if x == y:
        return ZERO_COMBO
    degrees = degree_table(n)
    dx, dy = degrees.by_label[x], degrees.by_label[y]
    if tuple(a + b for a, b in zip(dx, dy)) not in degrees.by_dims:
        return ZERO_COMBO
    return _walked_bracket(x, y, n, primes)


def _walked_bracket(
    x: IndecLabel, y: IndecLabel, n: int, primes: Sequence[int] | None
) -> IsoClassCombo:
    """[x, y] from the Ext^1 walks, for two distinct valid labels.

    F^M_{x,y} is nonzero exactly when M is the middle term of an extension
    of x by y, so only the middle terms of Ext^1(x, y) and Ext^1(y, x) are
    fitted; off them both polynomials are zero. The counts come from
    product_counts (the schedule unless primes are given; each walk bounded
    by its class count), and fit_hall_poly fits and certifies each, so a
    prime list too short for some composite raises InterpolationError,
    naming (x; y; M) or (y; x; M); the names are passed as labels and
    rendered only then. A composite met in one orientation only is 0 at
    every prime of the other, which fit_hall_poly answers with ZERO_POLY
    without fitting. Any nonzero coefficient on a decomposable composite is
    a fatal invariant breach, not a result: it is checked on every
    composite of the support, whichever side carried it.
    """
    xs, ys = (x,), (y,)
    primes_xy, counts_xy = product_counts(xs, ys, n, primes, (xs, ys))
    primes_yx, counts_yx = product_counts(ys, xs, n, primes, (ys, xs))
    support = set().union(*counts_xy, *counts_yx)
    out: dict[IndecLabel, int] = {}
    # in the order of multisets_with_dims, so the first failing fit is too
    for ms in sorted(support, key=lambda ms: [l.sort_key() for l in ms]):
        pxy = fit_hall_poly(primes_xy, [c.get(ms, 0) for c in counts_xy], (xs, ys, ms))
        pyx = fit_hall_poly(primes_yx, [c.get(ms, 0) for c in counts_yx], (ys, xs, ms))
        c = pxy.evaluate(1) - pyx.evaluate(1)
        if len(ms) != 1:
            if c != 0:
                raise InternalInvariantError(
                    f"decomposable class {multiset_to_str(ms)} carries "
                    f"coefficient {c} in the bracket of {x} and {y}"
                )
        elif c:
            out[ms[0]] = c
    return IsoClassCombo.from_dict(out)


def _expected_direct(x: IndecLabel, y: IndecLabel) -> IsoClassCombo | None:
    # no two terms of one family share a label, so each is assigned, not
    # summed: both W terms would need l = j+1 and i = m+1 > m >= l > j >= i;
    # both U terms need y = U(j+1,j+1), and U(j+1,i) = U(i,j+1) would need
    # i = j+1 > j >= i
    if x.kind == "W":
        i, j = x.i, x.j
        out: dict[IndecLabel, int] = {}
        if y.kind == "W":
            l, m = y.i, y.j
            if j + 1 == l:
                out[IndecLabel("W", i, m)] = 1
            if m + 1 == i:
                out[IndecLabel("W", l, j)] = -1
        elif y.kind == "V":
            if y.i == j + 1:
                out[IndecLabel("V", i)] = 1
        else:
            l, m = y.i, y.j
            if j + 1 == m:
                out[IndecLabel("U", l, i)] = 1
            if j + 1 == l:
                out[IndecLabel("U", i, m)] = 1
        return IsoClassCombo.from_dict(out)
    if x.kind == "V" and y.kind == "V":
        # on the diagonal the two terms are one label, and cancel
        if x == y:
            return ZERO_COMBO
        return IsoClassCombo.from_dict(
            {IndecLabel("U", y.i, x.i): 1, IndecLabel("U", x.i, y.i): -1}
        )
    return None


def expected_bracket(x: IndecLabel, y: IndecLabel, n: int) -> IsoClassCombo:
    """Closed-form bracket: four delta-function families, zero elsewhere.

    Pairs listed in the opposite order come out by negation, which is the
    antisymmetry convention rather than a separate formula.
    """
    check_label(x, n)
    check_label(y, n)
    direct = _expected_direct(x, y)
    if direct is not None:
        return direct
    swapped = _expected_direct(y, x)
    if swapped is not None:
        return -swapped
    return ZERO_COMBO


class BracketTable(Frozen):
    """All brackets at one n, stored once per unordered pair (x before y).
    _index, a lookup built from the entries, is not a field."""

    _fields = ("n", "primes", "entries", "mismatches", "notes")
    __slots__ = _fields + ("_index",)

    def __init__(
        self,
        n: int,
        primes: tuple[int, ...],
        entries: tuple[tuple[IndecLabel, IndecLabel, IsoClassCombo], ...],
        mismatches: tuple[tuple[IndecLabel, IndecLabel, IsoClassCombo, IsoClassCombo], ...],
        notes: tuple[str, ...],
    ) -> None:
        set_field(self, "n", n)
        set_field(self, "primes", primes)
        set_field(self, "entries", entries)
        set_field(self, "mismatches", mismatches)
        set_field(self, "notes", notes)
        set_field(self, "_index", {(x, y): combo for x, y, combo in entries})

    def get(self, x: IndecLabel, y: IndecLabel) -> IsoClassCombo:
        if x == y:
            return ZERO_COMBO
        combo = self._index.get((x, y))
        if combo is not None:
            return combo
        combo = self._index.get((y, x))
        if combo is not None:
            return -combo
        raise KeyError(f"pair ({x}, {y}) not in the table")


def build_bracket_table(n: int, primes: Sequence[int] | None = None) -> BracketTable:
    """Bracket every unordered pair and compare against the closed forms.

    Without an explicit prime list the table records the primes of the
    widest per-triple schedule over every pair, skipped ones included, which
    contain all the primes any fit evaluated, and says so in a note.
    """
    labels = all_labels(n)
    notes: tuple[str, ...] = (RANGE_NOTE,)
    if primes is None:
        # hom_degree_bound(x, y, n) = dim Hom(y, x), read off the table once
        widest = max(d for (x, y), d in hom_table(n).items() if x != y)
        plist = scheduled_primes(widest)
        notes += (SCHEDULE_NOTE,)
    else:
        plist = tuple(primes)
    entries = []
    mismatches = []
    for idx, x in enumerate(labels):
        for y in labels[idx + 1 :]:
            got = bracket(x, y, n, primes)
            exp = expected_bracket(x, y, n)
            entries.append((x, y, got))
            if got != exp:
                mismatches.append((x, y, got, exp))
    return BracketTable(n, plist, tuple(entries), tuple(mismatches), notes)


class LieAxiomReport(NamedTuple):
    """Axiom check outcome over a full table."""

    n: int
    diagonal_ok: bool
    antisymmetry_ok: bool
    jacobi_ok: bool
    grading_ok: bool
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.diagonal_ok
            and self.antisymmetry_ok
            and self.jacobi_ok
            and self.grading_ok
        )


def verify_lie_axioms(table: BracketTable) -> LieAxiomReport:
    """Antisymmetry, Jacobi, zero diagonal, and grading, all over the table.

    The diagonal check reads the stored (x, x) entries, since get answers
    x == y with 0 before it reads any. get answers a pair stored in one
    order by negating it, so antisymmetry can fail only on a pair stored in
    both orders, and only those are compared; a pair stored in neither
    raises KeyError.

    Nested brackets expand through table lookups with integer linearity, so
    the Jacobi check is exact. It expands only the triples in which one of
    [y,z], [z,x], [x,y] is a nonzero entry: when all three are 0 the Jacobi
    sum is empty, so this skip assumes nothing of the table. On a table
    whose grading holds it also skips every triple whose degree
    dim x + dim y + dim z is no label's, finding z by degree. Proof: every
    term L of [y,z] has dim L = dim y + dim z, and every term of [x,L] then
    has degree dim x + dim L = dim x + dim y + dim z; a combination of
    labels in a degree no label has is empty, so each of the three nested
    brackets is 0. On a table off the grading every triple with a nonzero
    entry is expanded, so on every table the violations are those of the
    full expansion. Triples are visited in label order either way.
    """
    labels = all_labels(table.n)
    degrees = degree_table(table.n)
    index = {lab: i for i, lab in enumerate(labels)}
    # the stored entries between labels at n, keyed by label index
    stored = {}
    for (x, y), combo in table._index.items():
        ix, iy = index.get(x), index.get(y)
        if ix is not None and iy is not None:
            stored[(ix, iy)] = combo
    violations: list[str] = []
    diagonal_ok = True
    for i, x in enumerate(labels):
        combo = stored.get((i, i))
        if combo is not None and not combo.is_zero():
            diagonal_ok = False
            violations.append(f"nonzero diagonal at {x}")
    k = len(labels)
    unordered = {(min(key), max(key)) for key in stored if key[0] != key[1]}
    if len(unordered) < k * (k - 1) // 2:
        for ix in range(k):
            for iy in range(ix + 1, k):
                if (ix, iy) not in unordered:
                    table.get(labels[ix], labels[iy])  # raises KeyError naming the pair
    antisymmetry_ok = True
    for ix, iy in sorted(key for key in stored if key[0] != key[1] and key[::-1] in stored):
        if stored[(ix, iy)] != -stored[(iy, ix)]:
            antisymmetry_ok = False
            violations.append(f"antisymmetry fails on ({labels[ix]}, {labels[iy]})")
    grading_ok = True
    for x, y, combo in table.entries:
        want = tuple(map(add, degrees.dims(x), degrees.dims(y)))
        for lab, _ in combo.terms:
            if degrees.dims(lab) != want:
                grading_ok = False
                violations.append(f"entry ({x}, {y}) term {lab} off the grading")
    jacobi_ok = True
    everyone = range(k)
    # the labels z with dim z + s some label's degree, by degree s
    thirds: dict[tuple[int, ...], list[int]] = {}
    triples = set()
    for (ix, iy), combo in stored.items():
        if ix != iy and not combo.is_zero():
            zs = everyone
            if grading_ok:
                s = tuple(map(add, degrees.by_label[labels[ix]], degrees.by_label[labels[iy]]))
                zs = thirds.get(s)
                if zs is None:
                    zs = thirds[s] = [
                        index[z]
                        for d in degrees.by_dims
                        for z in degrees.by_dims.get(tuple(map(sub, d, s)), ())
                    ]
            triples.update(tuple(sorted((ix, iy, iz))) for iz in zs if iz != ix and iz != iy)
    for ix, iy, iz in sorted(triples):
        x, y, z = labels[ix], labels[iy], labels[iz]
        acc: dict[IndecLabel, int] = {}
        for a, inner in ((x, table.get(y, z)), (y, table.get(z, x)), (z, table.get(x, y))):
            for lab, c in inner.terms:
                for lab2, c2 in table.get(a, lab).terms:
                    acc[lab2] = acc.get(lab2, 0) + c * c2
        if any(c != 0 for c in acc.values()):
            jacobi_ok = False
            violations.append(f"Jacobi fails on ({x}, {y}, {z})")
    return LieAxiomReport(
        table.n, diagonal_ok, antisymmetry_ok, jacobi_ok, grading_ok, tuple(violations)
    )


def bracket_table_to_tsv(table: BracketTable) -> str:
    lines = [f"# n: {table.n}", f"# primes: {','.join(str(p) for p in table.primes)}"]
    lines.extend(f"# note: {note}" for note in table.notes)
    lines.append("x\ty\tbracket")
    for x, y, combo in table.entries:
        fields = [str(x), str(y)]
        fields.extend(f"{lab}:{c}" for lab, c in combo.terms)
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def bracket_table_to_json(table: BracketTable) -> str:
    # imported where used: a TSV report, the default, never loads json
    import json
    payload = {
        "n": table.n,
        "primes": list(table.primes),
        "notes": list(table.notes),
        "entries": [
            {
                "x": str(x),
                "y": str(y),
                "bracket": [[str(lab), c] for lab, c in combo.terms],
            }
            for x, y, combo in table.entries
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _label_latex(label: IndecLabel) -> str:
    if label.kind == "V":
        return f"V_{{{label.i}}}"
    return f"{label.kind}_{{{label.i},{label.j}}}"


def _combo_latex(combo: IsoClassCombo) -> str:
    return signed_sum(
        (c, _label_latex(lab) if abs(c) == 1 else f"{abs(c)}{_label_latex(lab)}")
        for lab, c in combo.terms
    )


def bracket_table_to_latex(table: BracketTable) -> str:
    lines = [
        "\\begin{tabular}{lll}",
        "x & y & [x,y] \\\\",
        "\\hline",
    ]
    for x, y, combo in table.entries:
        lines.append(f"{_label_latex(x)} & {_label_latex(y)} & {_combo_latex(combo)} \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"
