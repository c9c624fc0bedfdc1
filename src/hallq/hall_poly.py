"""Hall polynomials by exact interpolation, reconciled against the closed-form table.

The table of one-variable polynomials phi such that phi(p) counts submodules of a
fixed isoclass with fixed sub/quotient isoclasses is recovered here numerically:
evaluate the count at several primes, fit an integer polynomial through all but
the last, and use the final prime as a held-out certification point.  The known
closed forms are encoded in expected_hall_poly and compared entry by entry.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from .errors import InterpolationError, LabelError
from .frozen import Frozen, set_field
from .gf import SUPPORTED_PRIMES, first_primes, is_supported_prime
from .hall_core import (
    IsoClassCombo,
    as_multiset,
    hall_number,
    hall_product,
    signed_sum,
)
from .hom_decomp import DecompositionMultiset, hom_table, riedtmann_hall_numbers
from .quiver_rep import (
    AlgebraContext,
    IndecLabel,
    all_labels,
    check_label,
    degree_table,
    multiset_to_str,
)


class HallPolynomial(Frozen):
    """Integer polynomial in T; coefficients[k] is the degree-k coefficient."""

    __slots__ = _fields = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]) -> None:
        coeffs = tuple(int(c) for c in coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        set_field(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        # zero polynomial reports -1
        return len(self.coefficients) - 1

    def evaluate(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def __str__(self) -> str:
        def body(k: int, c: int) -> str:
            if k == 0:
                return str(abs(c))
            power = "T" if k == 1 else f"T^{k}"
            return power if abs(c) == 1 else f"{abs(c)}*{power}"

        return signed_sum(
            (c, body(k, c)) for k, c in reversed(list(enumerate(self.coefficients))) if c
        )


ZERO_POLY = HallPolynomial(())
ONE_POLY = HallPolynomial((1,))
T_POLY = HallPolynomial((0, 1))


def hom_degree_bound(x, y, n: int) -> int:
    """dim Hom(Y, X), an upper bound on the degree of F^M_{X,Y} for every M.

    The submodules U of M with U = Y and M/U = X form a stratum of the
    quiver Grassmannian whose tangent space at U is Hom(U, M/U) = Hom(Y, X)
    (Schofield, General representations of quivers, 1992), so the stratum
    has at most that dimension, and so has the degree of its point count.
    Hom is additive over summands, and the dimensions come from hom_table,
    which is the same over every F_p (proof in hom_decomp._profile_raw).
    """
    table = hom_table(n)
    return sum(table[(b, a)] for b in as_multiset(y, n) for a in as_multiset(x, n))


def scheduled_primes(bound: int) -> tuple[int, ...]:
    """The default schedule for a fit of degree at most bound: bound + 1
    primes to fit through, and the next prime to certify the fit."""
    return first_primes(bound + 2)


def _where_str(where: tuple) -> str:
    # what names a fit in its InterpolationError: the label tuples (X, Y) or
    # (X, Y, M), rendered "(X; Y)" or "(X; Y; M)" as triple_str renders a triple
    return f"({'; '.join(map(multiset_to_str, where))})"


def fit_primes(xs, ys, n: int, primes: Sequence[int] | None, where: tuple) -> tuple[int, ...]:
    """The primes a fit of F^M_{X,Y} evaluates, the last one certifying it.

    By default this is the schedule of hom_degree_bound: dim Hom(Y, X) + 1
    primes for the fit and one more to certify it; a bound that needs more
    primes than are supported raises InterpolationError, naming where
    (rendered by _where_str only then). An explicit list is validated and
    used as given, and then the degree bound is len(primes) - 2; a repeated
    prime is refused here, before any fit.
    """
    if primes is None:
        bound = hom_degree_bound(xs, ys, n)
        if bound + 2 > len(SUPPORTED_PRIMES):
            raise InterpolationError(
                f"degree bound {bound} for {_where_str(where)} needs "
                f"{bound + 2} primes; {len(SUPPORTED_PRIMES)} are supported"
            )
        return scheduled_primes(bound)
    plist = tuple(int(p) for p in primes)
    if len(plist) < 2:
        raise InterpolationError("need at least two evaluation primes")
    if len(set(plist)) != len(plist):
        raise InterpolationError("evaluation primes must be distinct")
    for p in plist:
        if not is_supported_prime(p):
            raise InterpolationError(f"unsupported evaluation prime {p}")
    return plist


def fit_hall_poly(primes: Sequence[int], values: Sequence[int], where: tuple) -> HallPolynomial:
    """Fit counts at primes as an integer polynomial in the field size.

    The fit runs through the counts at all primes but the last, by Newton
    divided differences in integer arithmetic; the last prime certifies the
    result. A division that is not exact, or a failed certification point,
    raises InterpolationError, naming where, rather than returning a wrong
    polynomial. where holds labels, not text: _where_str renders it only
    when the error is raised, so a fit that succeeds formats no name.

    Counts that are 0 at every prime fit to ZERO_POLY before any
    arithmetic. On distinct primes, which fit_primes ensures before any fit,
    this is what the general path returns: every divided difference of
    zeros is 0 over a nonzero node difference, so every division is exact,
    Horner's rule builds the zero polynomial, and certification compares 0
    with 0.

    Every division is exact if and only if the interpolant has integer
    coefficients. If it has, each divided difference of the counts is one
    of the interpolant at integer nodes, and so an integer: by linearity it
    is enough to see this for T^m, whose divided difference over a_0..a_k
    is the complete homogeneous symmetric polynomial h_{m-k}(a_0, ..., a_k)
    (0 for m < k). Conversely, if every division is exact, the Newton form
    sum_k f[x_0..x_k] (T - x_0)...(T - x_{k-1}) is a sum of integer
    multiples of monic integer polynomials.
    """
    if not any(values):
        return ZERO_POLY
    nodes = primes[:-1]
    # after pass k, diffs[i] = f[x_{i-k}..x_i] for i >= k
    diffs = list(values[:-1])
    for k in range(1, len(nodes)):
        for i in range(len(nodes) - 1, k - 1, -1):
            num, den = diffs[i] - diffs[i - 1], nodes[i] - nodes[i - k]
            if num % den:
                g = gcd(num, den) if den > 0 else -gcd(num, den)
                raise InterpolationError(
                    f"non-integer Newton divided difference {num // g}/{den // g} "
                    f"(order {k}) fitting {_where_str(where)}"
                )
            diffs[i] = num // den
    # Horner's rule on the Newton form: coeffs <- coeffs * (T - x_k) + f[x_0..x_k]
    coeffs: list[int] = []
    for k in reversed(range(len(nodes))):
        coeffs = [a - nodes[k] * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += diffs[k]
    poly = HallPolynomial(tuple(coeffs))
    held_out = primes[-1]
    if poly.evaluate(held_out) != values[-1]:
        raise InterpolationError(
            f"certification point p={held_out} disagrees with the fit for {_where_str(where)}: "
            f"poly gives {poly.evaluate(held_out)}, count is {values[-1]}"
        )
    return poly


def product_counts(
    xs, ys, n: int, primes: Sequence[int] | None, where: tuple
) -> tuple[tuple[int, ...], list[dict[tuple[IndecLabel, ...], int]]]:
    """The primes of fit_primes for label tuples xs and ys and, at each
    prime, every nonzero F^M_{X,Y}. where names the sides if fit_primes
    fails, and is rendered only then.

    One call of riedtmann_hall_numbers builds the side pair's walk plan
    once and walks it at every prime; each walk answers every composite M
    of X.Y at once, and an M missing from a prime's dict counts 0 there.
    When the walk at some prime is above its class bound, CeilingError is
    raised before any prime is walked.
    """
    plist = fit_primes(xs, ys, n, primes, where)
    return plist, riedtmann_hall_numbers(xs, ys, n, plist)


def interpolate_hall_poly(
    x,
    y,
    m,
    n: int,
    primes: Sequence[int] | None = None,
) -> HallPolynomial:
    """Fit the submodule count as an integer polynomial in the field size.

    The counts come from hall_number at the primes of fit_primes, and
    fit_hall_poly fits and certifies them; no list is ever widened, and a
    degree bound that needs more primes than are supported fails before
    any counting starts. hall_number's search bound grows with p, so the
    largest prime is counted first: a search it refuses (CeilingError) is
    refused before any prime is counted.
    """
    xs = as_multiset(x, n)
    ys = as_multiset(y, n)
    ms = as_multiset(m, n)
    where = (xs, ys, ms)
    plist = fit_primes(xs, ys, n, primes, where)
    values = {
        p: hall_number(xs, ys, ms, AlgebraContext(n, p))
        for p in sorted(plist, reverse=True)
    }
    return fit_hall_poly(plist, [values[p] for p in plist], where)


def expected_hall_poly(x: IndecLabel, y: IndecLabel, m: IndecLabel, n: int):
    """Closed-form polynomial for an indecomposable triple, if tabulated.

    Returns a HallPolynomial, or "unlisted" (the table asserts 0 there), or
    "ambiguous" for the index ranges where the tabulated entries contradict
    each other or carry malformed indices; ambiguous triples are never
    guessed, the interpolated value is reported instead. The zones, in the
    order they are checked, the first that holds giving the answer:

    1. V(a)·V(b) -> U(b,a) is 1.
    2. W(i,j)·W(j+1,k) -> W(i,k) is 1.
    3. W(i,j)·V(j+1) -> V(i) is 1.
    4. W(i,j)·U(j+1,l) -> U(i,l) is 1 for l > j+1, and ambiguous otherwise.
    5. W(i,j)·U(l,j+1) -> U(l,i) is 1 for l >= i, and ambiguous for l < i.
    6. W(i,j)·U(j+1,l) -> U(l,i) is ambiguous.
    7. Anything else is unlisted.

    Two known slips are corrected here and verified by the reconciliation
    run: the tail-pair entry (zone 1) lists the composite with its indices
    swapped, and one entry carries a stray third index whose two plausible
    readings (zones 5 and 6) are both kept in the ambiguous zone.
    """
    for lab in (x, y, m):
        if not isinstance(lab, IndecLabel):
            raise LabelError("the closed-form table covers indecomposable triples only")
        check_label(lab, n)
    i, j = x.i, x.j
    if x.kind == "V" and y.kind == "V" and m == IndecLabel("U", y.i, i):
        # zone 1, printed with the composite's indices transposed; the count
        # of loop-stable lines forces this orientation
        return ONE_POLY
    if x.kind == "W" and y.kind == "W" and y.i == j + 1 and m == IndecLabel("W", i, y.j):
        return ONE_POLY
    if x.kind == "W" and y.kind == "V" and y.i == j + 1 and m == IndecLabel("V", i):
        return ONE_POLY
    if x.kind == "W" and y.kind == "U":
        if y.i == j + 1 and m == IndecLabel("U", i, y.j):
            # zone 4, l = y.j: one listed entry gives T on i <= l <= j, another
            # gives 1 with no constraint on l at all; the 1 is kept for l > j+1 only
            return ONE_POLY if y.j > j + 1 else "ambiguous"
        if y.j == j + 1 and m == IndecLabel("U", y.i, i):
            # zone 5, l = y.i: for l < i, the malformed entry read by the
            # first two of its three indices
            return ONE_POLY if y.i >= i else "ambiguous"
        if y.i == j + 1 and m == IndecLabel("U", y.j, i):
            # zone 6: the malformed entry read by the last two of its three indices
            return "ambiguous"
    return "unlisted"


class ReconciliationReport(NamedTuple):
    """One table entry compared against the interpolated truth."""

    triple: tuple[IndecLabel, IndecLabel, IndecLabel]
    expected: HallPolynomial | str
    interpolated: HallPolynomial
    verdict: str

    def expected_str(self) -> str:
        if isinstance(self.expected, str):
            return "unlisted (expected 0)" if self.expected == "unlisted" else self.expected
        return str(self.expected)


def _verdict(expected, interpolated: HallPolynomial) -> str:
    if expected == "ambiguous":
        return "ambiguous"
    if expected == "unlisted":
        expected = ZERO_POLY
    return "match" if expected == interpolated else "mismatch"


def reconcile_poly_table(
    n: int, primes: Sequence[int] | None = None
) -> list[ReconciliationReport]:
    """Compare every additive indecomposable triple against the closed forms.

    Covers all ordered pairs (x, y) of indecomposable labels and every
    indecomposable m whose dimension vector is the sum; entries come out in
    label order, so runs are reproducible line for line. Each pair with
    such an m is counted once by product_counts, and only the rows of its
    indecomposable composites are fitted; a failure names the triple of
    the first such m that fails. primes=None fits each triple on the
    schedule of fit_primes.
    """
    labels = all_labels(n)
    degrees = degree_table(n)
    reports: list[ReconciliationReport] = []
    for x in labels:
        dx = degrees.by_label[x]
        for y in labels:
            dy = degrees.by_label[y]
            composites = degrees.by_dims.get(tuple(a + b for a, b in zip(dx, dy)), ())
            if not composites:
                continue
            plist, counts = product_counts((x,), (y,), n, primes, ((x,), (y,), composites[:1]))
            for m in composites:
                expected = expected_hall_poly(x, y, m, n)
                interpolated = fit_hall_poly(
                    plist, [c.get((m,), 0) for c in counts], ((x,), (y,), (m,))
                )
                reports.append(
                    ReconciliationReport(
                        (x, y, m), expected, interpolated, _verdict(expected, interpolated)
                    )
                )
    return reports


def reconciliation_rows(reports: list[ReconciliationReport]) -> list[dict]:
    """The verify-prop report, one row of field name to cell per triple."""
    return [
        {
            "triple": [str(lab) for lab in r.triple],
            "expected": r.expected_str(),
            "interpolated": str(r.interpolated),
            "verdict": r.verdict,
        }
        for r in reports
    ]


def combo_to_str(combo: IsoClassCombo) -> str:
    if not combo.terms:
        return "0"
    return " + ".join(f"{coeff}*{ms}" for ms, coeff in combo.terms)


class ProductIdentityCheck(NamedTuple):
    """One two-sided product expansion checked at a concrete field size."""

    family: str
    left: IndecLabel
    right: IndecLabel
    expected: IsoClassCombo
    got: IsoClassCombo
    ok: bool


def _combo(n: int, *pairs) -> IsoClassCombo:
    return IsoClassCombo.from_dict(
        {DecompositionMultiset(as_multiset(ms, n)): coeff for ms, coeff in pairs}
    )


def verify_product_identities(n: int, p: int) -> list[ProductIdentityCheck]:
    """Check the eight two-term product expansions behind the existence proof.

    Each expansion is asserted with its published coefficients at q = p, for
    every admissible index tuple; failures land in the report rather than
    raising, so a genuinely wrong published coefficient shows up as entries
    with ok=False.

    One known slip is corrected here.  The loop-glue display
    [W(i,n-1)].[P_j] = q [W(i,n-1) + P_j] + q [U(i,j)], with P_j = U(n,j) the
    projective at vertex j and 1 <= j <= i <= n-1, is printed with q on both
    terms; the true coefficient of both is q^delta(i,j), which differs from
    the print exactly when j < i (first at n = 3).  Proof:

    - Split term.  No non-split extension has middle term W + P_j, and
      Aut(W + P_j) has order |Aut W| |Aut P_j| |Hom(W, P_j)| |Hom(P_j, W)|,
      so Riedtmann's formula (J. Algebra 170, 1994) gives
      F^{W+P_j}_{W,P_j} = |Hom(P_j, W)| = q^{dim W_j}, which is q^delta(i,j)
      because W(i,n-1) is one-dimensional at the vertices i..n-1.
    - Term U(i,j).  A map P_j -> M is fixed by the image m in M_j of the
      top generator, and it is injective exactly when the simple socle
      survives, i.e. when the path from j to n followed by the loop does not
      kill m.  Its automorphisms are the q - 1 scalars, so the copies of P_j
      in U(i,j) are the lines of U(i,j)_j off that kernel: one when j < i
      (the space is a line), q when j = i (a plane with a one-dimensional
      kernel).  Each copy has quotient W(i,n-1).

    Both values match brute force at n <= 4 for p = 2 and 3.
    """
    ctx = AlgebraContext(n, p)
    q = p
    checks: list[ProductIdentityCheck] = []

    def add(family: str, left: IndecLabel, right: IndecLabel, *pairs) -> None:
        got = hall_product(left, right, ctx)
        expected = _combo(n, *pairs)
        checks.append(
            ProductIdentityCheck(family, left, right, expected, got, got == expected)
        )

    for i in range(1, n):
        for j in range(i + 1, n):
            wii = IndecLabel("W", i, i)
            wtail = IndecLabel("W", i + 1, j)
            glued = IndecLabel("W", i, j)
            add("chain-glue", wii, wtail, ([wii, wtail], 1), ([glued], 1))
            add("chain-glue-swap", wtail, wii, ([wii, wtail], 1))
    for i in range(1, n):
        w = IndecLabel("W", i, n - 1)
        vn = IndecLabel("V", n)
        add("tail-glue", w, vn, ([w, vn], 1), ([IndecLabel("V", i)], 1))
        add("tail-glue-swap", vn, w, ([w, vn], 1))
    for i in range(1, n):
        for j in range(1, i + 1):
            w = IndecLabel("W", i, n - 1)
            proj = IndecLabel("U", n, j)
            # printed with q on both terms; see the docstring for q^delta(i,j)
            c = q if j == i else 1
            add("loop-glue", w, proj, ([w, proj], c), ([IndecLabel("U", i, j)], c))
            add("loop-glue-swap", proj, w, ([w, proj], 1))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            vi = IndecLabel("V", i)
            vj = IndecLabel("V", j)
            add("socle-glue", vi, vj, ([vi, vj], q), ([IndecLabel("U", j, i)], 1))
            add("socle-glue-swap", vj, vi, ([vi, vj], 1), ([IndecLabel("U", i, j)], 1))
    return checks


def identity_rows(checks: list[ProductIdentityCheck]) -> list[dict]:
    """The verify-identities report, one row of field name to cell per expansion."""
    return [
        {
            "family": c.family,
            "left": str(c.left),
            "right": str(c.right),
            "expected": combo_to_str(c.expected),
            "got": combo_to_str(c.got),
            "verdict": "pass" if c.ok else "fail",
        }
        for c in checks
    ]
