"""Exact linear algebra and subspace combinatorics over prime fields F_p."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from operator import mul
from typing import Iterable, Iterator, Sequence

from .frozen import Frozen, set_field

SUPPORTED_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)
_SUPPORTED = frozenset(SUPPORTED_PRIMES)


def is_supported_prime(p: int) -> bool:
    return p in _SUPPORTED


def first_primes(k: int) -> tuple[int, ...]:
    """The first k supported primes, starting at 2."""
    if not 0 <= k <= len(SUPPORTED_PRIMES):
        raise ValueError(f"can supply between 0 and {len(SUPPORTED_PRIMES)} primes, not {k}")
    return SUPPORTED_PRIMES[:k]


@lru_cache(maxsize=None)
def _inverses(p: int) -> tuple[int, ...]:
    # index a -> a^-1 mod p, with a junk 0 at index 0
    return tuple(0 if a == 0 else pow(a, p - 2, p) for a in range(p))


def matrix_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of a tuple-of-rows matrix with entries already reduced mod p."""
    m = [list(r) for r in rows]
    nr = len(m)
    if nr == 0 or not m[0]:
        return 0
    nc = len(m[0])
    inv = _inverses(p)
    rank = 0
    for c in range(nc):
        piv = -1
        for r in range(rank, nr):
            if m[r][c]:
                piv = r
                break
        if piv < 0:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        mi = inv[prow[c]]
        if mi != 1:
            for j in range(c, nc):
                prow[j] = prow[j] * mi % p
        for r in range(rank + 1, nr):
            f = m[r][c]
            if f:
                rr = m[r]
                for j in range(c, nc):
                    rr[j] = (rr[j] - f * prow[j]) % p
        rank += 1
        if rank == nr:
            break
    return rank


def row_reduce(
    rows: Sequence[Sequence[int]], p: int, ncols: int | None = None
) -> tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...]]:
    """Full reduced row-echelon form.

    Returns (nonzero rows of the RREF, rank, pivot columns). Zero rows are
    dropped so the first component doubles as a canonical basis of the row
    space. Pass ncols when rows may be empty.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else (ncols or 0)
    if nr == 0 or nc == 0:
        return (), 0, ()
    inv = _inverses(p)
    rank = 0
    pivots: list[int] = []
    for c in range(nc):
        piv = -1
        for r in range(rank, nr):
            if m[r][c]:
                piv = r
                break
        if piv < 0:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        mi = inv[prow[c]]
        if mi != 1:
            for j in range(c, nc):
                prow[j] = prow[j] * mi % p
        for r in range(nr):
            if r == rank:
                continue
            f = m[r][c]
            if f:
                rr = m[r]
                for j in range(c, nc):
                    rr[j] = (rr[j] - f * prow[j]) % p
        pivots.append(c)
        rank += 1
        if rank == nr:
            break
    return tuple(tuple(m[i]) for i in range(rank)), rank, tuple(pivots)


def null_space(
    rows: Sequence[Sequence[int]], p: int, ncols: int
) -> tuple[tuple[int, ...], ...]:
    """Basis of the solutions v of rows . v = 0, one vector per free column
    of the reduced row-echelon form, which carries a 1 there."""
    red, _, pivots = row_reduce(rows, p, ncols=ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = 1
        for row, piv in zip(red, pivots):
            v[piv] = -row[f] % p
        basis.append(tuple(v))
    return tuple(basis)


def unit_pivot_rref(
    rows: Iterable[Iterable[tuple[int, int]]],
) -> tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[int, ...]]:
    """Reduced row-echelon form over the integers, pivoting only on +-1.

    Rows are sparse, as (column, coefficient) pairs. Returns the nonzero
    rows of the RREF, each as (column, coefficient) pairs in column order
    with +1 at its pivot, and their pivot columns in increasing order.

    Every step swaps two rows, negates one, or adds an integer multiple of
    one to another, so it is a row operation over every F_p as well. The
    rows returned, reduced mod p, are then in RREF with the same row space
    as the input mod p: each keeps its pivot 1, and the zero rows left
    behind stay zero. RREF is unique, so they are row_reduce's rows at
    every p. Raises ArithmeticError when the nonzero entries of a column
    below the pivots found so far include no +-1.

    Pivot columns are taken in increasing order from the columns of the
    input: a step adds to the rows left only columns of its pivot row,
    which are at least the pivot column, so a column no row left holds
    never returns, and the least column the rows left hold is the next
    column of the input that one of them holds.
    """
    rest = [r for r in ({c: e for c, e in row if e} for row in rows) if r]
    if not rest:
        return (), ()
    done: list[dict[int, int]] = []
    pivots: list[int] = []
    for col in sorted(set().union(*rest)):
        for k, prow in enumerate(rest):
            if prow.get(col) in (1, -1):
                break
        else:
            if any(col in r for r in rest):
                raise ArithmeticError(f"column {col} has no unit pivot")
            continue
        del rest[k]
        if prow[col] == -1:
            prow = {c: -e for c, e in prow.items()}
        for r in rest + done:
            f = r.get(col)
            if f:
                for c, e in prow.items():
                    v = r.get(c, 0) - f * e
                    if v:
                        r[c] = v
                    else:
                        del r[c]
        rest = [r for r in rest if r]
        done.append(prow)
        pivots.append(col)
        if not rest:
            break
    return tuple(tuple(sorted(r.items())) for r in done), tuple(pivots)


def mat_mul(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], p: int, ncols: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Product of two tuple-of-rows matrices mod p. Pass ncols, the width of
    b, when b may have no rows: the product is then a zero matrix that
    width."""
    if a:
        assert len(a[0]) == len(b), "inner dimensions must agree"
    if not b:
        return tuple((0,) * (ncols or 0) for _ in a)
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % p for col in bt) for row in a)


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int], p: int) -> list[int]:
    """Image a.v mod p of a column vector."""
    return [sum(map(mul, row, v)) % p for row in a]


def reduce_vector(
    vec: Sequence[int], rows: Sequence[Sequence[int]], pivots: Sequence[int], p: int
) -> list[int]:
    """Reduce vec against echelon rows with the given pivot columns.

    The rows must be in reduced row-echelon form and the entries of vec
    already reduced mod p. The result is zero exactly when vec lies in the
    span of rows, and its rank over a set of vectors is their rank modulo
    that span.
    """
    v = list(vec)
    for row, piv in zip(rows, pivots):
        f = v[piv]
        if f:
            for j in range(piv, len(v)):
                v[j] = (v[j] - f * row[j]) % p
    return v


class PrimeFieldMatrix:
    """Immutable matrix over F_p; entries are residues in [0, p).

    The shape is carried explicitly so degenerate matrices (0 rows, or 0
    columns) keep their other dimension.
    """

    __slots__ = ("p", "rows", "cols", "entries")

    def __init__(
        self,
        p: int,
        entries: tuple[tuple[int, ...], ...],
        shape: tuple[int, int] | None = None,
    ) -> None:
        if p not in _SUPPORTED:
            raise ValueError(f"modulus must be a prime in [2, 97], got {p}")
        if shape is None:
            shape = (len(entries), len(entries[0]) if entries else 0)
        rows, cols = shape
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"entries do not match shape {rows}x{cols}")
        for r in entries:
            for x in r:
                if not 0 <= x < p:
                    raise ValueError(f"entry {x} not reduced mod {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PrimeFieldMatrix is immutable")

    def __reduce__(self):
        # pickling and copying rebuild through __init__, as for hallq.frozen
        return PrimeFieldMatrix, (self.p, self.entries, (self.rows, self.cols))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrimeFieldMatrix):
            return NotImplemented
        return (self.p, self.rows, self.cols, self.entries) == (
            other.p,
            other.rows,
            other.cols,
            other.entries,
        )

    def __hash__(self) -> int:
        return hash((self.p, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"PrimeFieldMatrix(p={self.p}, {self.rows}x{self.cols}, {self.entries!r})"

    def __matmul__(self, other: PrimeFieldMatrix) -> PrimeFieldMatrix:
        if self.p != other.p:
            raise ValueError("mixed moduli")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return PrimeFieldMatrix(
            self.p,
            mat_mul(self.entries, other.entries, self.p, ncols=other.cols),
            shape=(self.rows, other.cols),
        )


class SubspaceBasis(Frozen):
    """A subspace of F_p^d in canonical form.

    row_basis holds the reduced row-echelon basis (one row per vector), which
    makes equality of subspaces a plain tuple comparison; the pivots follow
    from it and are not compared. The column-echelon matrix is its
    transpose, exposed as .basis.
    """

    __slots__ = _fields = ("p", "ambient_dim", "row_basis", "pivots")

    def __init__(
        self,
        p: int,
        ambient_dim: int,
        row_basis: tuple[tuple[int, ...], ...],
        pivots: tuple[int, ...],
    ) -> None:
        set_field(self, "p", p)
        set_field(self, "ambient_dim", ambient_dim)
        set_field(self, "row_basis", row_basis)
        set_field(self, "pivots", pivots)

    def _compared(self) -> tuple:
        return (self.p, self.ambient_dim, self.row_basis)

    @classmethod
    def from_rows(cls, p: int, ambient_dim: int, rows: Sequence[Sequence[int]]) -> SubspaceBasis:
        reduced = tuple(tuple(x % p for x in r) for r in rows)
        for r in reduced:
            if len(r) != ambient_dim:
                raise ValueError(f"vector length {len(r)} != ambient dimension {ambient_dim}")
        basis, _, pivots = row_reduce(reduced, p, ncols=ambient_dim)
        return cls(p, ambient_dim, basis, pivots)

    @classmethod
    def zero(cls, p: int, ambient_dim: int) -> SubspaceBasis:
        return cls(p, ambient_dim, (), ())

    @classmethod
    def full(cls, p: int, ambient_dim: int) -> SubspaceBasis:
        rows = tuple(tuple(1 if i == j else 0 for j in range(ambient_dim)) for i in range(ambient_dim))
        return cls(p, ambient_dim, rows, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.row_basis)

    @property
    def basis(self) -> PrimeFieldMatrix:
        flipped = (
            tuple(zip(*self.row_basis))
            if self.row_basis
            else tuple(() for _ in range(self.ambient_dim))
        )
        return PrimeFieldMatrix(self.p, flipped, shape=(self.ambient_dim, self.dim))

    def contains_vector(self, vec: Sequence[int]) -> bool:
        v = [x % self.p for x in vec]
        return not any(reduce_vector(v, self.row_basis, self.pivots, self.p))

    def contains(self, other: SubspaceBasis) -> bool:
        return all(self.contains_vector(r) for r in other.row_basis)


def _echelon_row_sets(m: int, r: int, p: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    # all r x m reduced row-echelon matrices of full rank r
    for pivots in combinations(range(m), r):
        pivot_set = set(pivots)
        free_slots = [
            (i, j) for i in range(r) for j in range(pivots[i] + 1, m) if j not in pivot_set
        ]
        for values in product(range(p), repeat=len(free_slots)):
            rows = [[0] * m for _ in range(r)]
            for i in range(r):
                rows[i][pivots[i]] = 1
            for (i, j), v in zip(free_slots, values):
                rows[i][j] = v
            yield tuple(tuple(row) for row in rows)


def echelon_supersets(
    d: int,
    p: int,
    lower_rows: tuple[tuple[int, ...], ...],
    lower_pivots: tuple[int, ...],
    extra_rank: int,
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
    """Raw form of superspace enumeration: yield (rref rows, pivots) of every
    subspace of F_p^d that contains the given echelon space and exceeds its
    dimension by exactly extra_rank.

    The lower space must already be in reduced row-echelon form. Enumerates
    echelon bases of the quotient space and pulls them back along the
    complement coordinates.
    """
    compl = [j for j in range(d) if j not in set(lower_pivots)]
    m = len(compl)
    if extra_rank < 0 or extra_rank > m:
        return
    for quot_rows in _echelon_row_sets(m, extra_rank, p):
        lifted = []
        for u in quot_rows:
            vec = [0] * d
            for t, c in enumerate(compl):
                vec[c] = u[t]
            lifted.append(vec)
        # clear lower-bound entries at the lifted pivot columns; the stack
        # is then the RREF of the combined span without a fresh elimination
        lift_pivots = [compl[next(t for t in range(m) if u[t])] for u in quot_rows]
        adjusted = [reduce_vector(row, lifted, lift_pivots, p) for row in lower_rows]
        merged = sorted(
            list(zip(lower_pivots, adjusted)) + list(zip(lift_pivots, lifted))
        )
        yield (
            tuple(tuple(row) for _, row in merged),
            tuple(piv for piv, _ in merged),
        )


def enumerate_subspaces(
    ambient_dim: int, p: int, lower_bound: SubspaceBasis
) -> Iterator[SubspaceBasis]:
    """Yield every subspace of F_p^ambient_dim containing lower_bound.

    Each subspace appears exactly once, in canonical echelon form, ordered by
    ascending dimension.
    """
    if lower_bound.ambient_dim != ambient_dim:
        raise ValueError("lower_bound lives in a different ambient space")
    if lower_bound.p != p:
        raise ValueError("lower_bound uses a different modulus")
    free = ambient_dim - lower_bound.dim
    for r in range(free + 1):
        for rows, pivots in echelon_supersets(
            ambient_dim, p, lower_bound.row_basis, lower_bound.pivots, r
        ):
            yield SubspaceBasis(p, ambient_dim, rows, pivots)


def gaussian_binomial(d: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^d, exactly."""
    if k > d:
        raise ValueError(f"subspace dimension {k} exceeds ambient dimension {d}")
    if k < 0 or d < 0:
        raise ValueError("dimensions must be nonnegative")
    num = 1
    den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    assert num % den == 0
    return num // den
