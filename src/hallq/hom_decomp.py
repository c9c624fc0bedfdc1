"""Hom-space dimensions, isomorphism testing, decomposition of modules
into indecomposable summands via exact hom-count linear algebra, and Hall
numbers from the middle terms of extensions."""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from operator import add, mul
from typing import Iterable, Mapping

from .errors import CeilingError, InternalInvariantError
from .frozen import Frozen, set_field
from .gf import mat_mul, matrix_rank, unit_pivot_rref
from .quiver_rep import (
    AlgebraContext,
    IndecLabel,
    RawRep,
    Representation,
    all_labels,
    multiset_dims,
    multiset_to_str,
    raw_sum,
)


def hom_dim_raw(n: int, p: int, dx, ax, lx, dm, am, lm) -> int:
    """hom_dim on raw entry tuples: the nullity mod p of the coboundary map
    delta of _cocycle_system, whose rows are one per coordinate of h in
    sum_v Hom(x_v, m_v). It builds the coboundaries alone, without the loop
    equations. It is the tests' Hom oracle; no counter calls it."""
    blocks = _cocycle_blocks(n, dx, dm)
    coboundaries = _coboundaries(n, (dx, ax, lx), (dm, am, lm), blocks)
    lr, lc, loff = blocks[-1]
    rows = []
    for cob in coboundaries:
        if cob:
            row = [0] * (loff + lr * lc)
            for c, e in cob:
                row[c] = e % p
            rows.append(row)
    return len(coboundaries) - matrix_rank(rows, p)


def raw_rep(rep: Representation) -> RawRep:
    """The entry tuples of a representation, as the raw kernels take them."""
    return rep.dims, tuple(a.entries for a in rep.arrow), rep.loop.entries


def hom_dim(x: Representation, m: Representation) -> int:
    """Dimension of the space of module maps x -> m.

    A map is one matrix h_v per vertex with h_{v+1} A^x_v = A^m_v h_v at
    every arrow and h_n L^x = L^m h_n at the loop: an h in
    sum_v Hom(x_v, m_v) whose coboundary in the cocycle system of
    extensions of x by m (_cocycle_system) is 0. So Hom(x, m) = ker delta.
    It does not read the path-rank profiles (_profile_raw), and the tests
    use it as their oracle.
    """
    if x.ctx != m.ctx:
        raise ValueError("hom_dim needs a common algebra context")
    return hom_dim_raw(x.ctx.n, x.ctx.p, *raw_rep(x), *raw_rep(m))


@lru_cache(maxsize=None)
def probe_reps(n: int) -> dict[IndecLabel, RawRep]:
    """Raw form of every indecomposable, in canonical label order, built once
    per n: the entries are 0 or 1, the same over every F_p."""
    return {l: raw_sum((l,), n) for l in all_labels(n)}


@lru_cache(maxsize=None)
def hom_table(n: int, p: int | None = None) -> dict[tuple[IndecLabel, IndecLabel], int]:
    """hom_dim between all pairs of indecomposables, filled once per n.

    Column Y, dim Hom(L, Y) over every label L, is the path-rank profile
    of Y (_profile_raw). The labels' entries are 0 or 1 and every column
    is 0 or a unit vector, so _profile_raw counts rows and never reduces
    mod p; the table is the same over every F_p by the field-independence
    argument there. p is accepted and ignored, for callers of the old
    (n, p) signature (perfbench/make_reference.py).

    The table is checked against the cocycle system where Ext^1 is
    computed: every side pair the walk plans checks its coboundary rank
    against the table's dim Hom(X, Y) (_WalkPlan), and the tests compare
    the table with hom_dim_raw for every label pair.
    """
    columns = {y: _profile_raw(n, 2, raw) for y, raw in probe_reps(n).items()}
    return {(x, y): col[k] for k, x in enumerate(columns) for y, col in columns.items()}


@lru_cache(maxsize=None)
def hom_profiles(
    n: int, ms: tuple[IndecLabel, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(dim Hom(L, M), dim Hom(M, L)) over all labels L in canonical order,
    for M the direct sum of the labels ms.

    Hom into or out of a direct sum is the direct sum of the Homs of its
    summands, so both vectors are sums of entries of hom_table.
    """
    table = hom_table(n)
    labels = all_labels(n)
    return (
        tuple(sum(table[(l, y)] for y in ms) for l in labels),
        tuple(sum(table[(y, l)] for y in ms) for l in labels),
    )


def _profile_raw(n: int, p: int, raw: RawRep) -> tuple[int, ...]:
    """dim Hom(L, M) over all labels L in canonical order, from ranks of
    M's path maps instead of one Hom linear system per label.

    Write A_{s->t}: M_s -> M_t for the path map of M (A_{s->s} = 1), L for
    its loop, and a_{s->t} for the path as an element of the projective
    P_s = e_s Lambda, which has a basis of the paths from s: a_{s->t} for
    s <= t <= n and L a_{s->n}. Each label has a presentation
        W(i,j) = P_i / <a_{i->j+1}>,
        V(i)   = P_i / <L a_{i->n}>,
        U(i,j) = (P_i + P_j) / <a_{i->n} g_i - L a_{j->n} g_j>,
    with g_i, g_j the generators of the two summands (also for i = j and
    for i or j = n, where a_{n->n} = 1). Proof: the canonical
    representation of each label is generated by the images of the
    generators, and those images satisfy the relation: in W(i,j) vertex
    j+1 is 0; in V(i) the loop is 0; in U(i,j) g_j reaches e1 at vertex n
    and g_i reaches e2 = L e1 (make_indec sends the junction to e1 for
    j < i and to e2 for i < j, and for i = j the generators are e1 and e2
    at vertex i). So each presentation maps onto the label, and both have
    the label's dimension vector: the relation generates 1 at each vertex
    from j+1 to n-1 and 2 at n for W, 1 at n for V, and 2 at n (itself and
    L a_{i->n} g_i) for U. A surjection between spaces of equal dimension
    is an isomorphism.

    A map out of P_s is the image of its generator, any vector of M_s, so
    Hom(L, M) is the set of generator images that the relation kills:
        dim Hom(W(i,j), M) = dim M_i - rk A_{i->j+1},
        dim Hom(V(i), M)   = dim M_i - rk (L A_{i->n}),
        dim Hom(U(i,j), M) = dim M_i + dim M_j - rk [A_{i->n} | L A_{j->n}],
    where the sign of the second block, -L A_{j->n}, drops out of the rank.

    Two branches, chosen by the input alone. When every column of every
    arrow and of the loop is 0 or a unit vector e_r (_column_maps), as for
    canonical raw sums (raw_sum, rep_of_multiset), the path maps are
    composed as column maps and each rank is the number of distinct rows
    the block's columns hit. Any other input, such as a Representation
    read from a file (rep_from_json), the brute-force oracle's sub and
    quotient modules or a glued middle term, takes the dense branch: the
    path maps are multiplied out mod p (gf.mat_mul) and each rank is a
    gf.matrix_rank elimination.

    Field independence, and why the count is the rank: every arrow and
    loop matrix of a canonical indecomposable has at most one nonzero
    entry in each column, and that entry is 1, so every product of them,
    and each block matrix above, does too (entry (r, c) of G F is G[r, f]
    for f the row that column c of F hits, which is what composing the
    column maps gives). The column space of such a matrix is spanned by the unit
    vectors of its nonzero rows, so each rank is a count of nonzero rows,
    the rows the columns hit, and the same over every F_p. This holds for
    any input that passes the check, canonical or not. Hence hom_table,
    whose columns are these profiles of the labels, does not depend on p,
    and nor does _c_inverse.
    """
    dims = raw[0]
    maps = _column_maps(n, raw)
    if maps is not None:
        paths, loop = maps
        loop_top = [_then(row[n - 1], loop) for row in paths]

        def rank(*blocks) -> int:
            return len({r for m in blocks for r in m if r >= 0})

    else:
        paths, loop = _path_matrices(n, p, raw), raw[2]
        loop_top = [mat_mul(loop, row[n - 1], p, ncols=dims[s]) for s, row in enumerate(paths)]

        def rank(*blocks) -> int:
            return matrix_rank([sum(rows, ()) for rows in zip(*blocks)], p)

    out = []
    for label in all_labels(n):
        i = label.i - 1
        if label.kind == "W":
            out.append(dims[i] - rank(paths[i][label.j]))
        elif label.kind == "V":
            out.append(dims[i] - rank(loop_top[i]))
        else:
            j = label.j - 1
            out.append(dims[i] + dims[j] - rank(paths[i][n - 1], loop_top[j]))
    return tuple(out)


def _path_matrices(n: int, p: int, raw: RawRep) -> list:
    # paths[s][t] = A_{s->t} mod p for 0-based vertices s <= t
    dims, arrows, _ = raw
    paths = []
    for s in range(n):
        d = dims[s]
        row = [()] * s + [tuple(tuple(int(r == c) for c in range(d)) for r in range(d))]
        for t in range(s + 1, n):
            row.append(mat_mul(arrows[t - 1], row[t - 1], p, ncols=d))
        paths.append(row)
    return paths


def hom_profile(rep: Representation) -> tuple[int, ...]:
    """hom_dim(X, rep) over all indecomposable X in canonical label order."""
    return _profile_raw(rep.ctx.n, rep.ctx.p, raw_rep(rep))


def is_iso(m: Representation, nrep: Representation) -> bool:
    """Isomorphism test by hom counts against every indecomposable.

    For a representation-finite algebra, equal hom dimensions from all
    indecomposables (plus equal dimension vectors) force an isomorphism.
    """
    if m.ctx != nrep.ctx:
        raise ValueError("is_iso needs a common algebra context")
    return m.dims == nrep.dims and hom_profile(m) == hom_profile(nrep)


class DecompositionMultiset(Frozen):
    """Multiset of indecomposable summands, stored in canonical label order."""

    __slots__ = _fields = ("items",)

    def __init__(self, items: tuple[tuple[IndecLabel, int], ...]) -> None:
        set_field(self, "items", items)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.items == other.items
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.items,))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[IndecLabel, int]]) -> DecompositionMultiset:
        kept = [(l, m) for l, m in pairs if m]
        for _, m in kept:
            if m < 0:
                raise ValueError("multiplicities must be positive")
        kept.sort(key=lambda lm: lm[0].sort_key())
        return cls(tuple(kept))

    @classmethod
    def from_labels(cls, labels: Iterable[IndecLabel]) -> DecompositionMultiset:
        counts: dict[IndecLabel, int] = {}
        for l in labels:
            counts[l] = counts.get(l, 0) + 1
        return cls.from_pairs(counts.items())

    @property
    def multiplicities(self) -> Mapping[IndecLabel, int]:
        return dict(self.items)

    def as_labels(self) -> tuple[IndecLabel, ...]:
        out: list[IndecLabel] = []
        for l, m in self.items:
            out.extend([l] * m)
        return tuple(out)

    def sort_key(self) -> tuple[int, ...]:
        return tuple(t for l, m in self.items for t in (*l.sort_key(), m))

    def __len__(self) -> int:
        return sum(m for _, m in self.items)

    def __str__(self) -> str:
        return f"[{multiset_to_str(self.as_labels())}]"


@lru_cache(maxsize=None)
def _c_inverse(n: int) -> tuple[tuple[int, ...], ...]:
    # inverse of the hom-count matrix C[X][Y] = hom_dim(X, Y); its
    # invertibility is what makes hom profiles decide isomorphism classes.
    # It is integral for every n the tests build (2..8), with entries in
    # {-1, 0, 1}. It is the right half of the RREF of [C | I] over the
    # integers (gf.unit_pivot_rref), accepted only if C . B = I, checked
    # column by column through the few nonzeros of each column of B; a
    # fractional inverse, or one whose elimination needs a pivot other
    # than +-1, is an invariant breach
    labels = all_labels(n)
    table = hom_table(n)
    k = len(labels)
    c_rows = [[table[(x, y)] for y in labels] for x in labels]
    try:
        red, pivots = unit_pivot_rref(
            [*((c, e) for c, e in enumerate(row) if e), (k + r, 1)] for r, row in enumerate(c_rows)
        )
    except ArithmeticError as err:
        raise InternalInvariantError(f"hom-count matrix at n={n} has no integer inverse: {err}") from err
    if pivots[:k] != tuple(range(k)):
        raise InternalInvariantError(f"hom-count matrix at n={n} is singular")
    inv = []
    for row in red:
        dense = [0] * k
        for c, e in row:
            if c >= k:
                dense[c - k] = e
        inv.append(tuple(dense))
    c_cols = tuple(zip(*c_rows))
    for c, col in enumerate(_nonzeros(zip(*inv))):
        # column c of C . B - I, from the columns of C that column c of B touches
        got = [-int(r == c) for r in range(k)]
        for j, b in col:
            got = [g + b * e for g, e in zip(got, c_cols[j])]
        if any(got):
            raise InternalInvariantError(f"hom-count matrix at n={n} has no integer inverse")
    return tuple(inv)


def _nonzeros(rows) -> tuple[tuple[tuple[int, int], ...], ...]:
    # each row as its nonzero entries (column, value), in column order
    return tuple(tuple((c, e) for c, e in enumerate(row) if e) for row in rows)


@lru_cache(maxsize=None)
def _c_inverse_nonzeros(n: int):
    # (rows, columns) of B = _c_inverse(n), each by its nonzeros, built once
    # per n: B has at most 4 nonzeros per column for n = 2..10, so products
    # with B cost its nonzeros, not k^2 for k labels
    inv = _c_inverse(n)
    return _nonzeros(inv), _nonzeros(zip(*inv))


def _module_count(n: int, mult, dims: tuple[int, ...]) -> DecompositionMultiset:
    # the multiplicities mult over all labels as a multiset, checked to be a
    # module count with the dimension vector dims
    labels = all_labels(n)
    if min(mult) < 0:
        l, v = next((l, v) for l, v in zip(labels, mult) if v < 0)
        raise InternalInvariantError(
            f"hom profile produced multiplicity {v} for {l}; not a module count"
        )
    result = DecompositionMultiset.from_pairs(zip(labels, mult))
    if multiset_dims(result.as_labels(), n) != dims:
        raise InternalInvariantError("decomposition does not have the module's dimensions")
    return result


def _decompose_raw(n: int, p: int, raw: RawRep) -> DecompositionMultiset:
    h = _profile_raw(n, p, raw)
    rows, _ = _c_inverse_nonzeros(n)
    return _module_count(n, [sum(b * h[j] for j, b in row) for row in rows], raw[0])


def decompose(m: Representation) -> DecompositionMultiset:
    """Krull-Schmidt decomposition from the hom profile.

    Solves C . mult = h exactly, where h is the hom profile of m and C holds
    hom counts between indecomposables (C[L][Y] = dim Hom(L, Y)), then
    checks that the multiplicities are nonnegative and add up to the
    dimension vector of m.

    The module R rebuilt from the multiplicities has hom profile h, so
    comparing the two, as a round trip, would test nothing for any
    particular m. Three facts make it a tautology:
    - C . B = I over the integers, for B the inverse _c_inverse returns
      (checked there), so mult = B h gives C mult = h;
    - Hom profiles add over direct sums: each entry of _profile_raw is a
      vertex dimension minus the rank of a block-diagonal matrix, one block
      per summand, so profile(R) = sum of mult_Y profile(Y) over labels Y;
    - profile(Y) is column Y of C for every label Y, by construction:
      hom_table reads its columns off _profile_raw.
    Together, profile(R)_L = sum over Y of C[L][Y] mult_Y = h_L. What is
    left to check is h itself: a negative multiplicity means h is not the
    profile of any module, and the dimension check catches a profile that
    does not belong to m.
    """
    return _decompose_raw(m.ctx.n, m.ctx.p, raw_rep(m))


# --- Hall numbers from extensions -------------------------------------------


@lru_cache(maxsize=256)
def _aut_shape(labels: tuple[IndecLabel, ...], n: int) -> tuple[int, tuple[int, ...]]:
    # |Aut M| for M = sum of L_i^{m_i}: End(L) is local with residue field
    # F_p for every label L, so End M / rad End M is the product of the
    # matrix rings M_{m_i}(F_p), and Aut M is its unit group times the
    # radical, of order p^{dim End M - sum m_i^2} prod |GL_{m_i}(p)|; the
    # exponent and the m_i are the same for every p
    items = DecompositionMultiset.from_labels(labels).items
    table = hom_table(n)
    end = sum(a * b * table[(k, l)] for k, a in items for l, b in items)
    return end - sum(m * m for _, m in items), tuple(m for _, m in items)


def _aut_order(shape: tuple[int, tuple[int, ...]], p: int) -> int:
    exp, mults = shape
    order = p**exp
    for m in mults:
        for k in range(m):
            order *= p**m - p**k
    return order


def _cocycle_system(n: int, x: RawRep, y: RawRep):
    """The block layout of the cocycles, and the loop equations and
    coboundaries over the integers, for extensions of X by Y.

    An extension 0 -> Y -> M -> X -> 0 is M_v = Y_v + X_v with arrows
    [[A^Y_v, c_v], [0, A^X_v]] and loop [[L_Y, c], [0, L_X]]. The arrow
    blocks c_v: X_v -> Y_{v+1} are free; L^2 = 0 asks L_Y c + c L_X = 0 of
    the loop block. The coboundaries A^Y h_v - h_{v+1} A^X and
    L_Y h_n - h_n L_X come from h in sum_v Hom(X_v, Y_v). Block v < n-1 is
    c_v and block n-1 the loop block, each as (rows, cols, offset); the
    loop equations and the coboundaries are sparse rows of (coordinate,
    coefficient) over all blocks, in coordinate order. The cocycles Z^1
    are the kernel of the loop equations, whose zero rows are dropped.
    The coboundaries are the matrix of delta: one row per coordinate
    (v, r, s) of h, entry (r, s) of h_v, in that order, zero rows
    included, so ker delta = Hom(X, Y) (hom_dim).
    """
    blocks = _cocycle_blocks(n, x[0], y[0])
    loop = blocks[n - 1]
    lr, lc, _ = loop
    ly, lx_cols = y[2], tuple(zip(*x[2]))
    loop_eqs = []
    for r in range(lr):
        for s in range(lc):
            eq = _loop_row(loop, r, s, ly[r], lx_cols[s])
            if eq:
                loop_eqs.append(tuple(eq))
    return blocks, tuple(loop_eqs), _coboundaries(n, x, y, blocks)


def _cocycle_blocks(n: int, dx, dy) -> tuple[tuple[int, int, int], ...]:
    # (rows, cols, offset) of each block of _cocycle_system
    blocks = []
    total = 0
    for v in range(n):
        rows = dy[v + 1] if v < n - 1 else dy[v]
        blocks.append((rows, dx[v], total))
        total += rows * dx[v]
    return tuple(blocks)


def _loop_row(loop_block, r: int, s: int, left, right) -> list:
    # left[k] at (k, s) for every row k and right[k] at (r, k) for every
    # column k of the loop block, nonzero entries in coordinate order:
    # rows above r, then row r, where (r, s) takes both, then rows below
    _, lc, loff = loop_block
    mid = list(right)
    mid[s] += left[r]
    return (
        [(loff + k * lc + s, e) for k, e in enumerate(left[:r]) if e]
        + [(loff + r * lc + k, e) for k, e in enumerate(mid) if e]
        + [(loff + k * lc + s, e) for k, e in enumerate(left[r + 1 :], r + 1) if e]
    )


def _coboundaries(n: int, x: RawRep, y: RawRep, blocks) -> tuple[tuple, ...]:
    # the coboundary rows of _cocycle_system, one per coordinate of h
    dx, ax, lx = x
    dy, ay, ly = y
    ly_cols = tuple(zip(*ly))
    coboundaries = []
    for v in range(n):
        for r in range(dy[v]):
            for s in range(dx[v]):
                row = []
                if v > 0:
                    _, cols, off = blocks[v - 1]
                    row += [(off + r * cols + b, -e) for b, e in enumerate(ax[v - 1][s]) if e]
                if v < n - 1:
                    _, cols, off = blocks[v]
                    row += [(off + a * cols + s, m[r]) for a, m in enumerate(ay[v]) if m[r]]
                else:
                    row += _loop_row(blocks[v], r, s, ly_cols[r], [-e for e in lx[s]])
                coboundaries.append(tuple(row))
    return tuple(coboundaries)


def _column_maps(n: int, raw: RawRep):
    # the path maps A_{s->t} (paths[s][t], s <= t) and the loop of a raw
    # module as column maps: each column's one nonzero entry, a 1, as its row, or -1
    # for a zero column; composing the maps composes the matrices. None when
    # some column of an arrow or the loop is neither 0 nor a unit vector
    dims, arrows, loop = raw

    def as_map(mat, ncols: int) -> tuple[int, ...] | None:
        img = [-1] * ncols
        for r, row in enumerate(mat):
            for col, e in enumerate(row):
                if e:
                    if e != 1 or img[col] >= 0:
                        return None
                    img[col] = r
        return tuple(img)

    steps = [as_map(a, dims[v]) for v, a in enumerate(arrows)]
    loop_map = as_map(loop, dims[n - 1])
    if loop_map is None or None in steps:
        return None
    paths = []
    for s in range(n):
        row = [()] * s + [tuple(range(dims[s]))]
        for t in range(s + 1, n):
            row.append(_then(row[-1], steps[t - 1]))
        paths.append(row)
    return paths, loop_map


def _then(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    # the column map of g f
    return tuple(g[r] if r >= 0 else -1 for r in f)


def _connecting_patterns(n: int, labels, x: RawRep, y: RawRep, blocks) -> list:
    """R_L(c) = Q_L C_L(c) K_L for each of the labels, as a matrix whose
    entries are integer linear forms in the cocycle c: tuples of
    (coordinate, coefficient). Rows and columns that are zero for every c
    are dropped, so a label whose R_L is always 0 gets ().

    _profile_raw reads dim Hom(L, M) as dim M_src - rk A_L(M), where A_L(M)
    is A_{i->j+1} (W), L A_{i->n} (V) or [A_{i->n} | L A_{j->n}] (U) and
    M_src is M_i (M_i + M_j for U). For the middle term M of an extension
    of X by Y (_cocycle_system), order M_v = Y_v + X_v, and the columns of
    the U matrix as Y_i, Y_j, X_i, X_j.
    Then A_L(M) = [[A_L(Y), C_L(c)], [0, A_L(X)]]: path maps are products
    of the upper triangular arrows, so C_{s->t} is the sum over s <= k < t
    of A^Y_{k+1->t} c_k A^X_{s->k}; the loop adds L_Y C_{j->n} + c A^X_{j->n}
    for L A_{j->n}, with c the loop block; and the U block is
    [C_{i->n} | L_Y C_{j->n} + c A^X_{j->n}].

    Claim: rk [[A, C], [0, A']] = rk A + rk A' + rk(Q C K), for K a basis
    of ker A' (as columns) and Q the projection onto coker A. Proof: with
    K' a complement of K, the columns split into [A; 0], [C K; 0] and
    [C K'; A' K']. A' K' has full column rank rk A', so a combination of
    the last group that lies in the span of the others is 0: the rank is
    rk A' + rk [A | C K]. And rk [A | B] = rk A + rk(Q B), since Q B spans
    (col A + col B) / col A. So

        dim Hom(L, M) = dim Hom(L, Y) + dim Hom(L, X) - rk R_L(c).

    K_L is empty when dim Hom(L, X) = dim ker A_L(X) is 0, and then
    rk R_L(c) = 0 for every c. With B = _c_inverse(n), which inverts
    profiles, mult(M) = mult(X + Y) - B r(c) for r_L(c) = rk R_L(c).

    Q_L and K_L without elimination: every arrow and loop matrix of a
    canonical raw sum has at most one nonzero entry, a 1, in each column
    (_profile_raw; checked here, where a side whose _column_maps is None
    raises InternalInvariantError), and so do their products and
    the blocks of A_L(Y) and A_L(X). The column space of such a matrix is
    spanned by the unit vectors of its nonzero rows, so Q_L keeps the zero
    rows of A_L(Y). Its kernel is spanned by the unit vectors of its zero
    columns and by e_k - e_k' for each two columns k, k' that hit the same
    row: grouped by row, the nonzero columns are equal unit vectors and
    distinct rows give independent ones. Within one path map no two
    columns share a row, so the differences come from the concatenated U
    block only, pairing X_i with X_j.
    """
    xmaps, ymaps = _column_maps(n, x), _column_maps(n, y)
    if xmaps is None or ymaps is None:
        raise InternalInvariantError("a canonical matrix column is neither 0 nor a unit vector")
    dx, dy = x[0], y[0]
    (px, lx), (py, ly) = xmaps, ymaps
    top = n - 1
    lr, lc, loff = blocks[top]

    ly_top = [_then(py[s][top], ly) for s in range(n)]
    lx_top = [_then(px[s][top], lx) for s in range(n)]

    @lru_cache(maxsize=None)
    def upper(s: int, t: int) -> dict:
        # C_{s->t}, entry (r, col) as the list of cocycle coordinates it sums
        out: dict = {}
        for k in range(s, t):
            _, cols, off = blocks[k]
            to_t = py[k + 1][t]
            for col, b in enumerate(px[s][k]):
                if b >= 0:
                    for a, r in enumerate(to_t):
                        if r >= 0:
                            out.setdefault((r, col), []).append(off + a * cols + b)
        return out

    @lru_cache(maxsize=None)
    def loop_upper(s: int) -> dict:
        # the upper right block of L A_{s->n}: L_Y C_{s->n} + c A^X_{s->n}
        out: dict = {}
        for (a, col), coords in upper(s, top).items():
            if ly[a] >= 0:
                out.setdefault((ly[a], col), []).extend(coords)
        for col, b in enumerate(px[s][top]):
            if b >= 0:
                for r in range(lr):
                    out.setdefault((r, col), []).append(loff + r * lc + b)
        return out

    patterns = []
    for label in labels:
        i = label.i - 1
        if label.kind == "W":
            t = label.j
            ymaps, xmaps = [py[i][t]], [px[i][t]]
        elif label.kind == "V":
            t = top
            ymaps, xmaps = [ly_top[i]], [lx_top[i]]
        else:
            t, j = top, label.j - 1
            ymaps, xmaps = [py[i][t], ly_top[j]], [px[i][t], lx_top[j]]
        hit = {r for m in ymaps for r in m}
        q = [r for r in range(dy[t]) if r not in hit]
        kernel = []
        first = {}
        for col, r in enumerate(r for m in xmaps for r in m):
            if r < 0:
                kernel.append(((col, 1),))
            elif r in first:
                kernel.append(((first[r], 1), (col, -1)))
            else:
                first[r] = col
        if not (q and kernel):
            patterns.append(())
            continue
        if label.kind == "W":
            c = upper(i, t)
        elif label.kind == "V":
            c = loop_upper(i)
        else:
            c = dict(upper(i, t))
            c.update(((r, col + dx[i]), coords) for (r, col), coords in loop_upper(j).items())
        rows = []
        for r in q:
            row = []
            for vec in kernel:
                form: dict[int, int] = {}
                for col, sign in vec:
                    for coord in c.get((r, col), ()):
                        form[coord] = form.get(coord, 0) + sign
                row.append(tuple((k, v) for k, v in sorted(form.items()) if v))
            if any(row):
                rows.append(row)
        keep = [k for k in range(len(kernel)) if any(row[k] for row in rows)]
        patterns.append(tuple(tuple(row[k] for k in keep) for row in rows))
    return patterns


def _ext_basis(blocks, loop_eqs, coboundaries, b_rank: int):
    """The rows of _ext_classes over the integers, each with a +1 pivot,
    from the cocycle system of _cocycle_system; b_rank is the rank B^1 must
    have. Three unit-pivot eliminations (gf.unit_pivot_rref) give:
    1. Z^1, the kernel of the loop equations: one cocycle per free column f
       of their RREF, with 1 at f and minus column f at the pivots;
    2. B^1 in RREF, whose rank is checked against b_rank;
    3. the cocycles reduced against B^1, then put in RREF.
    Raises ArithmeticError where an elimination finds no +-1 pivot.
    """
    lr, lc, loff = blocks[-1]
    total = loff + lr * lc
    lrows, lpivs = unit_pivot_rref(loop_eqs)
    cocycles = {f: {f: 1} for f in range(total) if f not in lpivs}
    for row, piv in zip(lrows, lpivs):
        for c, e in row:
            if c != piv:
                cocycles[c][piv] = -e
    brows, bpivs = unit_pivot_rref(coboundaries)
    if len(bpivs) != b_rank:
        raise InternalInvariantError(f"coboundary rank {len(bpivs)} disagrees with dim Hom(X, Y)")
    for z in cocycles.values():
        for row, piv in zip(brows, bpivs):
            f = z.get(piv)
            if f:
                for c, e in row:
                    z[c] = z.get(c, 0) - f * e
    reps, _ = unit_pivot_rref(z.items() for z in cocycles.values())
    return tuple(tuple(row.get(k, 0) for k in range(total)) for row in map(dict, reps))


class _WalkPlan:
    """What the Ext^1 walk of one side pair needs that no prime changes:
    the raw sides, the cocycle layout, the Ext^1 basis over the integers
    (ext_basis, from _ext_basis; _ext_classes reduces it mod p, and
    e = dim Ext^1(X, Y) is its length at every p, known before any class is
    visited) and the |Aut| shapes.
    The classifier (base, connecting) is built on the first nonzero class.

    The coboundary rank must be sum_v dim X_v dim Y_v - dim Hom(X, Y), for
    dim Hom(X, Y) summed from hom_table, since ker delta = Hom(X, Y). So
    every side pair walked checks the path-rank table against the cocycle
    system (hom_dim_raw) at run time.
    """

    def __init__(self, n: int, xs: tuple[IndecLabel, ...], ys: tuple[IndecLabel, ...]) -> None:
        table = hom_table(n)
        self.n, self.xs = n, xs
        self.x, self.y = raw_sum(xs, n), raw_sum(ys, n)
        self.hom_xy = sum(table[(a, b)] for a in xs for b in ys)
        self.blocks, loop_eqs, coboundaries = _cocycle_system(n, self.x, self.y)
        b_rank = sum(map(mul, self.x[0], self.y[0])) - self.hom_xy
        try:
            self.ext_basis = _ext_basis(self.blocks, loop_eqs, coboundaries, b_rank)
        except (ArithmeticError, InternalInvariantError) as err:
            raise InternalInvariantError(
                f"Ext^1({multiset_to_str(xs)}, {multiset_to_str(ys)}): {err}"
            ) from err
        self.aut = (_aut_shape(xs, n), _aut_shape(ys, n))
        self.split = tuple(sorted(xs + ys, key=IndecLabel.sort_key))
        # the middle term of each rank vector r(c) met so far (_middle_labels)
        self.middle: dict[tuple[int, ...], tuple[IndecLabel, ...]] = {}

    @cached_property
    def base(self) -> tuple[int, ...]:
        # mult(X + Y) over all labels
        counts = DecompositionMultiset.from_labels(self.split).multiplicities
        return tuple(counts.get(l, 0) for l in all_labels(self.n))

    @cached_property
    def connecting(self) -> tuple[tuple[tuple, tuple[tuple[int, int], ...]], ...]:
        # per distinct pattern of a label with dim Hom(L, X) > 0, the sum of
        # those labels' columns of _c_inverse, by its nonzeros (label index,
        # value): equal patterns, equal ranks
        n, labels = self.n, all_labels(self.n)
        live = [k for k, h in enumerate(hom_profiles(n, self.xs)[0]) if h]
        patterns = _connecting_patterns(n, [labels[k] for k in live], self.x, self.y, self.blocks)
        _, cols = _c_inverse_nonzeros(n)
        out: dict = {}
        for k, pat in zip(live, patterns):
            if pat:
                col = out.setdefault(pat, {})
                for i, b in cols[k]:
                    col[i] = col.get(i, 0) + b
        return tuple((pat, tuple((i, b) for i, b in col.items() if b)) for pat, col in out.items())


# one plan per (n, sorted xs, sorted ys); lie.bracket walks one pair at every
# prime of its schedule back to back, so a few entries cover it
_walk_plan = lru_cache(maxsize=4)(_WalkPlan)


def _ext_classes(plan: _WalkPlan, p: int):
    """Representatives of Ext^1(X, Y) over F_p as cocycle vectors: the RREF
    rows spanning a complement of B^1 in Z^1 (layout in _cocycle_system),
    read off plan.ext_basis mod p.

    These are the rows a per-prime elimination gives: take the kernel of
    the loop equations mod p (gf.null_space), put the coboundaries in RREF
    (gf.row_reduce), reduce the cocycles against them (gf.reduce_vector)
    and put the result in RREF. Proof: _ext_basis does the same three steps
    over the integers, each elimination with +-1 pivots only, and those are
    row operations over every F_p (gf.unit_pivot_rref). So its RREF of the
    loop equations is, mod p, the RREF mod p, and its kernel vectors are
    null_space's; likewise for B^1, and its rank, checked once per plan
    against sum_v dim X_v dim Y_v - dim Hom(X, Y) (the kernel of
    h -> coboundary is Hom(X, Y)), is the rank mod every p. Reducing
    against B^1 commutes with reduction mod p, so the reduced cocycles are
    the per-prime ones mod p, and the integer RREF of them, with its +1
    pivots, reduces mod p to a matrix in RREF with the same row space.
    RREF is unique, so that is the per-prime result, row for row.
    """
    return tuple(tuple(e % p for e in row) for row in plan.ext_basis)


def _nonzero_classes(reps, p: int):
    # one cocycle per line of Ext^1, the one with leading coefficient 1
    e = len(reps)
    cols = tuple(zip(*reps))
    for lead in range(e):
        for tail in product(range(p), repeat=e - lead - 1):
            coeffs = (0,) * lead + (1,) + tail
            yield [sum(map(mul, coeffs, col)) % p for col in cols]


def _connecting_ranks(plan: _WalkPlan, p: int, c) -> tuple[int, ...]:
    # rk R(c) over F_p, for each pattern R of plan.connecting
    return tuple(
        matrix_rank([[sum(c[k] * v for k, v in form) % p for form in row] for row in pattern], p)
        for pattern, _ in plan.connecting
    )


def _middle_labels(plan: _WalkPlan, ranks: tuple[int, ...]) -> tuple[IndecLabel, ...]:
    # mult(M) = mult(X + Y) - B r(c): the profile of M is that of X + Y
    # less r(c) (_connecting_patterns), and B inverts profiles
    mult = list(plan.base)
    for r, (_, col) in zip(ranks, plan.connecting):
        if r:
            for i, b in col:
                mult[i] -= r * b
    dims = tuple(map(add, plan.x[0], plan.y[0]))
    return _module_count(plan.n, mult, dims).as_labels()


def _middle_term(n: int, x: RawRep, y: RawRep, blocks, c) -> RawRep:
    # the glued middle term itself; the walk classifies it without building
    # it, and the tests compare the two
    dx, ax, lx = x
    dy, ay, ly = y

    def glue(v: int, top, bottom):
        # [[top, c block v], [0, bottom]]; top and bottom act from vertex v
        rows, cols, off = blocks[v]
        upper = [tuple(top[a]) + tuple(c[off + a * cols : off + (a + 1) * cols]) for a in range(rows)]
        return tuple(upper + [(0,) * dy[v] + tuple(r) for r in bottom])

    dims = tuple(a + b for a, b in zip(dy, dx))
    arrows = tuple(glue(v, ay[v], ax[v]) for v in range(n - 1))
    return dims, arrows, glue(n - 1, ly, lx)


# the most classes one Ext^1 walk may visit. A class costs 68-86 us on a
# 2-vCPU VM (Python 3.11), so the bound is about 7-9 s of walking. It keeps
# every indecomposable pair (e <= 2 for n <= 9: at most 99 classes for
# primes up to 97) and W1,1+W1,1+W1,1 by V2+U2,2+U2,2 at n = 2, p = 2
# (e = 15, 32,768 classes, 2.5 s), and refuses that pair at p = 3
# (7,174,454 classes)
MAX_WALK_CLASSES = 10**5


def riedtmann_hall_numbers(
    xs: Iterable[IndecLabel], ys: Iterable[IndecLabel], ctx: AlgebraContext
) -> dict[tuple[IndecLabel, ...], int]:
    """Every nonzero Hall number F^M_{X,Y}, keyed by M as a sorted label tuple.

    Riedtmann's formula (C. Riedtmann, Lie algebras generated by
    indecomposables, J. Algebra 170, 1994) gives

        F^M_{X,Y} = |Ext^1(X,Y)_M| |Aut M| / (|Aut X| |Aut Y| |Hom(X,Y)|),

    where Ext^1(X,Y)_M holds the classes whose middle term is M. So F^M_{X,Y}
    is nonzero exactly when M is such a middle term. The classes are walked
    up to scalars, 1 + (p^e - 1)/(p - 1) of them for e = dim Ext^1(X, Y):
    xi and lambda xi have isomorphic middle terms, so each nonzero class
    stands for p - 1. The middle term of a class c is classified from the
    ranks r_L(c) of its connecting matrices, as mult(X + Y) - B r(c)
    (_connecting_patterns), without gluing it; the multiplicities are
    checked to be nonnegative and to add up to the dimension vector of
    X + Y, once per distinct r(c). Everything that does not depend on p,
    the Ext^1 basis (eliminated over the integers, reduced mod p by
    _ext_classes) and the middle term of each r(c) included, comes from
    _walk_plan, built once per side pair.

    The plan knows e, so the walk's size is known before any class is
    visited: above MAX_WALK_CLASSES classes it raises CeilingError instead.
    """
    n, p = ctx.n, ctx.p
    xs = tuple(sorted(xs, key=IndecLabel.sort_key))
    ys = tuple(sorted(ys, key=IndecLabel.sort_key))
    plan = _walk_plan(n, xs, ys)
    e = len(plan.ext_basis)
    classes = 1 + (p**e - 1) // (p - 1)
    if classes > MAX_WALK_CLASSES:
        raise CeilingError(
            f"Ext^1({multiset_to_str(xs)}, {multiset_to_str(ys)}) has dimension {e}, "
            f"so the walk at p={p} would visit {classes} classes, above the bound "
            f"{MAX_WALK_CLASSES}"
        )
    per_ranks: dict[tuple[int, ...], int] = {}
    for c in _nonzero_classes(_ext_classes(plan, p), p):
        ranks = _connecting_ranks(plan, p, c)
        per_ranks[ranks] = per_ranks.get(ranks, 0) + p - 1
    sizes = {plan.split: 1}
    for ranks, size in per_ranks.items():
        m = plan.middle.get(ranks)
        if m is None:
            m = plan.middle[ranks] = _middle_labels(plan, ranks)
        sizes[m] = sizes.get(m, 0) + size
    aut_x, aut_y = plan.aut
    denom = _aut_order(aut_x, p) * _aut_order(aut_y, p) * p**plan.hom_xy
    out = {}
    for m, size in sizes.items():
        num = size * _aut_order(_aut_shape(m, n), p)
        if num % denom:
            raise InternalInvariantError(
                f"Riedtmann count {num}/{denom} for {multiset_to_str(m)} is not an integer"
            )
        out[m] = num // denom
    return out
