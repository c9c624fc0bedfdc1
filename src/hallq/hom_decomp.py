"""Hom-space dimensions, decomposition of modules into indecomposable
summands via exact hom-count linear algebra, and Hall numbers from the
middle terms of extensions."""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from .errors import CeilingError, InternalInvariantError
from .frozen import Frozen, set_field
from .gf import mat_mul, matrix_rank, unit_pivot_rref
from .quiver_rep import (
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
    columns = {y: _profile_raw(n, 2, raw_sum((y,), n)) for y in all_labels(n)}
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
        paths, loop_top = maps

        def rank(*blocks) -> int:
            return len({r for m in blocks for r in m if r >= 0})

    else:
        paths, loop = _path_matrices(n, p, raw), raw[2]
        loop_top = [mat_mul(loop, row[n - 1], p, ncols=dims[s]) for s, row in enumerate(paths)]

        def rank(*blocks) -> int:
            return matrix_rank([sum(rows, ()) for rows in zip(*blocks)], p)

    out = []
    for label in all_labels(n):
        _, blocks = _label_blocks(n, label, paths, loop_top)
        source = dims[label.i - 1] + (dims[label.j - 1] if label.kind == "U" else 0)
        out.append(source - rank(*blocks))
    return tuple(out)


def _label_blocks(n: int, label: IndecLabel, paths, loop_top) -> tuple[int, tuple]:
    # the vertex A_L maps into and its column blocks, for the matrix A_L
    # whose rank _profile_raw reads: A_{i->j+1} (W), L A_{i->n} (V) or
    # [A_{i->n} | L A_{j->n}] (U), from the path maps and the loop tops
    i = label.i - 1
    if label.kind == "W":
        return label.j, (paths[i][label.j],)
    if label.kind == "V":
        return n - 1, (loop_top[i],)
    return n - 1, (paths[i][n - 1], loop_top[label.j - 1])


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


class DecompositionMultiset(Frozen):
    """Multiset of indecomposable summands, stored in canonical label order."""

    __slots__ = _fields = ("items",)

    def __init__(self, items: tuple[tuple[IndecLabel, int], ...]) -> None:
        set_field(self, "items", items)

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
def _c_inverse(n: int) -> tuple[tuple, tuple]:
    # inverse B of the hom-count matrix C[X][Y] = hom_dim(X, Y), as its
    # (rows, columns), each by its nonzero entries (index, value) in index
    # order: B has at most 4 nonzeros per column for n = 2..10, so products
    # with B cost its nonzeros, not k^2 for k labels. The invertibility of C
    # is what makes hom profiles decide isomorphism classes. B is integral
    # for every n the tests build (2..8), with entries in {-1, 0, 1}. It is
    # the right half of the RREF of [C | I] over the integers
    # (gf.unit_pivot_rref), accepted only if C . B = I, checked column by
    # column through the few nonzeros of each column of B; a fractional
    # inverse, or one whose elimination needs a pivot other than +-1, is an
    # invariant breach
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
    rows = tuple(tuple((c - k, e) for c, e in row if c >= k) for row in red)
    cols: list[list] = [[] for _ in range(k)]
    for r, row in enumerate(rows):
        for c, e in row:
            cols[c].append((r, e))
    c_cols = tuple(zip(*c_rows))
    for c, col in enumerate(cols):
        # column c of C . B - I, from the columns of C that column c of B touches
        got = [-int(r == c) for r in range(k)]
        for j, b in col:
            got = [g + b * e for g, e in zip(got, c_cols[j])]
        if any(got):
            raise InternalInvariantError(f"hom-count matrix at n={n} has no integer inverse")
    return rows, tuple(map(tuple, cols))


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
    rows, _ = _c_inverse(n)
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


def _aut_shape(labels: tuple[IndecLabel, ...], n: int) -> tuple[int, tuple[int, ...]]:
    # |Aut M| for M = sum of L_i^{m_i}: End(L) is local with residue field
    # F_p for every label L, so End M / rad End M is the product of the
    # matrix rings M_{m_i}(F_p), and Aut M is its unit group times the
    # radical, of order p^{dim End M - sum m_i^2} prod |GL_{m_i}(p)|; the
    # exponent and the m_i are the same for every p. The walk keeps the
    # shape of each side (_Side) and of each middle term, once per call
    # (riedtmann_hall_numbers)
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
    # the path maps A_{s->t} (paths[s][t], s <= t) and the loop tops
    # L A_{s->n} (loop_top[s]) of a raw module as column maps: each column's
    # one nonzero entry, a 1, as its row, or -1 for a zero column; composing
    # the maps composes the matrices. None when some column of an arrow or
    # the loop is neither 0 nor a unit vector
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
    return paths, [_then(row[n - 1], loop_map) for row in paths]


def _then(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    # the column map of g f
    return tuple(g[r] if r >= 0 else -1 for r in f)


class _Side:
    """One side of the Ext^1 walk, X or Y, by itself: its raw sum, its
    |Aut| shape and, built when a walk first meets a nonzero class, what its
    connecting matrices (_connecting_patterns) read of it. It depends on n
    and the sorted labels only, so every plan with the same X or Y shares
    it (_side).

    maps holds the path maps A_{s->t} and the loop tops L A_{s->n} as
    column maps (_column_maps). Every arrow and loop matrix of a canonical
    raw sum has at most one nonzero entry, a 1, in each column, and no two
    of its columns hit the same row: each arrow and the loop send the basis
    vectors of each summand to distinct basis vectors or to 0 (make_indec),
    and a direct sum keeps the summands apart. Both are checked here: a side
    whose _column_maps is None, or one of whose arrows or loop sends two
    columns to one row, raises InternalInvariantError naming its labels.
    Composites keep both properties, so every path map and loop top does.

    As the X of an extension the side gives inverse: back[t][r], the
    (s, col) that A_{s->t} sends to row r, for every s <= t (s = t is the
    identity), and loop_back[r], the (j, col) that L A_{j->n} sends to row
    r of X_n. As the Y it gives images: the rows that each A_{s->t} and
    each L A_{s->n} hit, and for each pair (i, j) those that A_{i->n} and
    L A_{j->n} hit together, as bit masks.
    """

    def __init__(self, n: int, labels: tuple[IndecLabel, ...]) -> None:
        self.n, self.labels = n, labels
        self.raw = raw_sum(labels, n)
        self.aut = _aut_shape(labels, n)

    @cached_property
    def maps(self) -> tuple[list, list]:
        # the path maps and the loop tops, as column maps (_column_maps)
        n = self.n
        maps = _column_maps(n, self.raw)
        if maps is None:
            problem = "a canonical matrix column is neither 0 nor a unit vector"
        else:
            # the arrows, then the loop: paths[n - 1][n - 1] is the identity
            paths, loop_top = maps
            steps = [paths[v][v + 1] for v in range(n - 1)] + [loop_top[n - 1]]
            hits = [[r for r in m if r >= 0] for m in steps]
            if all(len(h) == len(set(h)) for h in hits):
                return maps
            problem = "two columns of a canonical matrix hit the same row"
        raise InternalInvariantError(f"side {multiset_to_str(self.labels)}: {problem}")

    @cached_property
    def inverse(self) -> tuple[list, list]:
        # (back, loop_back) of the class docstring
        dims, (paths, loop_top) = self.raw[0], self.maps
        back: list[list[list]] = [[[] for _ in range(d)] for d in dims]
        for s, row in enumerate(paths):
            for t in range(s, self.n):
                for col, r in enumerate(row[t]):
                    if r >= 0:
                        back[t][r].append((s, col))
        loop_back: list[list] = [[] for _ in range(dims[-1])]
        for j, m in enumerate(loop_top):
            for col, r in enumerate(m):
                if r >= 0:
                    loop_back[r].append((j, col))
        return back, loop_back

    @cached_property
    def images(self) -> tuple[list, list, list]:
        # (path, loop, pair) image masks of the class docstring
        paths, loop_top = self.maps

        def mask(m) -> int:
            return sum(1 << r for r in m if r >= 0)

        path_img = [[mask(m) for m in row] for row in paths]
        loop_img = [mask(m) for m in loop_top]
        pair_img = [[row[-1] | img for img in loop_img] for row in path_img]
        return path_img, loop_img, pair_img


# the most sides _side keeps: more than the 392 labels at n = 16, so a table
# build up to n = 16 makes each side once
SIDE_CACHE_SIZE = 512
_side = lru_cache(maxsize=SIDE_CACHE_SIZE)(_Side)


@lru_cache(maxsize=None)
def _label_positions(n: int):
    # {label: position in all_labels(n)}, and the positions of W(v+1, w)
    # for w > v, of V(v+1), and of U(i+1, j+1)
    index = {l: i for i, l in enumerate(all_labels(n))}
    fwd = tuple(
        tuple(index[IndecLabel("W", v + 1, w)] for w in range(v + 1, n)) for v in range(n)
    )
    pair = tuple(tuple(index[IndecLabel("U", i + 1, j + 1)] for j in range(n)) for i in range(n))
    return index, fwd, tuple(index[IndecLabel("V", v + 1)] for v in range(n)), pair


def _connecting_patterns(x: _Side, y: _Side, blocks, basis) -> dict[int, tuple]:
    """R_L(b) = Q_L C_L(b) K_L for each label L and each row b of the Ext^1
    basis (_ext_basis, e rows), as one matrix whose entries are e-tuples of
    integers: entry (r, k) is (R_L(b_1)[r][k], ..., R_L(b_e)[r][k]). Rows
    and columns that are zero for every b are dropped, and so is a label
    whose R_L(b) is 0 for every b. Keyed by label index, in label order.

    _profile_raw reads dim Hom(L, M) as dim M_src - rk A_L(M), where M_src
    is M_i (M_i + M_j for U). For the middle term M of an extension of X by
    Y with cocycle c (_cocycle_system), order M_v = Y_v + X_v, and the
    columns of the U matrix as Y_i, Y_j, X_i, X_j.
    Then A_L(M) = [[A_L(Y), C_L(c)], [0, A_L(X)]]: path maps are products
    of the upper triangular arrows, so C_{s->t} is the sum over s <= k < t
    of A^Y_{k+1->t} c_k A^X_{s->k}; the loop adds L_Y C_{j->n} + c A^X_{j->n}
    for L A_{j->n}, with c the loop block; and the U block is
    [C_{i->n} | L_Y C_{j->n} + c A^X_{j->n}]. Each entry of C_L(c) is a
    sum of coordinates of c, so C_L, and R_L with it, is Z-linear in c.

    Claim: rk [[A, C], [0, A']] = rk A + rk A' + rk(Q C K), for K a basis
    of ker A' (as columns) and Q the projection onto coker A. Proof: with
    K' a complement of K, the columns split into [A; 0], [C K; 0] and
    [C K'; A' K']. A' K' has full column rank rk A', so a combination of
    the last group that lies in the span of the others is 0: the rank is
    rk A' + rk [A | C K]. And rk [A | B] = rk A + rk(Q B), since Q B spans
    (col A + col B) / col A. So

        dim Hom(L, M) = dim Hom(L, Y) + dim Hom(L, X) - rk R_L(c).

    With B = _c_inverse(n), which inverts profiles,
    mult(M) = mult(X + Y) - B r(c) for r_L(c) = rk R_L(c).

    Q_L and K_L without elimination. Each column of A_L(Y) and A_L(X) is 0
    or a unit vector (_Side), so the column space of A_L(Y) is spanned by
    the unit vectors of the rows it hits, and Q_L keeps the other rows:
    row r is in the cokernel when the images mask of A_L(Y) misses r. The
    kernel of A_L(X) is spanned by the unit vectors of its zero columns and
    by e_k - e_k' for each two columns k < k' that hit the same row:
    grouped by row, the nonzero columns are equal unit vectors, and
    distinct rows give independent ones. Within one path map or loop top
    no two columns hit the same row (_Side), so for W(i,j) and V(i), whose
    A_L is one map, the kernel vectors are the zero columns. For U(i,j),
    with d = dim X_i columns of A_{i->n} before those of L A_{j->n}, a
    column col < d that A_{i->n} sends to a row r1 pairs with the column
    d + c2 of L A_{j->n} that also hits r1, if any (loop_back[r1]); a
    column d + col that L A_{j->n} sends to r2 pairs with the column of
    A_{i->n} that hits r2, if any (back[n][r2]). Each vector is named by
    the column of its last nonzero entry: col for a zero column, d + c2 for
    a pair, +1 on col and -1 on d + c2. No two vectors share a name, so the
    pattern's columns, sorted by name, are the kernel vectors numbered in
    column order at that column.

    Which labels a coordinate reaches. A coordinate (k, a, b) of the
    cocycles is entry (a, b) of block k: c_k = E_ab: X_k -> Y_{k+1} for
    k < n - 1, or of the loop block, E_ab: X_n -> Y_n. Then
    A^Y_{k+1->t} E_ab A^X_{s->k} = e_r row_b(A^X_{s->k}), with r the row
    that A^Y_{k+1->t} sends a to, and row b of A^X_{s->k} has its 1s at the
    columns col with A^X_{s->k}(col) = b, the (s, col) of back[k][b]. So
    the coordinate adds its value, and nothing else, to entry (r, col) of
    C_{s->t} for each such (s, col) and each t > k that the path from a
    reaches (r >= 0), and to entry (r, col) of the loop part of source s,
    where r is L_Y A^Y_{k+1->n}(a) for k < n - 1 and r = a for the loop
    block, which enters L A_{s->n} only through c A^X_{s->n}. The labels
    that read these blocks are W(s+1, t) (C_{s->t}, t counted from 0),
    U(s+1, j) for every j (C_{s->n}, the first d columns), V(s+1) (the
    loop part of s) and U(i, s+1) for every i (the loop part of s, after
    the dim X_i columns of A_{i->n}). Entry (r, v) of Q_L C_L K_L is the
    sum over columns col of C_L[r][col] K_L[col][v] for r in the cokernel,
    so the coordinate adds value times the sign of v at col to entry
    (r, v) of R_L for each kernel vector v nonzero at col, and nothing to
    any other entry or label. Summing these contributions over the
    coordinates where some basis row is nonzero gives every R_L(b) at
    once; a label that no contribution reaches has R_L(b) = 0 for every b,
    as has every label with dim Hom(L, X) = dim ker A_L(X) = 0.
    """
    n, top = x.n, x.n - 1
    _, fwd_pos, loop_pos, pair_pos = _label_positions(n)
    (px, lx), (py, ly) = x.maps, y.maps
    back, loop_back = x.inverse
    path_img, loop_img, pair_img = y.images
    dx = x.raw[0]
    coords = tuple(zip(*basis))
    # per label index, entry (r, v) of R_L at the basis as its e-tuple: row
    # r of the cokernel, kernel vector v by its name
    hits: dict[int, dict] = {}

    def put(label: int, r: int, v: int, vec: tuple) -> None:
        entries = hits.get(label)
        if entries is None:
            hits[label] = {(r, v): vec}
        else:
            old = entries.get((r, v))
            entries[(r, v)] = vec if old is None else tuple(map(add, old, vec))

    for k, (rows, cols, off) in enumerate(blocks):
        for a in range(rows):
            # (t, the row of Y_t that a reaches) while the path from k + 1
            # lives, the row it reaches at n (top_r) and the row of the
            # loop part (loop_r), each -1 where there is none
            reach, top_r, loop_r = [], -1, a
            if k < top:
                for t in range(k + 1, n):
                    r = py[k + 1][t][a]
                    if r < 0:
                        break
                    reach.append((t, r))
                top_r, loop_r = py[k + 1][top][a], ly[k + 1][a]
            for b in range(cols):
                vec = coords[off + a * cols + b]
                if not any(vec):
                    continue
                for s, col in back[k][b]:
                    for t, r in reach:
                        if px[s][t][col] < 0 and not path_img[s][t] >> r & 1:
                            put(fwd_pos[s][t - s - 1], r, col, vec)
                    if top_r >= 0:
                        r1 = px[s][top][col]
                        if r1 < 0:
                            for j, img in enumerate(pair_img[s]):
                                if not img >> top_r & 1:
                                    put(pair_pos[s][j], top_r, col, vec)
                        else:
                            for j, c2 in loop_back[r1]:
                                if not pair_img[s][j] >> top_r & 1:
                                    put(pair_pos[s][j], top_r, dx[s] + c2, vec)
                    if loop_r < 0:
                        continue
                    r2 = lx[s][col]
                    if r2 < 0:
                        if not loop_img[s] >> loop_r & 1:
                            put(loop_pos[s], loop_r, col, vec)
                        for i in range(n):
                            if not pair_img[i][s] >> loop_r & 1:
                                put(pair_pos[i][s], loop_r, dx[i] + col, vec)
                    else:
                        neg = tuple(-e for e in vec)
                        for i, _ in back[top][r2]:
                            if not pair_img[i][s] >> loop_r & 1:
                                put(pair_pos[i][s], loop_r, dx[i] + col, neg)
    zero = (0,) * len(basis)
    patterns = {}
    for label in sorted(hits):
        entries = {key: vec for key, vec in hits[label].items() if any(vec)}
        if len(entries) == 1:
            patterns[label] = (tuple(entries.values()),)
        elif entries:
            rows = sorted({r for r, _ in entries})
            cols = sorted({v for _, v in entries})
            patterns[label] = tuple(tuple(entries.get((r, v), zero) for v in cols) for r in rows)
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
    """What the Ext^1 walk of one side pair needs that no prime changes,
    built once per riedtmann_hall_numbers call and walked at each of its
    primes: the two sides (_side, shared with every plan that has the same
    X or Y: raw sums, |Aut| shapes and the data of the connecting
    matrices), the cocycle layout, the Ext^1 basis over the integers
    (ext_basis, from _ext_basis; _ext_classes reduces it mod p, and
    e = dim Ext^1(X, Y) is its length at every p, known before any class is
    visited) and dim Hom(X, Y). With e > 0, where every prime meets a
    nonzero class, it also holds their classifier (_middle_labels): base,
    mult(X + Y) over all labels, and connecting, per distinct pattern of
    _connecting_patterns, the sum of its labels' columns of _c_inverse, by
    its nonzeros (label index, value): equal patterns, equal ranks. With
    e = 0 both are ().

    A pattern holds R_L(b_t) for the rows b_t of ext_basis. The walk ranks
    R_L(c) for c = sum_t a_t b_t mod p as the rank of sum_t a_t R_L(b_t)
    mod p (_connecting_ranks). Proof: R_L is Z-linear in c
    (_connecting_patterns), so R_L(c) and sum_t a_t R_L(b_t) agree mod p,
    and rank mod p reads the matrix mod p only. These c, as a runs over the
    nonzero vectors of F_p^e with first nonzero entry 1 (_nonzero_classes),
    are the walk's classes: the rows b_t mod p are the per-prime basis of a
    complement of B^1 in Z^1 (_ext_classes), so c -> [c] maps the
    combinations bijectively onto Ext^1(X, Y) over F_p, and one per line is
    one per class up to scalars. A row or column that is zero for every t
    is zero in every combination and leaves the rank unchanged, and a
    pattern zero for every t has rank 0 at every class, so dropping them
    changes no rank vector's middle term.

    The coboundary rank must be sum_v dim X_v dim Y_v - dim Hom(X, Y), for
    dim Hom(X, Y) summed from hom_table, since ker delta = Hom(X, Y). So
    every side pair walked checks the path-rank table against the cocycle
    system (hom_dim_raw) at run time.
    """

    def __init__(self, n: int, xs: tuple[IndecLabel, ...], ys: tuple[IndecLabel, ...]) -> None:
        table = hom_table(n)
        self.n = n
        self.xside, self.yside = _side(n, xs), _side(n, ys)
        self.x, self.y = self.xside.raw, self.yside.raw
        self.hom_xy = sum(table[(a, b)] for a in xs for b in ys)
        self.blocks, loop_eqs, coboundaries = _cocycle_system(n, self.x, self.y)
        b_rank = sum(map(mul, self.x[0], self.y[0])) - self.hom_xy
        try:
            self.ext_basis = _ext_basis(self.blocks, loop_eqs, coboundaries, b_rank)
        except (ArithmeticError, InternalInvariantError) as err:
            raise InternalInvariantError(
                f"Ext^1({multiset_to_str(xs)}, {multiset_to_str(ys)}): {err}"
            ) from err
        self.split = tuple(sorted(xs + ys, key=IndecLabel.sort_key))
        self.split_aut = _aut_shape(self.split, n)
        self.base = self.connecting = ()
        if self.ext_basis:
            index = _label_positions(n)[0]
            base = [0] * len(index)
            for label in self.split:
                base[index[label]] += 1
            self.base = tuple(base)
            _, cols = _c_inverse(n)
            patterns = _connecting_patterns(self.xside, self.yside, self.blocks, self.ext_basis)
            out: dict = {}
            for k, pat in patterns.items():
                col = out.setdefault(pat, {})
                for i, b in cols[k]:
                    col[i] = col.get(i, 0) + b
            self.connecting = tuple(
                (pat, tuple((i, b) for i, b in col.items() if b)) for pat, col in out.items()
            )


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

    The walk does not build these vectors: it names the class
    sum_t a_t b_t by its coefficients a (_nonzero_classes) and ranks its
    connecting matrices from those of the rows (_WalkPlan). The tests glue
    middle terms from them.
    """
    return tuple(tuple(e % p for e in row) for row in plan.ext_basis)


def _nonzero_classes(e: int, p: int):
    # one coefficient vector a in F_p^e per line, the one whose first
    # nonzero entry is 1: the class sum_t a_t b_t over the rows of ext_basis
    for lead in range(e):
        for tail in product(range(p), repeat=e - lead - 1):
            yield (0,) * lead + (1,) + tail


def _connecting_ranks(plan: _WalkPlan, p: int, a) -> tuple[int, ...]:
    # rk R(c) over F_p for the class c = sum_t a_t b_t, as the rank of
    # sum_t a_t R(b_t), for each pattern R of plan.connecting
    return tuple(
        matrix_rank([[sum(map(mul, a, v)) % p for v in row] for row in pattern], p)
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
    xs: Iterable[IndecLabel], ys: Iterable[IndecLabel], n: int, primes: Sequence[int]
) -> list[dict[tuple[IndecLabel, ...], int]]:
    """Every nonzero Hall number F^M_{X,Y} at each prime of primes, keyed by
    M as a sorted label tuple: one dict per prime, in the order given.

    Riedtmann's formula (C. Riedtmann, Lie algebras generated by
    indecomposables, J. Algebra 170, 1994) gives

        F^M_{X,Y} = |Ext^1(X,Y)_M| |Aut M| / (|Aut X| |Aut Y| |Hom(X,Y)|),

    where Ext^1(X,Y)_M holds the classes whose middle term is M. So F^M_{X,Y}
    is nonzero exactly when M is such a middle term. The classes are walked
    up to scalars, 1 + (p^e - 1)/(p - 1) of them for e = dim Ext^1(X, Y):
    xi and lambda xi have isomorphic middle terms, so each nonzero class
    stands for p - 1. A class is named by its coefficients a in the Ext^1
    basis b_1, ..., b_e, one vector a per line (_nonzero_classes), and its
    middle term is classified from the ranks r_L(c) of its connecting
    matrices, as mult(X + Y) - B r(c) (_connecting_patterns), without
    gluing it. Each connecting matrix is held as its values R_L(b_t) at the
    basis rows, and r_L(c) is the rank of sum_t a_t R_L(b_t) mod p (proof
    in _WalkPlan). The multiplicities are checked to be nonnegative and to
    add up to the dimension vector of X + Y, once per distinct r(c).
    Everything that does not depend on p comes from one _WalkPlan, built
    per call and walked at every prime: the Ext^1 basis (eliminated over
    the integers, reduced mod p by _ext_classes), the connecting matrices,
    and the middle term of each r(c) with its |Aut| shape, kept for the
    call. What depends on one side alone, its raw sum, |Aut| shape and the
    column maps of its path maps and loop tops with their inverses and
    images, comes from _side, built once per side and shared by the plans
    that have it.

    The plan knows e, so the walk's size at every prime is known before any
    class is visited: above MAX_WALK_CLASSES classes at some prime, it
    raises CeilingError, naming the first such prime, before walking any.
    """
    xs = tuple(sorted(xs, key=IndecLabel.sort_key))
    ys = tuple(sorted(ys, key=IndecLabel.sort_key))
    plan = _WalkPlan(n, xs, ys)
    e = len(plan.ext_basis)
    for p in primes:
        classes = 1 + (p**e - 1) // (p - 1)
        if classes > MAX_WALK_CLASSES:
            raise CeilingError(
                f"Ext^1({multiset_to_str(xs)}, {multiset_to_str(ys)}) has dimension {e}, "
                f"so the walk at p={p} would visit {classes} classes, above the bound "
                f"{MAX_WALK_CLASSES}"
            )
    # (middle term, its |Aut| shape) of each rank vector r(c) met so far
    # (_middle_labels), at any prime
    middles: dict[tuple[int, ...], tuple[tuple[IndecLabel, ...], tuple]] = {}
    out = []
    for p in primes:
        per_ranks: dict[tuple[int, ...], int] = {}
        for a in _nonzero_classes(e, p):
            ranks = _connecting_ranks(plan, p, a)
            per_ranks[ranks] = per_ranks.get(ranks, 0) + p - 1
        # class counts per middle term, keyed by (middle term, its |Aut| shape)
        sizes = {(plan.split, plan.split_aut): 1}
        for ranks, size in per_ranks.items():
            middle = middles.get(ranks)
            if middle is None:
                m = _middle_labels(plan, ranks)
                middle = middles[ranks] = (m, _aut_shape(m, n))
            sizes[middle] = sizes.get(middle, 0) + size
        denom = _aut_order(plan.xside.aut, p) * _aut_order(plan.yside.aut, p) * p**plan.hom_xy
        counts = {}
        for (m, shape), size in sizes.items():
            num = size * _aut_order(shape, p)
            if num % denom:
                raise InternalInvariantError(
                    f"Riedtmann count {num}/{denom} for {multiset_to_str(m)} is not an integer"
                )
            counts[m] = num // denom
        out.append(counts)
    return out
