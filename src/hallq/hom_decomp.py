"""Hom-space dimensions, decomposition of modules into indecomposable
summands via exact hom-count linear algebra, and Hall numbers from the
middle terms of extensions."""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby, product
from operator import add, mul
from typing import Iterable, Sequence

from .errors import CeilingError, InternalInvariantError
from .frozen import Frozen, set_field
from .gf import mat_mul, matrix_rank, unit_pivot_rref
from .quiver_rep import (
    IndecLabel,
    RawRep,
    Representation,
    _indec_raw,
    all_labels,
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
    """hom_dim between all pairs of indecomposables, keyed by label pair: a
    dict view of the rows of _label_positions(n), which fills them once per
    n. p is accepted and ignored, for callers of the old (n, p) signature
    (perfbench/make_reference.py).

    Column Y, dim Hom(L, Y) over every label L, is the path-rank profile
    of Y (_profile_raw). The labels' entries are 0 or 1 and every column
    is 0 or a unit vector, so _profile_raw counts rows and never reduces
    mod p; the table is the same over every F_p by the field-independence
    argument there.

    The table is checked against the cocycle system where Ext^1 is
    computed: every side pair the walk plans checks its coboundary rank
    against the table's dim Hom(X, Y) (_WalkPlan), and the tests compare
    the table with hom_dim_raw for every label pair.
    """
    pos = _label_positions(n)
    return {(x, y): d for x, row in zip(pos.labels, pos.hom) for y, d in zip(pos.labels, row)}


class _LabelPositions:
    """What the per-label arithmetic of the walk and of decompose reads at
    one n, every vector and row indexed by a label's position in
    all_labels(n), which is canonical label order. Built once per n
    (_label_positions); hom_table is a dict view of its hom matrix."""

    __slots__ = ("labels", "index", "hom", "dims", "fwd", "loop", "pair")

    def __init__(self, n: int) -> None:
        labels = all_labels(n)
        raws = [raw_sum((y,), n) for y in labels]
        self.labels = labels
        # {label: position}, for the one lookup per summand where a side is made
        self.index = index = {l: k for k, l in enumerate(labels)}
        # hom[k][l] = dim Hom(L_k, L_l): column l is the path-rank profile of
        # L_l (_profile_raw)
        self.hom = tuple(zip(*(_profile_raw(n, 2, raw) for raw in raws)))
        # each label's dimension vector
        self.dims = tuple(raw[0] for raw in raws)
        # the positions of W(v+1, w) for w > v, of V(v+1), and of U(i+1, j+1)
        self.fwd = tuple(
            tuple(index[IndecLabel("W", v + 1, w)] for w in range(v + 1, n)) for v in range(n)
        )
        self.loop = tuple(index[IndecLabel("V", v + 1)] for v in range(n))
        self.pair = tuple(
            tuple(index[IndecLabel("U", i + 1, j + 1)] for j in range(n)) for i in range(n)
        )


_label_positions = lru_cache(maxsize=None)(_LabelPositions)


@lru_cache(maxsize=None)
def hom_profiles(
    n: int, ms: tuple[IndecLabel, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(dim Hom(L, M), dim Hom(M, L)) over all labels L in canonical order,
    for M the direct sum of the labels ms.

    Hom into or out of a direct sum is the direct sum of the Homs of its
    summands, so both vectors are sums of rows and columns of the hom
    matrix (_label_positions).
    """
    pos = _label_positions(n)
    ks = [pos.index[y] for y in ms]
    return (
        tuple(sum(row[k] for k in ks) for row in pos.hom),
        tuple(sum(pos.hom[k][l] for k in ks) for l in range(len(pos.labels))),
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
    arrow and of the loop is 0 or a unit vector e_r (_column_steps), as for
    canonical raw sums (raw_sum, rep_of_multiset), each arrow and the loop
    is read once as a column map, the images of the path maps and loop tops
    are pushed forward as row bit masks (_image_masks), and each rank is a
    mask's bit count, read for every label through a per-n recipe
    (_rank_recipe). Any other input, such as a Representation read from a
    file (rep_from_json), the brute-force oracle's sub and quotient modules
    or a glued middle term, takes the dense branch: the path maps are
    multiplied out mod p (gf.mat_mul) and each rank is a gf.matrix_rank
    elimination.

    Why the bit count is the rank, over every F_p. Call a matrix a column
    map when each of its columns is 0 or a unit vector e_r (entry 1). It
    sends the span of the unit vectors e_c, c in a set S of its columns, to
    the span of the e_r for the rows r that the columns in S hit; two
    columns that hit one row give that row once. So if im F is the span of
    the unit vectors of the rows in a mask, so is im(G F) = G(im F), with
    the mask pushed through G. The identity A_{s->s} has all of M_s as its
    image, so by induction over the arrows, then the loop, every im A_{s->t}
    and im(L A_{s->n}) is the span of the unit vectors of its mask, and its
    dimension, the rank, is the mask's bit count. The column space of
    [A_{i->n} | L A_{j->n}] is the sum of the two images, so its rank is the
    bit count of the union of their masks. Nothing here reduces mod p or
    assumes that the rows hit are distinct, so the ranks are the same over
    every F_p for any input that passes the check, canonical or not. Hence
    hom_table, whose columns are these profiles of the labels, does not
    depend on p, and nor does _c_inverse.
    """
    dims = raw[0]
    steps = _column_steps(n, raw)
    if steps is not None:
        masks = _image_masks(n, dims, steps)
        ext = (*dims, 0)
        return tuple(
            ext[a] + ext[b] - (masks[x] | masks[y]).bit_count() for a, b, x, y in _rank_recipe(n)
        )
    paths, loop = _path_matrices(n, p, raw), raw[2]
    loop_top = [mat_mul(loop, row[n - 1], p, ncols=dims[s]) for s, row in enumerate(paths)]
    out = []
    for label in all_labels(n):
        _, blocks = _label_blocks(n, label, paths, loop_top)
        source = dims[label.i - 1] + (dims[label.j - 1] if label.kind == "U" else 0)
        out.append(source - matrix_rank([sum(rows, ()) for rows in zip(*blocks)], p))
    return tuple(out)


@lru_cache(maxsize=None)
def _rank_recipe(n: int) -> tuple[tuple[int, int, int, int], ...]:
    # per label in canonical order, (a, b, x, y): dim M_src is
    # dims[a] + dims[b], with b = n naming a 0 appended to dims for W and V,
    # and rk A_L is the bit count of masks[x] | masks[y] in the layout of
    # _image_masks: A_{i->j+1} (W) and L A_{i->n} (V) with x = y, and
    # [A_{i->n} | L A_{j->n}] (U), whose image is the union of the two
    out = []
    for label in all_labels(n):
        i = label.i - 1
        if label.kind == "W":
            out.append((i, n, i * n + label.j, i * n + label.j))
        elif label.kind == "V":
            out.append((i, n, n * n + i, n * n + i))
        else:
            out.append((i, label.j - 1, i * n + n - 1, n * n + label.j - 1))
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
    """Multiset of indecomposable summands, as its labels in canonical order."""

    __slots__ = _fields = ("labels",)

    def __init__(self, labels: tuple[IndecLabel, ...]) -> None:
        set_field(self, "labels", labels)

    @classmethod
    def from_labels(cls, labels: Iterable[IndecLabel]) -> DecompositionMultiset:
        return cls(tuple(sorted(labels, key=IndecLabel.sort_key)))

    def as_labels(self) -> tuple[IndecLabel, ...]:
        return self.labels

    def sort_key(self) -> tuple[int, ...]:
        # each distinct label's key followed by its multiplicity, so {A: 2}
        # sorts after {A: 1, B: 1} for A < B: the order of the reports
        key: list[int] = []
        for l, run in groupby(self.labels):
            key += l.sort_key()
            key.append(len(list(run)))
        return tuple(key)

    def __len__(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return f"[{multiset_to_str(self.labels)}]"


@lru_cache(maxsize=None)
def _c_inverse(n: int) -> tuple[tuple, tuple]:
    # inverse B of the hom-count matrix C[X][Y] = hom_dim(X, Y), the hom
    # matrix of _label_positions, as its (rows, columns), each by its
    # nonzero entries (index, value) in index order: B has at most 4
    # nonzeros per column for n = 2..10, so products with B cost its
    # nonzeros, not k^2 for k labels. The invertibility of C is what makes
    # hom profiles decide isomorphism classes. B is integral
    # for every n the tests build (2..8), with entries in {-1, 0, 1}. It is
    # the right half of the RREF of [C | I] over the integers
    # (gf.unit_pivot_rref), accepted only if C . B = I, checked column by
    # column through the few nonzeros of each column of B; a fractional
    # inverse, or one whose elimination needs a pivot other than +-1, is an
    # invariant breach
    c_rows = _label_positions(n).hom
    k = len(c_rows)
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


def _module_count(n: int, mult, dims: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    # the multiplicities mult, a vector over the label positions, as the
    # (position, multiplicity) items of its nonzero entries in position
    # order, which is canonical label order; checked to be a module count:
    # every multiplicity nonnegative, and the dimension vector, summed from
    # the positions' dimension vectors, equal to dims
    pos = _label_positions(n)
    items = tuple((k, m) for k, m in enumerate(mult) if m)
    total = (0,) * n
    for k, m in items:
        if m < 0:
            raise InternalInvariantError(
                f"hom profile produced multiplicity {m} for {pos.labels[k]}; not a module count"
            )
        total = tuple(t + m * d for t, d in zip(total, pos.dims[k]))
    if total != dims:
        raise InternalInvariantError("decomposition does not have the module's dimensions")
    return items


def _labels_of(n: int, items) -> tuple[IndecLabel, ...]:
    # the sorted label tuple of (position, multiplicity) items in position order
    labels = _label_positions(n).labels
    return tuple(labels[k] for k, m in items for _ in range(m))


def _decompose_raw(n: int, p: int, raw: RawRep) -> DecompositionMultiset:
    # mult = B h, summed over the columns of B at the nonzero entries of h
    h = _profile_raw(n, p, raw)
    _, cols = _c_inverse(n)
    mult = [0] * len(h)
    for j, hj in enumerate(h):
        if hj:
            for i, b in cols[j]:
                mult[i] += b * hj
    return DecompositionMultiset(_labels_of(n, _module_count(n, mult, raw[0])))


def decompose(m: Representation) -> DecompositionMultiset:
    """Krull-Schmidt decomposition from the hom profile.

    Solves C . mult = h exactly, where h is the hom profile of m and C holds
    hom counts between indecomposables (C[L][Y] = dim Hom(L, Y)), as
    mult = B h over the columns of B = C^-1 (_c_inverse) at the nonzero
    entries of h. mult is a vector over the label positions of
    _label_positions; _module_count checks that the multiplicities are
    nonnegative and that the positions' dimension vectors add up to that of
    m, and its items, in position order, give the result's labels in
    canonical order (_labels_of).

    The module R rebuilt from the multiplicities has hom profile h, so
    comparing the two, as a round trip, would test nothing for any
    particular m. Three facts make it a tautology:
    - C . B = I over the integers, for B the inverse _c_inverse returns
      (checked there), so mult = B h gives C mult = h;
    - Hom profiles add over direct sums: each entry of _profile_raw is a
      vertex dimension minus the rank of a block-diagonal matrix, one block
      per summand, so profile(R) = sum of mult_Y profile(Y) over labels Y;
    - profile(Y) is column Y of C for every label Y, by construction:
      _label_positions reads the columns of the hom matrix, which
      hom_table views, off _profile_raw.
    Together, profile(R)_L = sum over Y of C[L][Y] mult_Y = h_L. What is
    left to check is h itself: a negative multiplicity means h is not the
    profile of any module, and the dimension check catches a profile that
    does not belong to m.
    """
    return _decompose_raw(m.ctx.n, m.ctx.p, raw_rep(m))


# --- Hall numbers from extensions -------------------------------------------


def _aut_shape(n: int, items) -> tuple[int, tuple[int, ...]]:
    # |Aut M| for M = sum of L_i^{m_i}, given as its (position, m_i) items
    # (_label_positions): End(L) is local with residue field F_p for every
    # label L, so End M / rad End M is the product of the matrix rings
    # M_{m_i}(F_p), and Aut M is its unit group times the radical, of order
    # p^{dim End M - sum m_i^2} prod |GL_{m_i}(p)|, where
    # dim End M = sum_{k,l} m_k m_l dim Hom(L_k, L_l) is read off the rows
    # of the hom matrix; the exponent and the m_i are the same for every p.
    # The walk keeps the shape of each side (_Side), of X + Y and of each
    # middle term, once per call (riedtmann_hall_numbers)
    hom = _label_positions(n).hom
    end = sum(a * b * hom[k][l] for k, a in items for l, b in items)
    return end - sum(m * m for _, m in items), tuple(m for _, m in items)


def _aut_order(shape: tuple[int, tuple[int, ...]], p: int) -> int:
    exp, mults = shape
    order = p**exp
    for m in mults:
        for k in range(m):
            order *= p**m - p**k
    return order


def _cocycle_system(n: int, x: _Side, y: _Side):
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

    The rows are read off the sides' column maps (_Side), not off dense
    matrices. Entry (a, b) of a side's arrow v, or of its loop, is 1
    exactly when fwd[v][b] = a, that is bwd[v][a] = b, and 0 otherwise. So
    row r of a map has its one nonzero entry at column bwd[v][r], and
    column b at row fwd[v][b], each absent at -1. Loop equation (r, s) is
    (L_Y c + c L_X)[r][s] = c[bwd^Y_L(r)][s] + c[r][fwd^X_L(s)], with L
    the loop's maps. The coefficient of h_v[r][s] in the coboundary is -1
    at c_{v-1}[r][bwd^X_{v-1}(s)] for v > 0, from h_v A^X_{v-1}; +1 at
    c_v[fwd^Y_v(r)][s] for v < n - 1, from A^Y_v h_v; and at v = n - 1, +1
    at (fwd^Y_L(r), s) and -1 at (r, bwd^X_L(s)) of the loop block. So a
    loop equation has at most 2 entries and a coboundary at most 3.
    _loop_entries places and orders the loop block's two terms as the
    dense _loop_row does, so every row is the dense reading's (_loop_row,
    _coboundaries), entry for entry, in the same order; hom_dim_raw keeps
    the dense reading.
    """
    top = n - 1
    blocks = _cocycle_blocks(n, x.dims, y.dims)
    lr, lc, loff = blocks[top]
    xl_fwd, xl_bwd, yl_fwd, yl_bwd = x.fwd[top], x.bwd[top], y.fwd[top], y.bwd[top]
    loop_eqs = []
    for r in range(lr):
        kl = yl_bwd[r]
        for s in range(lc):
            eq = _loop_entries(loff, lc, r, s, kl, 1, xl_fwd[s], 1)
            if eq:
                loop_eqs.append(eq)
    coboundaries = []
    for v in range(n):
        if v > 0:
            _, pcols, poff = blocks[v - 1]
            xb = x.bwd[v - 1]
        if v < top:
            _, cols, off = blocks[v]
            yf = y.fwd[v]
        for r in range(y.dims[v]):
            for s in range(x.dims[v]):
                row: tuple = ()
                if v > 0 and xb[s] >= 0:
                    row = ((poff + r * pcols + xb[s], -1),)
                if v < top:
                    if yf[r] >= 0:
                        row += ((off + yf[r] * cols + s, 1),)
                else:
                    row += _loop_entries(loff, lc, r, s, yl_fwd[r], 1, xl_bwd[s], -1)
                coboundaries.append(row)
    return blocks, tuple(loop_eqs), tuple(coboundaries)


def _loop_entries(loff: int, lc: int, r: int, s: int, kl: int, u: int, kr: int, w: int) -> tuple:
    # _loop_row for the vectors left = u e_kl and right = w e_kr, each 0 at
    # -1: u at (kl, s) and w at (r, kr) of the loop block, in coordinate
    # order. kl is the column of L_Y that hits row r, or the row that column
    # r hits, so kl != r: kl = r would give L_Y e_r = e_r, and L_Y^2 = 0
    # (_label_maps). The two terms never share a row
    mid = ((loff + r * lc + kr, w),) if kr >= 0 else ()
    if kl < 0:
        return mid
    left = ((loff + kl * lc + s, u),)
    return left + mid if kl < r else mid + left


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


def _column_steps(n: int, raw: RawRep) -> list | None:
    # each arrow's column map, then the loop's, read column by column: the
    # row of each column's one nonzero entry, a 1, or -1 for a zero column;
    # the map of g f sends c to g[f[c]], or to -1 where either gives -1.
    # None when some column of an arrow or the loop is neither 0 nor a unit
    # vector
    dims, arrows, loop = raw
    steps = []
    for v, mat in enumerate((*arrows, loop)):
        if not mat:
            # no rows: every column of the map is 0
            steps.append((-1,) * dims[v])
            continue
        step = []
        for col in zip(*mat):
            zeros = col.count(0)
            if zeros == len(col):
                step.append(-1)
            elif zeros == len(col) - 1 and 1 in col:
                step.append(col.index(1))
            else:
                return None
        steps.append(tuple(step))
    return steps


def _image_masks(n: int, dims, steps) -> list[int]:
    # the rows that each path map A_{s->t} hits, at s * n + t (0 for t < s),
    # then those that each loop top L A_{s->n} hits, at n * n + s, as bit
    # masks (bit r for row r), from the column maps of _column_steps. Each
    # image is pushed forward from the last one, im(g f) = g(im f): the
    # identity's image is all of M_s, and g sends the rows of a mask to the
    # rows its columns there hit, so two columns on one row give one bit
    bits = [[1 << r if r >= 0 else 0 for r in step] for step in steps]
    masks = [0] * (n * n + n)
    for s in range(n):
        m = (1 << dims[s]) - 1
        for t in range(s, n):
            masks[s * n + t] = m
            # push through arrow t, or through the loop at t = n - 1
            img = 0
            for bit in bits[t]:
                if m & 1:
                    img |= bit
                m >>= 1
            m = img
        masks[n * n + s] = m
    return masks


@lru_cache(maxsize=None)
def _label_maps(label: IndecLabel, n: int) -> tuple:
    """The column maps of a label's canonical matrices (_indec_raw), read
    once per label, with their inverses and the depth of each row, as
    (dims, fwd, bwd, depth).

    fwd[v] is the column map of arrow v (vertex v to v + 1) for v < n - 1,
    and of the loop for v = n - 1 (_column_steps): the row that each
    column hits, or -1 for a zero column. bwd[v] is its inverse: the
    column that hits each row, or -1. depth[t][r] is the least s with r in
    im A_{s->t}, for each vertex t < n, and depth[n][r] the least j with r
    in im(L A_{j->n}), or n where there is none.

    Every arrow and loop matrix of a label has at most one nonzero entry,
    a 1, in each column, and no two of its columns hit the same row: each
    arrow and the loop send the basis vectors to distinct basis vectors
    or to 0 (make_indec). The loop squares to 0, so no column's loop image
    is a row that the loop moves again, fwd[n-1][r] = -1 for every row r
    it hits. All three are checked here, and a breach raises
    InternalInvariantError naming the label; so every side, a direct sum
    of labels, has all three properties (_Side).

    Why depth reads images. im A_{s->t} is the span of the unit vectors of
    the rows it hits (_profile_raw). Row r of vertex t has at most one
    preimage under arrow t - 1, c = bwd[t-1][r], since the rows of its
    columns are distinct. So for s < t, r is in im A_{s->t} =
    A_{t-1}(im A_{s->t-1}) exactly when c >= 0 and c is in im A_{s->t-1}:
    depth[t][r] = depth[t-1][c], or t when c = -1 (A_{t->t} = 1 hits every
    row). Likewise r is in im(L A_{j->n}) = L(im A_{j->n}) exactly when
    c = bwd[n-1][r] >= 0 and c is in im A_{j->n}: depth[n][r] =
    depth[n-1][c], or n when c = -1. Images grow with s, as
    im A_{s->t} = A_{s+1->t}(im A_s) lies in im A_{s+1->t}, so r is in
    im A_{s->t} exactly when depth[t][r] <= s, and in im(L A_{j->n})
    exactly when depth[n][r] <= j.
    """
    raw = _indec_raw(label, n)
    dims, fwd = raw[0], _column_steps(n, raw)
    if fwd is None:
        problem = "a canonical matrix column is neither 0 nor a unit vector"
    elif any(len(hit) != len(set(hit)) for hit in ([r for r in m if r >= 0] for m in fwd)):
        problem = "two columns of a canonical matrix hit the same row"
    elif any(r >= 0 and fwd[-1][r] >= 0 for r in fwd[-1]):
        problem = "the canonical loop does not square to 0"
    else:
        bwd = []
        for v, step in enumerate(fwd):
            back = [-1] * dims[min(v + 1, n - 1)]
            for c, r in enumerate(step):
                if r >= 0:
                    back[r] = c
            bwd.append(tuple(back))
        depth = [(0,) * dims[0]]
        for t in range(1, n + 1):
            prev = depth[-1]
            depth.append(tuple(prev[c] if c >= 0 else t for c in bwd[t - 1]))
        return dims, tuple(fwd), tuple(bwd), tuple(depth)
    raise InternalInvariantError(f"side {label}: {problem}")


def _joined(n: int, parts: Sequence[tuple]) -> tuple:
    # the (dims, fwd, bwd, depth) of the direct sum of parts, each laid
    # out as _label_maps returns them, summed in the order given: the basis
    # of part m at vertex v follows those of the parts before it, at an
    # offset o_m(v) that sums their dimensions there, so
    # column o_m(v) + c of step v hits row o_m(w) + fwd_m[v][c] (w = v + 1,
    # or n - 1 for the loop) and row o_m(w) + r is hit by column
    # o_m(v) + bwd_m[v][r]. Path maps and loop tops are block diagonal, so
    # each row keeps its depth. One part is returned as it is
    if len(parts) == 1:
        return parts[0]
    dims = tuple(map(sum, zip((0,) * n, *(part[0] for part in parts))))
    fwd, bwd = [], []
    for v in range(n):
        w = min(v + 1, n - 1)
        f: list[int] = []
        b: list[int] = []
        src = dst = 0
        for pdims, pfwd, pbwd, _ in parts:
            f += [r + dst if r >= 0 else -1 for r in pfwd[v]]
            b += [c + src if c >= 0 else -1 for c in pbwd[v]]
            src += pdims[v]
            dst += pdims[w]
        fwd.append(tuple(f))
        bwd.append(tuple(b))
    depth = tuple(tuple(d for part in parts for d in part[3][t]) for t in range(n + 1))
    return dims, tuple(fwd), tuple(bwd), depth


class _Side:
    """One side of the Ext^1 walk, X or Y, by itself: its summands as
    (position, multiplicity) items in position order (_label_positions),
    its |Aut| shape, and its column maps dims, fwd, bwd and depth, laid out
    as a label's (_label_maps) and joined from its labels' in canonical
    order (_joined). A one-label side holds its label's maps, not a copy.
    It depends on n and the sorted labels only, so every plan with the
    same X or Y shares it (_side).

    The side is the direct sum of its labels, whose arrow and loop
    matrices are block diagonal, so each of them is a column map with
    distinct rows and the loop squares to 0, as for each label (checked
    once per label), and each row's depth is its depth in its own summand.
    _cocycle_system reads the cocycle rows off fwd and bwd, and
    _connecting_patterns reads backward chains of bwd in X, forward chains
    of fwd in Y, and images as depths.
    """

    __slots__ = ("n", "items", "aut", "dims", "fwd", "bwd", "depth")

    def __init__(self, n: int, labels: tuple[IndecLabel, ...]) -> None:
        self.n = n
        index = _label_positions(n).index
        counts: dict[int, int] = {}
        for l in labels:
            k = index[l]
            counts[k] = counts.get(k, 0) + 1
        self.items = tuple(sorted(counts.items()))
        self.aut = _aut_shape(n, self.items)
        self.dims, self.fwd, self.bwd, self.depth = _joined(n, [_label_maps(l, n) for l in labels])


# the most sides _side keeps: more than the 392 labels at n = 16, so a table
# build up to n = 16 makes each side once. A side holds its items, its
# |Aut| shape and its column maps; a one-label side shares its label's maps
SIDE_CACHE_SIZE = 512
_side = lru_cache(maxsize=SIDE_CACHE_SIZE)(_Side)


def _back_chain(bwd, t: int, c: int) -> list[tuple[int, int]]:
    # the backward chain of column c at vertex t: (t, c), then (s, col) for
    # s = t - 1, t - 2, ... while bwd gives a column, so A_{s->t}(col) = c
    # exactly for the (s, col) listed (_connecting_patterns)
    chain = []
    while c >= 0:
        chain.append((t, c))
        t -= 1
        c = bwd[t][c] if t >= 0 else -1
    return chain


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

    Chains. Every arrow and the loop of each side is a column map whose
    columns hit distinct rows (_Side), so each row has at most one
    preimage per arrow, bwd. Hence the (s, col) with A_{s->k}(col) = b
    are exactly the backward chain of (k, b) (_back_chain): (k, b), then
    (k - 1, bwd[k-1][b]) and so on while a preimage exists. Path maps and
    loop tops are column maps with distinct rows too, and their images
    are read off depth (proof in _label_maps): r is in im A_{s->t} exactly
    when depth[t][r] <= s, and in im(L A_{j->n}) exactly when
    depth[n][r] <= j.

    Q_L and K_L without elimination. The column space of A_L(Y) is
    spanned by the unit vectors of the rows it hits, so Q_L keeps the
    other rows: for W(s+1, t) row r when depth^Y[t][r] > s, for V(s+1)
    when depth^Y[n][r] > s, and for U(i+1, j+1), whose image is that of
    A_{i->n} plus that of L A_{j->n}, when depth^Y[n-1][r] > i and
    depth^Y[n][r] > j. The kernel of A_L(X) is spanned by the unit vectors
    of its zero columns and by e_k - e_k' for each two columns k < k' that
    hit the same row: grouped by row, the nonzero columns are equal unit
    vectors, and distinct rows give independent ones. Within one path map
    or loop top no two columns hit the same row, so for W(i,j) and V(i),
    whose A_L is one map, the kernel vectors are the zero columns. For
    U(i,j), with d = dim X_i columns of A_{i->n} before those of
    L A_{j->n}, the pairs are a column of A_{i->n} and the column d + col
    of L A_{j->n} that hit one row: a column that L A_{j->n} sends to r2
    pairs with the column of A_{i->n} that hits r2, which exists exactly
    when depth^X[n-1][r2] <= i. Each vector is named by the column of its
    last nonzero entry: col for a zero column, d + col for a pair, -1 on
    d + col and +1 on its partner. No two vectors share a name, so the
    pattern's columns, sorted by name, are the kernel vectors numbered in
    column order at that column.

    No basis row reaches a live arrow column. Take a coordinate c_k[a][b]
    of an arrow block (k < n - 1) whose X column is live, r = fwd^X_k(b)
    >= 0. The coboundary row of h_{k+1}[a][r] (_cocycle_system) has -1 at
    c_k[a][bwd^X_k(r)] = c_k[a][b], and its other entry, if any, lies in
    block k + 1 or in the loop block, later in coordinate order. So
    c_k[a][b] is the row's leading column, which no combination of earlier
    columns of B^1 gives, so it is a pivot column of the RREF of B^1.
    _ext_basis reduces every cocycle against that RREF, which makes it 0
    at every pivot, and row operations on the reduced cocycles keep those
    zeros: every basis row is 0 at c_k[a][b]. A nonzero entry there breaks
    that proof and raises InternalInvariantError.

    Which labels a coordinate reaches. A coordinate (k, a, b) of the
    cocycles is entry (a, b) of block k: c_k = E_ab: X_k -> Y_{k+1} for
    k < n - 1, or of the loop block, E_ab: X_n -> Y_n. Then
    A^Y_{k+1->t} E_ab A^X_{s->k} = e_r row_b(A^X_{s->k}), with r the row
    that A^Y_{k+1->t} sends a to, the forward chain of (k + 1, a) in Y,
    and row b of A^X_{s->k} has its 1 at the column col of the backward
    chain of (k, b) at s, if it reaches s. So the coordinate adds its
    value, and nothing else, to entry (r, col) of C_{s->t} for each such
    (s, col) and each t > k that the chain from a reaches (r >= 0), and to
    entry (r, col) of the loop part of source s, where r is
    L_Y A^Y_{k+1->n}(a) for k < n - 1 and r = a for the loop block, which
    enters L A_{s->n} only through c A^X_{s->n}. The labels that read
    these blocks are W(s+1, t) (C_{s->t}, t counted from 0), U(s+1, j) for
    every j (C_{s->n}, the first d columns), V(s+1) (the loop part of s)
    and U(i, s+1) for every i (the loop part of s, after the dim X_i
    columns of A_{i->n}). Entry (r, v) of Q_L C_L K_L is the sum over
    columns col of C_L[r][col] K_L[col][v] for r in the cokernel, so the
    coordinate adds value times the sign of v at col to entry (r, v) of
    R_L for each kernel vector v nonzero at col, and nothing to any other
    entry or label. An arrow coordinate that a basis row reaches has
    fwd^X_k(b) = -1 (above), so A^X_{s->t}(col) = A^X_{k->t}(b) = 0 for
    every t > k, and L A^X_{s->n}(col) = 0: col is a zero column of every
    A_L(X) that reads it, its own kernel vector with sign +1. A loop
    coordinate's col has L A^X_{s->n}(col) = r2 = fwd^X_L(b): a zero
    column where r2 = -1, and otherwise the pair d + col of U(i, s+1),
    sign -1, for each i with depth^X[n-1][r2] <= i, and in no kernel
    vector of V(s+1). Summing these contributions over the coordinates
    where some basis row is nonzero gives every R_L(b) at once; a label
    that no contribution reaches has R_L(b) = 0 for every b, as has every
    label with dim Hom(L, X) = dim ker A_L(X) = 0.
    """
    n, top = x.n, x.n - 1
    pos = _label_positions(n)
    fwd_pos, loop_pos, pair_pos = pos.fwd, pos.loop, pos.pair
    xfwd, xbwd, xtop, dx = x.fwd, x.bwd, x.depth[top], x.dims
    yfwd, ydepth = y.fwd, y.depth
    ytop, yloop = ydepth[top], ydepth[n]
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
        # per column b of X_k: its backward chain, and where X's map at k
        # sends it (-1 for 0): arrow k, whose live columns no basis row
        # reaches, or for the loop block r2 = L A^X_{s->n}(col) along the chain
        chains = [_back_chain(xbwd, k, b) for b in range(cols)]
        step = xfwd[k]
        for a in range(rows):
            # the forward chain of (k + 1, a) in Y, as (t, row, its depth),
            # the row it reaches at n (top_r) and that of the loop part
            # (loop_r), each -1 where there is none
            reach, top_r, loop_r = [], -1, a
            if k < top:
                t, r = k + 1, a
                while r >= 0:
                    reach.append((t, r, ydepth[t][r]))
                    if t == top:
                        top_r = r
                        break
                    r = yfwd[t][r]
                    t += 1
                loop_r = yfwd[top][top_r] if top_r >= 0 else -1
            if top_r >= 0:
                top_d, top_l = ytop[top_r], yloop[top_r]
            if loop_r >= 0:
                loop_d, loop_l = ytop[loop_r], yloop[loop_r]
            for b in range(cols):
                vec = coords[off + a * cols + b]
                if not any(vec):
                    continue
                r2 = step[b]
                if k < top and r2 >= 0:
                    raise InternalInvariantError(
                        f"a basis row is nonzero at c_{k}[{a}][{b}], "
                        "a pivot of B^1 on a live X column"
                    )
                for s, col in chains[b]:
                    for t, r, d in reach:
                        if d > s:
                            put(fwd_pos[s][t - s - 1], r, col, vec)
                    if top_r >= 0 and top_d > s:
                        for j in range(top_l):
                            put(pair_pos[s][j], top_r, col, vec)
                    if loop_r < 0 or loop_l <= s:
                        continue
                    if r2 < 0:
                        put(loop_pos[s], loop_r, col, vec)
                        for i in range(loop_d):
                            put(pair_pos[i][s], loop_r, dx[i] + col, vec)
                    else:
                        neg = tuple(-e for e in vec)
                        for i in range(xtop[r2], loop_d):
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

    When dim Z^1 = rk B^1 it returns () after step 2, without step 3.
    Proof that step 3 would return () too: B^1 lies in Z^1, since the loop
    block of a coboundary, L_Y h - h L_X, meets the loop equation,
    L_Y (L_Y h - h L_X) + (L_Y h - h L_X) L_X = L_Y^2 h - h L_X^2 = 0, as
    L^2 = 0 on both sides, and the arrow blocks are free. Over the
    rationals a subspace of equal dimension is the whole space, so every
    cocycle lies in the span of B^1; reduced against the RREF of B^1 it is
    0 at every pivot of B^1, so it is 0. Step 3 would then eliminate zero
    rows, which can neither raise nor give a row. The +-1 pivots keep both
    dimensions at every p, so e = 0 at every prime.
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
    if len(cocycles) == b_rank:
        # dim Z^1 = rk B^1: e = 0 (proof above)
        return ()
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
    X or Y: their items, |Aut| shapes and column maps; the plan builds no
    raw sum and no dense matrix), the cocycle layout, the Ext^1 basis over
    the integers (ext_basis, from _ext_basis on the rows that
    _cocycle_system writes off the sides' column maps; _ext_classes
    reduces it mod p, and e = dim Ext^1(X, Y) is its length at every p,
    known before any class is visited), dim Hom(X, Y), summed over the two
    sides' (position, multiplicity) items from the rows of the hom matrix
    (_label_positions), and the split extension X + Y: its items, merged
    from the sides' in position order, as a sorted label tuple with its
    |Aut| shape, and its dimension vector. With e > 0, where every prime meets a nonzero class,
    it also holds their classifier (_middle_labels): base, mult(X + Y) as a
    vector over the label positions, and connecting, per distinct pattern
    of _connecting_patterns, the sum of its labels' columns of _c_inverse,
    by its nonzeros (label position, value): equal patterns, equal ranks.
    The entries of the patterns, flattened row by row in that order, are
    held once more as e integer vectors over the basis rows: columns[t]
    holds R(b_t), steps[t] the sum of R(b_s) over s >= t, and shapes
    gives each pattern's (offset, rows, columns) in them (_class_ranks).
    With e = 0 all five are ().

    A pattern holds R_L(b_t) for the rows b_t of ext_basis. The walk ranks
    R_L(c) for c = sum_t a_t b_t mod p as the rank of sum_t a_t R_L(b_t)
    mod p (_class_ranks). Proof: R_L is Z-linear in c
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
    dim Hom(X, Y) summed from the hom matrix, since ker delta = Hom(X, Y).
    The coboundaries that _cocycle_system reads off the column maps are the
    dense rows of hom_dim_raw entry for entry (proof there), so every side
    pair walked checks the path-rank table (hom_table) against the cocycle
    system of the tests' Hom oracle at run time.
    """

    def __init__(self, n: int, xs: tuple[IndecLabel, ...], ys: tuple[IndecLabel, ...]) -> None:
        pos = _label_positions(n)
        self.n = n
        self.xside, self.yside = x, y = _side(n, xs), _side(n, ys)
        self.hom_xy = sum(
            a * b * pos.hom[k][l] for k, a in x.items for l, b in y.items
        )
        self.blocks, loop_eqs, coboundaries = _cocycle_system(n, x, y)
        b_rank = sum(map(mul, x.dims, y.dims)) - self.hom_xy
        try:
            self.ext_basis = basis = _ext_basis(self.blocks, loop_eqs, coboundaries, b_rank)
            patterns = _connecting_patterns(x, y, self.blocks, basis) if basis else {}
        except (ArithmeticError, InternalInvariantError) as err:
            raise InternalInvariantError(
                f"Ext^1({multiset_to_str(xs)}, {multiset_to_str(ys)}): {err}"
            ) from err
        merged = dict(self.xside.items)
        for k, m in self.yside.items:
            merged[k] = merged.get(k, 0) + m
        split = tuple(sorted(merged.items()))
        self.split, self.split_aut = _labels_of(n, split), _aut_shape(n, split)
        self.dims = tuple(map(add, x.dims, y.dims))
        self.base = self.connecting = self.columns = self.steps = self.shapes = ()
        if self.ext_basis:
            base = [0] * len(pos.labels)
            for k, m in split:
                base[k] = m
            self.base = tuple(base)
            _, cols = _c_inverse(n)
            out: dict = {}
            for k, pat in patterns.items():
                col = out.setdefault(pat, {})
                for i, b in cols[k]:
                    col[i] = col.get(i, 0) + b
            self.connecting = tuple(
                (pat, tuple((i, b) for i, b in col.items() if b)) for pat, col in out.items()
            )
            shapes, off = [], 0
            for pat in out:
                shapes.append((off, len(pat), len(pat[0])))
                off += len(pat) * len(pat[0])
            self.shapes = tuple(shapes)
            flat = [v for pat in out for row in pat for v in row]
            self.columns = tuple(zip(*flat)) if flat else ((),) * len(self.ext_basis)
            steps = [self.columns[-1]]
            for col in reversed(self.columns[:-1]):
                steps.append(tuple(map(add, col, steps[-1])))
            self.steps = tuple(reversed(steps))


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
    RREF is unique, so that is the per-prime result, row for row. Where
    _ext_basis stops after step 2, at dim Z^1 = rk B^1, Z^1 = B^1 mod every
    p as well, and the per-prime result is empty too.

    The walk does not build these vectors: it names the class
    sum_t a_t b_t by its coefficients a (_nonzero_classes) and ranks its
    connecting matrices from those of the rows (_WalkPlan, _class_ranks).
    The tests glue middle terms from them.
    """
    return tuple(tuple(e % p for e in row) for row in plan.ext_basis)


def _nonzero_classes(e: int, p: int):
    # one coefficient vector a in F_p^e per line, the one whose first
    # nonzero entry is 1: the class sum_t a_t b_t over the rows of ext_basis
    for lead in range(e):
        for tail in product(range(p), repeat=e - lead - 1):
            yield (0,) * lead + (1,) + tail


def _class_ranks(plan: _WalkPlan, p: int):
    """rk R(c) over F_p for each pattern R of plan.connecting, at each class
    c = sum_t a_t b_t of _nonzero_classes(e, p), in its order: the rank of
    E(a) = sum_t a_t R(b_t) mod p, with E(a) held flat as plan.columns lays
    it out. A pattern of one row has rank 1 exactly when some entry is
    nonzero mod p.

    E(a) is not summed over all e coefficients at each class but updated
    from the class before. Proof: within one line block (one lead, the
    first nonzero coefficient, which is 1) the coefficients after the lead
    run in odometer order, the last fastest. Let k be the last position
    where a is nonzero. If k is the lead, a is the block's first class,
    whose E(a) is R(b_k) (plan.columns[k]). Otherwise the class before a
    has a_k - 1 at k and p - 1 at every later position, and agrees with a
    before k, so E(a) is its E plus R(b_k) - (p - 1) sum_{t>k} R(b_t),
    which is sum_{t>=k} R(b_t) = plan.steps[k] mod p. A new block begins
    exactly when a is 0 at the lead of the class before.
    """
    e = len(plan.ext_basis)
    lead = -1
    for a in _nonzero_classes(e, p):
        k = e - 1
        while not a[k]:
            k -= 1
        if lead < 0 or not a[lead]:
            lead = k
            entries = [v % p for v in plan.columns[k]]
        else:
            entries = [(v + w) % p for v, w in zip(entries, plan.steps[k])]
        ranks = []
        for off, rows, cols in plan.shapes:
            if rows == 1:
                ranks.append(int(any(entries[off : off + cols])))
            else:
                end = off + rows * cols
                ranks.append(matrix_rank([entries[r : r + cols] for r in range(off, end, cols)], p))
        yield tuple(ranks)


def _middle_labels(
    plan: _WalkPlan, ranks: tuple[int, ...]
) -> tuple[tuple[IndecLabel, ...], tuple]:
    # the middle term M of the classes with connecting ranks r(c), as a
    # sorted label tuple, and its |Aut| shape. mult(M) = mult(X + Y) - B r(c),
    # over the label positions: the profile of M is that of X + Y less r(c)
    # (_connecting_patterns), and B inverts profiles
    mult = list(plan.base)
    for r, (_, col) in zip(ranks, plan.connecting):
        if r:
            for i, b in col:
                mult[i] -= r * b
    items = _module_count(plan.n, mult, plan.dims)
    return _labels_of(plan.n, items), _aut_shape(plan.n, items)


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


# the most classes one Ext^1 walk may visit. A class costs about 25-30 us
# on a 2-vCPU Intel Xeon VM (Python 3.11.7), so the bound is about 3 s of
# walking. It keeps every indecomposable pair (e <= 2 for n <= 9: at most
# 99 classes for primes up to 97) and W1,1+W1,1+W1,1 by V2+U2,2+U2,2 at
# n = 2, p = 2 (e = 15, 32,768 classes, 0.8-1.0 s), and refuses that pair
# at p = 3 (7,174,454 classes)
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
    call. What depends on one side alone, its |Aut| shape and the column
    maps of its arrows and loop with their inverses and row depths, joined
    from its labels' (_label_maps), comes from _side, built once per side
    and shared by the plans that have it.

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
        for ranks in _class_ranks(plan, p):
            per_ranks[ranks] = per_ranks.get(ranks, 0) + p - 1
        # class counts per middle term, keyed by (middle term, its |Aut| shape)
        sizes = {(plan.split, plan.split_aut): 1}
        for ranks, size in per_ranks.items():
            middle = middles.get(ranks)
            if middle is None:
                middle = middles[ranks] = _middle_labels(plan, ranks)
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
