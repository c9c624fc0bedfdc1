"""Hom-space dimensions, isomorphism testing, decomposition of modules
into indecomposable summands via exact hom-count linear algebra, and Hall
numbers from the middle terms of extensions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from operator import add, mul
from typing import Iterable, Mapping

from .errors import InternalInvariantError
from .gf import mat_mul, matrix_rank, row_reduce, unit_pivot_rref
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


def _hom_equations(
    n: int,
    p: int,
    dx: tuple[int, ...],
    ax: tuple[tuple[tuple[int, ...], ...], ...],
    lx: tuple[tuple[int, ...], ...],
    dm: tuple[int, ...],
    am: tuple[tuple[tuple[int, ...], ...], ...],
    lm: tuple[tuple[int, ...], ...],
) -> tuple[list[list[int]], int]:
    # the linear system whose solutions are the module maps x -> m, and its
    # number of unknowns; entry (a, c) of f_v is unknown offsets[v] + a dx_v + c
    offsets = []
    total = 0
    for v in range(n):
        offsets.append(total)
        total += dm[v] * dx[v]
    rows: list[list[int]] = []
    if total == 0:
        return rows, 0

    def add_block(t_src: int, mat_x: tuple, mat_m: tuple, var_tgt: int) -> None:
        # equations f_tgt . mat_x = mat_m . f_src, one per (r, c)
        for r in range(dm[var_tgt]):
            mat_m_r = mat_m[r] if mat_m else ()
            for c in range(dx[t_src]):
                row = [0] * total
                hit = False
                base_tgt = offsets[var_tgt] + r * dx[var_tgt]
                for b in range(dx[var_tgt]):
                    coeff = mat_x[b][c] if mat_x else 0
                    if coeff:
                        row[base_tgt + b] = (row[base_tgt + b] + coeff) % p
                        hit = True
                for a in range(dm[t_src]):
                    coeff = mat_m_r[a]
                    if coeff:
                        idx = offsets[t_src] + a * dx[t_src] + c
                        row[idx] = (row[idx] - coeff) % p
                        hit = True
                if hit:
                    rows.append(row)

    for t in range(n - 1):
        add_block(t, ax[t], am[t], t + 1)
    add_block(n - 1, lx, lm, n - 1)
    return rows, total


def hom_dim_raw(n: int, p: int, dx, ax, lx, dm, am, lm) -> int:
    """hom_dim on raw entry tuples, for callers that avoid Representation."""
    rows, total = _hom_equations(n, p, dx, ax, lx, dm, am, lm)
    return total - matrix_rank(rows, p)


def raw_rep(rep: Representation) -> RawRep:
    """The entry tuples of a representation, as the raw kernels take them."""
    return rep.dims, tuple(a.entries for a in rep.arrow), rep.loop.entries


def hom_dim(x: Representation, m: Representation) -> int:
    """Dimension of the space of module maps x -> m.

    A map is one matrix f_v per vertex with f_{v+1} A^x_v = A^m_v f_v at
    every arrow and f_n L^x = L^m f_n at the loop; the count is the nullity
    of the stacked constraint system.
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

    The generic Hom system is solved over F_2; the table is the same over
    every F_p by the field-independence argument in _profile_raw. p is
    accepted and ignored, for callers of the old (n, p) signature
    (perfbench/make_reference.py).

    The fill also checks that _profile_raw of each label equals its column
    of the table, which decompose's correctness rests on, and raises
    InternalInvariantError if not.
    """
    probes = probe_reps(n)
    table = {
        (a, b): hom_dim_raw(n, 2, *ra, *rb)
        for a, ra in probes.items()
        for b, rb in probes.items()
    }
    for y, raw in probes.items():
        if _profile_raw(n, 2, raw) != tuple(table[(l, y)] for l in probes):
            raise InternalInvariantError(f"path-rank profile of {y} disagrees with hom_table")
    return table


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

    Field independence: every arrow and loop matrix of a canonical
    indecomposable has at most one nonzero entry in each column, and that
    entry is 1, so every product of them, and each block matrix above,
    does too. The column space of such a matrix is spanned by the unit
    vectors of its nonzero rows, so each rank is a count of nonzero rows
    and the same over every F_p. Hence hom_table does not depend on p, and
    nor does _c_inverse.
    """
    dims, arrows, loop = raw
    # paths[s][t] = A_{s->t} for 0-based vertices s <= t
    paths = []
    for s in range(n):
        d = dims[s]
        row = [()] * s + [tuple(tuple(int(r == c) for c in range(d)) for r in range(d))]
        for t in range(s + 1, n):
            row.append(mat_mul(arrows[t - 1], row[t - 1], p, ncols=d))
        paths.append(row)
    top = [paths[s][n - 1] for s in range(n)]
    loop_top = [mat_mul(loop, a, p, ncols=dims[s]) for s, a in enumerate(top)]
    out = []
    for label in all_labels(n):
        i = label.i - 1
        if label.kind == "W":
            out.append(dims[i] - matrix_rank(paths[i][label.j], p))
        elif label.kind == "V":
            out.append(dims[i] - matrix_rank(loop_top[i], p))
        else:
            j = label.j - 1
            joined = [a + b for a, b in zip(top[i], loop_top[j])]
            out.append(dims[i] + dims[j] - matrix_rank(joined, p))
    return tuple(out)


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


@dataclass(frozen=True)
class DecompositionMultiset:
    """Multiset of indecomposable summands, stored in canonical label order."""

    items: tuple[tuple[IndecLabel, int], ...]

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
    # It is integral for every n the tests build (2..6), with entries in
    # {-1, 0, 1}, which keeps the solve in integers. It is found over F_97,
    # lifted to [-48, 48] and accepted only if C . B = I over the integers;
    # a fractional or large inverse is an invariant breach
    labels = all_labels(n)
    table = hom_table(n)
    k, q = len(labels), 97
    c_rows = [[table[(x, y)] for y in labels] for x in labels]
    aug = [[e % q for e in row] + [int(r == c) for c in range(k)] for r, row in enumerate(c_rows)]
    red, _, pivots = row_reduce(aug, q)
    if pivots[:k] != tuple(range(k)):
        raise InternalInvariantError(f"hom-count matrix at n={n} is singular mod {q}")
    inv = tuple(tuple(x if x <= q // 2 else x - q for x in row[k:]) for row in red)
    cols = tuple(zip(*inv))
    for r, row in enumerate(c_rows):
        if any(sum(map(mul, row, col)) != int(r == c) for c, col in enumerate(cols)):
            raise InternalInvariantError(f"hom-count matrix at n={n} has no integer inverse")
    return inv


def _module_count(n: int, mult, dims: tuple[int, ...]) -> DecompositionMultiset:
    # the multiplicities mult over all labels as a multiset, checked to be a
    # module count with the dimension vector dims
    labels = all_labels(n)
    for l, v in zip(labels, mult):
        if v < 0:
            raise InternalInvariantError(
                f"hom profile produced multiplicity {v} for {l}; not a module count"
            )
    result = DecompositionMultiset.from_pairs(zip(labels, mult))
    if multiset_dims(result.as_labels(), n) != dims:
        raise InternalInvariantError("decomposition does not have the module's dimensions")
    return result


def _decompose_raw(n: int, p: int, raw: RawRep) -> DecompositionMultiset:
    h = _profile_raw(n, p, raw)
    return _module_count(n, [sum(map(mul, row, h)) for row in _c_inverse(n)], raw[0])


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
    - profile(Y) is column Y of C for every label Y (checked once per n
      when hom_table is filled).
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
    coefficient) over all blocks, zero rows dropped, so the cocycles Z^1
    are the kernel of the loop equations.
    """
    dx, ax, lx = x
    dy, ay, ly = y
    blocks = []
    total = 0
    for v in range(n):
        rows = dy[v + 1] if v < n - 1 else dy[v]
        blocks.append((rows, dx[v], total))
        total += rows * dx[v]
    lr, lc, loff = blocks[n - 1]
    loop_eqs = []
    for r in range(lr):
        for s in range(lc):
            eq = [0] * (lr * lc)
            for k in range(lr):
                eq[k * lc + s] += ly[r][k]
            for k in range(lc):
                eq[r * lc + k] += lx[k][s]
            if any(eq):
                loop_eqs.append(tuple((loff + i, e) for i, e in enumerate(eq) if e))
    coboundaries = []
    for v in range(n):
        for r in range(dy[v]):
            for s in range(dx[v]):
                z = [0] * total
                if v < n - 1:
                    rows, cols, off = blocks[v]
                    for a in range(rows):
                        z[off + a * cols + s] += ay[v][a][r]
                if v > 0:
                    rows, cols, off = blocks[v - 1]
                    for b in range(cols):
                        z[off + r * cols + b] -= ax[v - 1][s][b]
                if v == n - 1:
                    for a in range(lr):
                        z[loff + a * lc + s] += ly[a][r]
                    for b in range(lc):
                        z[loff + r * lc + b] -= lx[s][b]
                if any(z):
                    coboundaries.append(tuple((i, e) for i, e in enumerate(z) if e))
    return tuple(blocks), tuple(loop_eqs), tuple(coboundaries)


def _column_maps(n: int, raw: RawRep):
    # the path maps A_{s->t} (paths[s][t], s <= t) and the loop of a raw sum
    # as column maps: each column's one nonzero entry, a 1, as its row, or -1
    # for a zero column; composing the maps composes the matrices
    dims, arrows, loop = raw

    def as_map(mat, ncols: int) -> tuple[int, ...]:
        img = [-1] * ncols
        for r, row in enumerate(mat):
            for col, e in enumerate(row):
                if e:
                    if e != 1 or img[col] >= 0:
                        raise InternalInvariantError("a canonical matrix column is neither 0 nor a unit vector")
                    img[col] = r
        return tuple(img)

    steps = [as_map(a, dims[v]) for v, a in enumerate(arrows)]
    paths = []
    for s in range(n):
        row = [()] * s + [tuple(range(dims[s]))]
        for t in range(s + 1, n):
            row.append(_then(row[-1], steps[t - 1]))
        paths.append(row)
    return paths, as_map(loop, dims[n - 1])


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
    (_profile_raw; checked in _column_maps), and so do their products and
    the blocks of A_L(Y) and A_L(X). The column space of such a matrix is
    spanned by the unit vectors of its nonzero rows, so Q_L keeps the zero
    rows of A_L(Y). Its kernel is spanned by the unit vectors of its zero
    columns and by e_k - e_k' for each two columns k, k' that hit the same
    row: grouped by row, the nonzero columns are equal unit vectors and
    distinct rows give independent ones. Within one path map no two
    columns share a row, so the differences come from the concatenated U
    block only, pairing X_i with X_j.
    """
    dx, dy = x[0], y[0]
    px, lx = _column_maps(n, x)
    py, ly = _column_maps(n, y)
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
    The classifier (base, connecting) is built on the first nonzero class."""

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
    def connecting(self) -> tuple[tuple[tuple, tuple[int, ...]], ...]:
        # per distinct pattern of a label with dim Hom(L, X) > 0, the sum of
        # those labels' columns of _c_inverse: equal patterns, equal ranks
        n, labels = self.n, all_labels(self.n)
        live = [k for k, h in enumerate(hom_profiles(n, self.xs)[0]) if h]
        patterns = _connecting_patterns(n, [labels[k] for k in live], self.x, self.y, self.blocks)
        cols = tuple(zip(*_c_inverse(n)))
        out: dict = {}
        for k, pat in zip(live, patterns):
            if pat:
                col = out.get(pat)
                out[pat] = cols[k] if col is None else tuple(map(add, col, cols[k]))
        return tuple(out.items())


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
            mult = [m - r * b for m, b in zip(mult, col)]
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
    """
    n, p = ctx.n, ctx.p
    plan = _walk_plan(
        n, tuple(sorted(xs, key=IndecLabel.sort_key)), tuple(sorted(ys, key=IndecLabel.sort_key))
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
