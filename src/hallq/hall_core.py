"""Hall numbers by exhaustive submodule enumeration, Hall products in the
isoclass basis from the middle terms of Ext^1, and composition-identity
checks, which read Hall products only (verify_hall_identity).

The public enumeration walks vertices 1..n depth first, growing each vertex
space over the image of the previous one. The counting engine used by
hall_number adds two layers on top: a hom-count prune that rejects
impossible (quotient, sub, total) triples before any enumeration, and
per-vertex rank screens that cut subtrees whose partial witness already
disagrees with the required summands. The screens cover every label's Hom
dimension, so the Hom profile decides the class, as in decompose, and every
choice that passes them is a witness (_count_witnesses). A search whose
size bound (_search_nodes) is too large is refused before it starts.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import CeilingError, HypothesisError
from .frozen import Frozen, set_field
from .gf import (
    SubspaceBasis,
    echelon_supersets,
    enumerate_subspaces,
    gaussian_binomial,
    mat_mul,
    mat_vec,
    matrix_rank,
    reduce_vector,
    row_reduce,
)
from .hom_decomp import (
    DecompositionMultiset,
    _label_positions,
    _path_matrices,
    hom_profiles,
    riedtmann_hall_numbers,
)
from .quiver_rep import (
    AlgebraContext,
    IndecLabel,
    Representation,
    SubmoduleWitness,
    check_label,
    check_relation,
    multiset_dims,
    multiset_to_str,
    raw_sum,
)

if TYPE_CHECKING:
    from fractions import Fraction

LabelSet = IndecLabel | Iterable[IndecLabel]


def as_multiset(obj: LabelSet, n: int) -> tuple[IndecLabel, ...]:
    """Normalize a label or label iterable to sorted form."""
    if isinstance(obj, IndecLabel):
        labels: tuple[IndecLabel, ...] = (obj,)
    else:
        labels = tuple(obj)
    for l in labels:
        if not isinstance(l, IndecLabel):
            raise TypeError(f"expected IndecLabel entries, got {l!r}")
        check_label(l, n)
    return tuple(sorted(labels, key=IndecLabel.sort_key))


def enumerate_submodules(m: Representation) -> Iterator[SubmoduleWitness]:
    """Yield every submodule of m exactly once.

    Depth first over vertices 1..n: vertex 1 ranges over all subspaces, each
    later vertex over subspaces containing the arrow image of the previous
    choice, and the last vertex keeps only loop-invariant spaces.
    """
    if not check_relation(m):
        raise ValueError("enumerate_submodules needs a valid representation")
    n, p = m.ctx.n, m.ctx.p
    loop = m.loop.entries
    chosen: list[SubspaceBasis] = [SubspaceBasis.zero(p, d) for d in m.dims]

    def rec(v: int, lower: SubspaceBasis) -> Iterator[SubmoduleWitness]:
        for space in enumerate_subspaces(m.dims[v], p, lower):
            rows = space.row_basis
            if v == n - 1:
                if not all(space.contains_vector(mat_vec(loop, vec, p)) for vec in rows):
                    continue
                chosen[v] = space
                yield SubmoduleWitness(m, tuple(chosen))
            else:
                chosen[v] = space
                arr = m.arrow[v].entries
                imgs = [mat_vec(arr, vec, p) for vec in rows]
                red, _, red_pivs = row_reduce(imgs, p, ncols=m.dims[v + 1])
                yield from rec(v + 1, SubspaceBasis(p, m.dims[v + 1], red, red_pivs))

    yield from rec(0, SubspaceBasis.zero(p, m.dims[0]))


# --- cached structural data ----------------------------------------------


@lru_cache(maxsize=None)
def _rank_screens(n: int, ms: tuple[IndecLabel, ...]):
    # Rank screens read from Hom dimensions (vertices counted from 1 here,
    # from 0 in the code). The projective at v is P_v = U(n,v). The path
    # v -> w and the loop after the path v -> n are maps P_w -> P_v and
    # P_n -> P_v, with cokernels W(v,w-1) and V(v). Applying Hom(-, M) to
    # P_w -> P_v -> coker -> 0 gives the exact sequence
    # 0 -> Hom(coker, M) -> M_v -> M_w, whose last map is the path map of M,
    # so rank(path v -> w on M) = dim M_v - dim Hom(W(v,w-1), M), and the
    # same with V(v) for the loop after the path to n. In the same way
    # U(i,j) is the cokernel of P_n -> P_i + P_j (_profile_raw), so the
    # pair rank rk[A_{i->n} | L A_{j->n}] is
    # dim M_i + dim M_j - dim Hom(U(i,j), M).
    dims = multiset_dims(ms, n)
    into = hom_profiles(n, ms)[0]
    pos = _label_positions(n)
    fwd = tuple(tuple(dims[v] - into[i] for i in row) for v, row in enumerate(pos.fwd))
    pair = tuple(
        tuple(dims[i] + dims[j] - into[k] for j, k in enumerate(row))
        for i, row in enumerate(pos.pair)
    )
    return dims, fwd, tuple(dims[v] - into[i] for v, i in enumerate(pos.loop)), pair


def _colspace(mat, nrows: int, ncols: int, p: int):
    # row basis of the column space, with pivots, as (rows, pivots, rank)
    cols = [tuple(mat[r][c] for r in range(nrows)) for c in range(ncols)]
    rows, rank, pivots = row_reduce(cols, p, ncols=nrows)
    return rows, pivots, rank


class _ModuleData(NamedTuple):
    dims: tuple[int, ...]
    arrows: tuple
    loop: tuple
    path: tuple
    loop_path: tuple
    col: tuple  # col[u][v] = (rows, pivots, rank) of im(path u -> v), u < v
    loop_col: tuple  # loop_col[u] over all u


@lru_cache(maxsize=256)
def _module_data(n: int, p: int, ms: tuple[IndecLabel, ...]) -> _ModuleData:
    raw = dims, arrows, loop = raw_sum(ms, n)
    path = _path_matrices(n, p, raw)
    loop_path = tuple(mat_mul(loop, row[n - 1], p, ncols=dims[v]) for v, row in enumerate(path))
    col = tuple(
        tuple(
            _colspace(path[u][v], dims[v], dims[u], p) if u < v else None
            for v in range(n)
        )
        for u in range(n)
    )
    loop_col = tuple(
        _colspace(loop_path[u], dims[n - 1], dims[u], p) for u in range(n)
    )
    return _ModuleData(dims, arrows, loop, tuple(map(tuple, path)), loop_path, col, loop_col)


class _SideSpec(NamedTuple):
    dims: tuple[int, ...]
    fwd: tuple
    loopfwd: tuple
    pairs: tuple  # pairs[v] = ((i, j, pair rank), ...) with max(i, j) = v


@lru_cache(maxsize=None)
def _side_spec(n: int, ms: tuple[IndecLabel, ...]) -> _SideSpec:
    # A pair (i, j) needs no screen of its own when i = n - 1 (0-based),
    # where A_{i->n} = 1 and the pair rank is dim M_n, or when the side's
    # rank of A_{i->n} or of L A_{j->n} is 0: those single ranks are
    # screened, and with one block 0 the pair rank is the other block's.
    dims, fwd, loopfwd, pair = _rank_screens(n, ms)
    pairs: list[list] = [[] for _ in range(n)]
    for i in range(n - 1):
        if fwd[i][-1]:
            for j in range(n):
                if loopfwd[j]:
                    pairs[max(i, j)].append((i, j, pair[i][j]))
    return _SideSpec(dims, fwd, loopfwd, tuple(map(tuple, pairs)))


# --- the counting engine ----------------------------------------------------


def _count_witnesses(n: int, p: int, md: _ModuleData, yspec: _SideSpec, xspec: _SideSpec) -> int:
    """The number of submodules S of M = md with S ~ Y and M/S ~ X, where
    ~ is isomorphism.

    The search chooses S vertex by vertex and keeps a choice only if it
    passes every rank screen: for S, the ranks of the path maps, of the
    loop after the path to n and of the pairs [A_{i->n} | L A_{j->n}]
    equal Y's; for M/S, the same ranks equal X's. Each rank of M/S is
    read in M: the image of a map into M_w / S_w is (C + S_w) / S_w, for
    C the column space of the map on M, so its rank is
    dim C + dim (S_w mod C) - dim S_w.

    Every choice that reaches the last vertex is a witness, with no
    classification at the leaf. S has Y's dimension vector by
    construction and M/S has M's minus Y's, which is X's (hall_number
    checks it). Every Hom dimension dim Hom(L, N) is a vertex dimension of
    N, or a sum of two, minus one of the screened ranks (_rank_screens;
    _profile_raw gives the presentations), so S has Y's Hom profile and
    M/S has X's. The hom-count matrix C[L][Y] = dim Hom(L, Y) is
    invertible (_c_inverse), so the profile h of a module fixes its
    multiplicities as C^{-1} h, and S ~ Y, M/S ~ X. Conversely a witness
    has the sides' ranks, since isomorphic modules have equal Hom
    dimensions. The pairs a side's spec leaves out are implied by its
    other screens (_side_spec).
    """
    dims_m = md.dims
    ky = yspec.dims
    count = 0
    # images of the chosen rows under the path to the last vertex and the
    # loop after it, per vertex, for Y's pair screens
    top_imgs: list = [None] * n
    loop_imgs: list = [None] * n
    # quotient-side screens at the last vertex: the column spaces of
    # L A_{u->n} and of X's screened pairs [A_{i->n} | L A_{j->n}] in M_n
    top_screens = [(md.loop_col[u], xspec.loopfwd[u]) for u in range(n)]
    for i, j, want in chain.from_iterable(xspec.pairs):
        rows, rank, pivs = row_reduce(
            [*md.col[i][n - 1][0], *md.loop_col[j][0]], p, ncols=dims_m[n - 1]
        )
        top_screens.append(((rows, pivs, rank), want))

    def rank_over(rows0, pivs0, rows) -> int:
        # rank of rows modulo the space spanned by the echelon rows0
        return matrix_rank([reduce_vector(vec, rows0, pivs0, p) for vec in rows], p)

    def screens_ok(v: int, rows) -> bool:
        # sub-side ranks anchored at v (depend only on this choice and the
        # choices below it)
        imgs = loop_imgs[v] = [mat_vec(md.loop_path[v], vec, p) for vec in rows]
        if matrix_rank(imgs, p) != yspec.loopfwd[v]:
            return False
        exp = yspec.fwd[v]
        for t in range(n - 2 - v, -1, -1):
            imgs = [mat_vec(md.path[v][v + 1 + t], vec, p) for vec in rows]
            if t == n - 2 - v:
                top_imgs[v] = imgs
            if matrix_rank(imgs, p) != exp[t]:
                return False
        for i, j, want in yspec.pairs[v]:
            if matrix_rank(top_imgs[i] + loop_imgs[j], p) != want:
                return False
        # quotient-side ranks into v
        kv = len(rows)
        for u in range(v):
            rows0, pivs0, r0 = md.col[u][v]
            if r0 + rank_over(rows0, pivs0, rows) != xspec.fwd[u][v - u - 1] + kv:
                return False
        if v == n - 1:
            for (rows0, pivs0, r0), want in top_screens:
                if r0 + rank_over(rows0, pivs0, rows) != want + kv:
                    return False
        return True

    def rec(v: int, lower_rows, lower_pivs) -> None:
        nonlocal count
        r = ky[v] - len(lower_rows)
        if r < 0:
            return
        last = v == n - 1
        for rows, pivs in echelon_supersets(dims_m[v], p, lower_rows, lower_pivs, r):
            if last and any(
                any(reduce_vector(mat_vec(md.loop, vec, p), rows, pivs, p)) for vec in rows
            ):
                continue
            if not screens_ok(v, rows):
                continue
            if last:
                count += 1
            else:
                imgs = [mat_vec(md.arrows[v], vec, p) for vec in rows]
                red, _, red_pivs = row_reduce(imgs, p, ncols=dims_m[v + 1])
                rec(v + 1, red, red_pivs)

    rec(0, (), ())
    return count


# the most subspaces one search of the counting engine may visit, by
# _search_nodes. Searches above 2*10^4 nodes cost 15-65 us per node on a
# 2-vCPU VM (Python 3.11; BENCH_engine_guard.json), so the bound is about
# 5-20 s of searching. It keeps every Tier-1 search (at most 33,672 nodes)
# and refuses the composites of U3,3+V3 by U3,3+U2,3 at n = 3, p = 5
# (2,558,558 nodes, 58-65 s each)
MAX_SEARCH_NODES = 3 * 10**5


def _search_nodes(n: int, p: int, ys: tuple[IndecLabel, ...], dm: tuple[int, ...]) -> int:
    """An upper bound on the subspaces (nodes) that echelon_supersets yields
    to _count_witnesses for a submodule Y = ys of a module with dims dm.

    Vertices count from 1 here, from 0 in the code; write k_1 = 0. At
    vertex v >= 2 the search extends the arrow image of a parent S_{v-1}
    that passed screens_ok at v - 1, so that image has the rank of the
    arrow Y_{v-1} -> Y_v, by the exact sequence of _rank_screens
    k_v = dim Y_{v-1} - dim Hom(W(v-1,v-1), Y). A parent thus has exactly
    [dim M_v - k_v, dim Y_v - k_v]_p children, the dim Y_v-spaces over its
    image, so level v has at most prod_{u<=v} of these factors and the
    search at most their sum over v. The factors are defined once
    dim Y <= dim M at each vertex, as k_v <= dim Y_v.
    """
    dy, fwd = _rank_screens(n, ys)[:2]
    ks = (0,) + tuple(row[0] for row in fwd[:-1])
    total, level = 0, 1
    for d, y, k in zip(dm, dy, ks):
        level *= gaussian_binomial(d - k, y - k, p)
        total += level
    return total


def triple_str(xs, ys, ms) -> str:
    return f"({multiset_to_str(xs)}; {multiset_to_str(ys)}; {multiset_to_str(ms)})"


def hall_number(x: LabelSet, y: LabelSet, m: LabelSet, ctx: AlgebraContext) -> int:
    """Number of submodules of M isomorphic to y with quotient isomorphic
    to x, counted over F_p by filtered exhaustive enumeration. After the
    dimension check, the empty sides and the hom prune, a search whose bound
    (_search_nodes) exceeds MAX_SEARCH_NODES raises CeilingError unstarted."""
    n, p = ctx.n, ctx.p
    xs = as_multiset(x, n)
    ys = as_multiset(y, n)
    ms = as_multiset(m, n)
    dm = multiset_dims(ms, n)
    dx = multiset_dims(xs, n)
    dy = multiset_dims(ys, n)
    if tuple(a + b for a, b in zip(dx, dy)) != dm:
        return 0
    if not ys:
        return int(xs == ms)
    if not xs:
        return int(ys == ms)
    (ty, sy), (tm, sm), (tx, sx) = (hom_profiles(n, s) for s in (ys, ms, xs))
    for i in range(len(tm)):
        if ty[i] > tm[i] or sx[i] > sm[i]:
            return 0
        if tm[i] > tx[i] + ty[i] or sm[i] > sx[i] + sy[i]:
            return 0
    nodes = _search_nodes(n, p, ys, dm)
    if nodes > MAX_SEARCH_NODES:
        raise CeilingError(
            f"the search for {triple_str(xs, ys, ms)} at p={p} could visit {nodes} "
            f"subspaces, above the bound {MAX_SEARCH_NODES}"
        )
    return _count_witnesses(
        n, p, _module_data(n, p, ms), _side_spec(n, ys), _side_spec(n, xs)
    )


def signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """Render (coefficient, body) pairs as 'a - b + c', where body already
    stands for |coefficient| times its term: the first term shows a sign
    only when negative, and no terms at all give '0'."""
    out = ""
    for c, body in terms:
        if not out:
            out = body if c > 0 else f"-{body}"
        else:
            out += f" + {body}" if c > 0 else f" - {body}"
    return out or "0"


class IsoClassCombo(Frozen):
    """Integer combination of isoclasses, sorted and zero-free: keyed by
    DecompositionMultiset for a Hall product, by IndecLabel for a bracket."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple[tuple[DecompositionMultiset | IndecLabel, int], ...]) -> None:
        set_field(self, "terms", terms)

    @classmethod
    def from_dict(cls, d: dict) -> IsoClassCombo:
        kept = [(key, c) for key, c in d.items() if c]
        kept.sort(key=lambda kc: kc[0].sort_key())
        return cls(tuple(kept))

    def coefficient(self, key: DecompositionMultiset | IndecLabel) -> int:
        for k, c in self.terms:
            if k == key:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __neg__(self) -> IsoClassCombo:
        return IsoClassCombo(tuple((k, -c) for k, c in self.terms))

    def __str__(self) -> str:
        return signed_sum(
            (c, str(k) if abs(c) == 1 else f"{abs(c)}*{k}") for k, c in self.terms
        )


def hall_product(n1: LabelSet, n2: LabelSet, ctx: AlgebraContext) -> IsoClassCombo:
    """[n1] . [n2] = sum over M of F^M_{n1,n2} [M].

    The M with a nonzero coefficient are the middle terms of
    Ext^1(n1, n2), and riedtmann_hall_numbers, at the one prime ctx.p,
    counts them all in one walk over 1 + (p^e - 1)/(p - 1) classes,
    e = dim Ext^1(n1, n2); a walk above its bound (MAX_WALK_CLASSES) raises
    CeilingError before it starts.
    """
    n = ctx.n
    counts = riedtmann_hall_numbers(as_multiset(n1, n), as_multiset(n2, n), n, (ctx.p,))[0]
    return IsoClassCombo.from_dict(
        {DecompositionMultiset.from_labels(m): c for m, c in counts.items()}
    )


class ExpansionCheck(NamedTuple):
    holds: bool
    lhs: IsoClassCombo
    rhs: IsoClassCombo


def _combine(scaled: Iterable[tuple[int | Fraction, IsoClassCombo]]) -> IsoClassCombo:
    # sum_k c_k P_k over (c_k, P_k)
    acc: dict = {}
    for c, prod in scaled:
        for key, coeff in prod.terms:
            acc[key] = acc.get(key, 0) + c * coeff
    return IsoClassCombo.from_dict(acc)


def verify_hall_identity(
    x: LabelSet,
    terms: Sequence[tuple[int | Fraction, LabelSet, LabelSet]],
    y: LabelSet,
    ctx: AlgebraContext,
) -> ExpansionCheck:
    """Check F^M_{X,Y} = sum_k c_k sum_Z F^M_{L_k,Z} F^Z_{R_k,Y} for every M
    at once, given that [X] = sum_k c_k [L_k] . [R_k] holds in the Hall
    algebra at this prime.

    The inner sum is the coefficient of M in [L_k] . ([R_k] . [Y]), so the
    check compares lhs = [X] . [Y] with rhs = sum_k c_k [L_k] . ([R_k] . [Y]),
    both from Ext^1-walk products (hall_product). A failure of the
    hypothesis raises HypothesisError; the conclusion is reported in the
    returned value. A term's right factor may be the empty multiset (the
    unit). Each product refuses above its walk's class bound with
    CeilingError.

    Given the hypothesis, associativity gives
    sum_k c_k [L_k]([R_k][Y]) = (sum_k c_k [L_k][R_k])[Y] = [X][Y], so the
    conclusion tests that the walk's products are associative: it walks
    the products L_k . Z of every composite Z of R_k . Y. It does not
    compare the walk with another counter; the differential tests against
    the counting engine and brute force do that.
    """
    n = ctx.n
    xs = as_multiset(x, n)
    ys = as_multiset(y, n)
    norm = [(c, as_multiset(left, n), as_multiset(right, n)) for c, left, right in terms if c]
    stated = _combine((c, hall_product(left, right, ctx)) for c, left, right in norm)
    if stated != IsoClassCombo.from_dict({DecompositionMultiset.from_labels(xs): 1}):
        raise HypothesisError(
            f"[{multiset_to_str(xs)}] does not equal the stated combination "
            f"of products at p={ctx.p}"
        )
    lhs = hall_product(xs, ys, ctx)
    rhs = _combine(
        (c * cz, hall_product(left, z.as_labels(), ctx))
        for c, left, right in norm
        for z, cz in hall_product(right, ys, ctx).terms
    )
    return ExpansionCheck(lhs == rhs, lhs, rhs)
