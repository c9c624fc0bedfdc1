"""Hall numbers by exhaustive submodule enumeration, Hall products in the
isoclass basis from the middle terms of Ext^1, and product-expansion
identity checks.

The public enumeration walks vertices 1..n depth first, growing each vertex
space over the image of the previous one. The counting engine used by
hall_number adds three layers on top: a hom-count prune that rejects
impossible (quotient, sub, total) triples before any enumeration, per-vertex
rank screens that cut subtrees whose partial witness already disagrees with
the required summands, and a profile shortcut that accepts leaves without
classification whenever the rank profile pins the isomorphism class. A
search whose size bound (_search_nodes) is too large is refused before it starts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import CeilingError, HypothesisError, InternalInvariantError
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
    hom_dim_raw,
    hom_profiles,
    probe_reps,
    riedtmann_hall_numbers,
)
from .quiver_rep import (
    AlgebraContext,
    IndecLabel,
    Representation,
    SubmoduleWitness,
    all_labels,
    check_label,
    check_relation,
    multiset_dims,
    multiset_to_str,
    multisets_with_dims,
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


def _identity_entries(d: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


@lru_cache(maxsize=None)
def _screen_positions(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    # positions in all_labels(n) of W(v+1, w) for w > v, and of V(v+1)
    index = {l: i for i, l in enumerate(all_labels(n))}
    fwd = tuple(
        tuple(index[IndecLabel("W", v + 1, w)] for w in range(v + 1, n)) for v in range(n)
    )
    return fwd, tuple(index[IndecLabel("V", v + 1)] for v in range(n))


@lru_cache(maxsize=None)
def _rank_screens(n: int, ms: tuple[IndecLabel, ...]):
    # Rank screens read from Hom dimensions (vertices counted from 1 here,
    # from 0 in the code). The projective at v is P_v = U(n,v). The path
    # v -> w and the loop after the path v -> n are maps P_w -> P_v and
    # P_n -> P_v, with cokernels W(v,w-1) and V(v). Applying Hom(-, M) to
    # P_w -> P_v -> coker -> 0 gives the exact sequence
    # 0 -> Hom(coker, M) -> M_v -> M_w, whose last map is the path map of M,
    # so rank(path v -> w on M) = dim M_v - dim Hom(W(v,w-1), M), and the
    # same with V(v) for the loop after the path to n.
    dims = multiset_dims(ms, n)
    into = hom_profiles(n, ms)[0]
    fwd_pos, loop_pos = _screen_positions(n)
    fwd = tuple(tuple(dims[v] - into[i] for i in row) for v, row in enumerate(fwd_pos))
    return dims, fwd, tuple(dims[v] - into[i] for v, i in enumerate(loop_pos))


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
    dims, arrows, loop = raw_sum(ms, n)
    # path[v][w] = composite matrix vertex v -> w, w >= v
    path = [[None] * n for _ in range(n)]
    for v in range(n):
        path[v][v] = _identity_entries(dims[v])
        for w in range(v + 1, n):
            path[v][w] = mat_mul(arrows[w - 1], path[v][w - 1], p, ncols=dims[v])
    loop_path = tuple(mat_mul(loop, path[v][n - 1], p, ncols=dims[v]) for v in range(n))
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
    ms: tuple[IndecLabel, ...]
    dims: tuple[int, ...]
    fwd: tuple
    loopfwd: tuple
    auto: bool  # rank profile alone pins the class among equal-dims multisets
    discriminators: tuple  # ((probe_raw, expected_hom), ...) when not auto


@lru_cache(maxsize=None)
def _side_spec(n: int, ms: tuple[IndecLabel, ...]) -> _SideSpec:
    screens = dims, fwd, loopfwd = _rank_screens(n, ms)
    rivals = [
        alt
        for alt in multisets_with_dims(n, dims)
        if alt != ms and _rank_screens(n, alt) == screens
    ]
    if not rivals:
        return _SideSpec(ms, dims, fwd, loopfwd, True, ())
    labels = all_labels(n)
    into = hom_profiles(n, ms)[0]
    discs: set[int] = set()
    for alt in rivals:
        other = hom_profiles(n, alt)[0]
        probe = next(
            (i for i, l in enumerate(labels) if l.kind == "U" and into[i] != other[i]), None
        )
        if probe is None:
            # cannot happen: the hom-count matrix separates isoclasses
            raise InternalInvariantError(f"no separating hom count for {ms} vs {alt}")
        discs.add(probe)
    probes = probe_reps(n)
    pack = tuple((probes[labels[i]], into[i]) for i in sorted(discs))
    return _SideSpec(ms, dims, fwd, loopfwd, False, pack)


# --- the counting engine ----------------------------------------------------


def _count_witnesses(n: int, p: int, md: _ModuleData, yspec: _SideSpec, xspec: _SideSpec) -> int:
    dims_m = md.dims
    ky = yspec.dims
    count = 0
    chosen_rows: list = [None] * n
    chosen_pivs: list = [None] * n

    def image_rank(mat, rows) -> int:
        return matrix_rank([mat_vec(mat, vec, p) for vec in rows], p)

    def rank_over(rows0, pivs0, rows) -> int:
        # rank of rows modulo the space spanned by the echelon rows0
        return matrix_rank([reduce_vector(vec, rows0, pivs0, p) for vec in rows], p)

    def screens_ok(v: int, rows) -> bool:
        # sub-side ranks anchored at v (depend only on this choice)
        if image_rank(md.loop_path[v], rows) != yspec.loopfwd[v]:
            return False
        exp = yspec.fwd[v]
        for t in range(n - 2 - v, -1, -1):
            if image_rank(md.path[v][v + 1 + t], rows) != exp[t]:
                return False
        # quotient-side ranks into v
        kv = len(rows)
        for u in range(v):
            rows0, pivs0, r0 = md.col[u][v]
            want = xspec.fwd[u][v - u - 1] + kv
            if r0 + rank_over(rows0, pivs0, rows) != want:
                return False
        if v == n - 1:
            for u in range(n):
                rows0, pivs0, r0 = md.loop_col[u]
                want = xspec.loopfwd[u] + kv
                if r0 + rank_over(rows0, pivs0, rows) != want:
                    return False
        return True

    def sub_matrices():
        arrows = []
        for v in range(n - 1):
            cols = []
            for vec in chosen_rows[v]:
                img = mat_vec(md.arrows[v], vec, p)
                cols.append(tuple(img[piv] for piv in chosen_pivs[v + 1]))
            arrows.append(
                tuple(zip(*cols)) if cols else tuple(() for _ in range(ky[v + 1]))
            )
        cols = []
        for vec in chosen_rows[n - 1]:
            img = mat_vec(md.loop, vec, p)
            cols.append(tuple(img[piv] for piv in chosen_pivs[n - 1]))
        loop = tuple(zip(*cols)) if cols else tuple(() for _ in range(ky[n - 1]))
        return tuple(arrows), loop

    def quot_matrices():
        compl = [
            [c for c in range(dims_m[v]) if c not in set(chosen_pivs[v])]
            for v in range(n)
        ]

        def induced(mat, v_src, v_tgt):
            cols = []
            t_rows = chosen_rows[v_tgt]
            t_pivs = chosen_pivs[v_tgt]
            for c in compl[v_src]:
                img = reduce_vector([mrow[c] for mrow in mat], t_rows, t_pivs, p)
                cols.append(tuple(img[c2] for c2 in compl[v_tgt]))
            return (
                tuple(zip(*cols))
                if cols
                else tuple(() for _ in range(len(compl[v_tgt])))
            )

        dims_q = tuple(len(compl[v]) for v in range(n))
        arrows = tuple(induced(md.arrows[v], v, v + 1) for v in range(n - 1))
        loop = induced(md.loop, n - 1, n - 1)
        return dims_q, arrows, loop

    def leaf_ok() -> bool:
        if not yspec.auto:
            arrows_s, loop_s = sub_matrices()
            for (pd, pa, pl), expect in yspec.discriminators:
                if hom_dim_raw(n, p, pd, pa, pl, ky, arrows_s, loop_s) != expect:
                    return False
        if not xspec.auto:
            dims_q, arrows_q, loop_q = quot_matrices()
            for (pd, pa, pl), expect in xspec.discriminators:
                if hom_dim_raw(n, p, pd, pa, pl, dims_q, arrows_q, loop_q) != expect:
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
            chosen_rows[v] = rows
            chosen_pivs[v] = pivs
            if last:
                if leaf_ok():
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
    dy, fwd, _ = _rank_screens(n, ys)
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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.terms,))

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

    def as_dict(self) -> dict:
        return dict(self.terms)

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
    Ext^1(n1, n2), and riedtmann_hall_numbers counts them all in one walk
    over 1 + (p^e - 1)/(p - 1) classes, e = dim Ext^1(n1, n2); a walk
    above its bound (MAX_WALK_CLASSES) raises CeilingError before it starts.
    """
    n = ctx.n
    counts = riedtmann_hall_numbers(as_multiset(n1, n), as_multiset(n2, n), ctx)
    return IsoClassCombo.from_dict(
        {DecompositionMultiset.from_labels(m): c for m, c in counts.items()}
    )


class ExpansionCheck(NamedTuple):
    holds: bool
    lhs: int
    rhs: Fraction


def verify_hall_identity(
    x: LabelSet,
    terms: Sequence[tuple[int | Fraction, LabelSet, LabelSet]],
    y: LabelSet,
    m: LabelSet,
    ctx: AlgebraContext,
) -> ExpansionCheck:
    """Check F^M_{X,Y} = sum_k c_k sum_Z F^M_{L_k,Z} F^Z_{R_k,Y} given that
    [X] = sum_k c_k [L_k] . [R_k] holds in the Hall algebra at this prime.

    A failure of the hypothesis raises HypothesisError; the conclusion is
    reported in the returned value. A term's right factor may be the empty
    multiset (the unit), for which the inner sum collapses to F^M_{L_k,Y}.
    Each count refuses above its search bound and each product above its
    walk's class bound, with CeilingError.
    """
    # imported here: fractions loads decimal, about a quarter of the
    # package's import time on Python 3.11, and no other code needs it
    from fractions import Fraction

    n = ctx.n
    xs = as_multiset(x, n)
    ys = as_multiset(y, n)
    ms = as_multiset(m, n)
    norm = [
        (Fraction(c), as_multiset(left, n), as_multiset(right, n))
        for c, left, right in terms
    ]
    combo: dict[DecompositionMultiset, Fraction] = {}
    for c, left, right in norm:
        if c == 0:
            continue
        prod = hall_product(left, right, ctx)
        for key, coeff in prod.terms:
            combo[key] = combo.get(key, Fraction(0)) + c * coeff
    combo = {k: v for k, v in combo.items() if v}
    want = {DecompositionMultiset.from_labels(xs): Fraction(1)}
    if combo != want:
        raise HypothesisError(
            f"[{multiset_to_str(xs)}] does not equal the stated combination "
            f"of products at p={ctx.p}"
        )
    lhs = hall_number(xs, ys, ms, ctx)
    dm = multiset_dims(ms, n)
    rhs = Fraction(0)
    for c, left, right in norm:
        if c == 0:
            continue
        dl = multiset_dims(left, n)
        z_dims = tuple(a - b for a, b in zip(dm, dl))
        if any(d < 0 for d in z_dims):
            continue
        for z in multisets_with_dims(n, z_dims):
            f1 = hall_number(left, z, ms, ctx)
            if not f1:
                continue
            f2 = hall_number(right, ys, z, ctx)
            if f2:
                rhs += c * f1 * f2
    return ExpansionCheck(Fraction(lhs) == rhs, lhs, rhs)
