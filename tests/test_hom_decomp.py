from itertools import combinations_with_replacement, groupby, product
from operator import add, mul
from types import SimpleNamespace

import pytest

from hallq import hom_decomp
from hallq.errors import CeilingError, InternalInvariantError
from hallq import gf
from hallq.gf import first_primes, mat_mul, matrix_rank, null_space, reduce_vector, row_reduce
from hallq.hall_core import enumerate_submodules, hall_number, hall_product
from hallq.lie import build_bracket_table
from hallq.hom_decomp import (
    SIDE_CACHE_SIZE,
    DecompositionMultiset,
    _aut_order,
    _aut_shape,
    _c_inverse,
    _class_ranks,
    _coboundaries,
    _cocycle_blocks,
    _cocycle_system,
    _column_steps,
    _decompose_raw,
    _ext_classes,
    _image_masks,
    _label_maps,
    _loop_row,
    _middle_labels,
    _middle_term,
    _nonzero_classes,
    _profile_raw,
    _WalkPlan,
    _side,
    decompose,
    hom_dim,
    hom_dim_raw,
    hom_profiles,
    hom_table,
    raw_rep,
    riedtmann_hall_numbers,
)
from hallq.quiver_rep import (
    AlgebraContext,
    IndecLabel,
    all_labels,
    degree_table,
    direct_sum,
    label_dims,
    make_indec,
    multiset_dims,
    multisets_with_dims,
    raw_sum,
    rep_of_multiset,
    simple,
    submodule_and_quotient,
    zero_rep,
)


def test_hom_between_simples():
    ctx = AlgebraContext(3, 2)
    simples = [make_indec(simple(i, ctx), ctx) for i in (1, 2, 3)]
    for a in range(3):
        for b in range(3):
            assert hom_dim(simples[a], simples[b]) == (1 if a == b else 0)


def test_hom_forced_zero_by_arrow():
    ctx = AlgebraContext(3, 2)
    w11 = make_indec(IndecLabel("W", 1, 1), ctx)
    w12 = make_indec(IndecLabel("W", 1, 2), ctx)
    assert hom_dim(w11, w12) == 0
    # the reverse direction projects onto the start of the interval
    assert hom_dim(w12, w11) == 1


def test_hom_nested_v_modules():
    # V2 sits inside V1, not the other way around
    ctx = AlgebraContext(2, 2)
    v1 = make_indec(IndecLabel("V", 1), ctx)
    v2 = make_indec(IndecLabel("V", 2), ctx)
    assert hom_dim(v2, v1) == 1
    assert hom_dim(v1, v2) == 0


def test_hom_context_mismatch():
    a = make_indec(IndecLabel("V", 1), AlgebraContext(2, 2))
    b = make_indec(IndecLabel("V", 1), AlgebraContext(2, 3))
    with pytest.raises(ValueError):
        hom_dim(a, b)


def test_hom_additive_in_target(rng):
    for _ in range(15):
        n = rng.choice([2, 3])
        p = rng.choice([2, 3])
        ctx = AlgebraContext(n, p)
        labels = all_labels(n)
        x = make_indec(rng.choice(labels), ctx)
        m1 = rep_of_multiset([rng.choice(labels)], ctx)
        m2 = rep_of_multiset([rng.choice(labels), rng.choice(labels)], ctx)
        assert hom_dim(x, direct_sum(m1, m2)) == hom_dim(x, m1) + hom_dim(x, m2)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3])
def test_hom_profiles_match_linear_algebra(n, p):
    # hom_profiles sums hom_table entries over summands; the oracle solves
    # the Hom linear systems into and out of the direct sum itself, for
    # every multiset of total dimension <= 5, the empty one included
    ctx = AlgebraContext(n, p)
    indecs = [make_indec(l, ctx) for l in all_labels(n)]
    for dims in product(range(6), repeat=n):
        if sum(dims) > 5:
            continue
        for ms in multisets_with_dims(n, dims):
            rep = rep_of_multiset(ms, ctx)
            into, out_of = hom_profiles(n, ms)
            assert into == tuple(hom_dim(x, rep) for x in indecs), ms
            assert out_of == tuple(hom_dim(rep, x) for x in indecs), ms


def _random_modules(rng, n, p, extensions, sums):
    # raw middle terms of random nonsplit extensions 0 -> Y -> M -> X -> 0,
    # X and Y sums of one or two labels, then raw sums of one to three labels
    ctx = AlgebraContext(n, p)
    labels = all_labels(n)
    out = []
    for _ in range(50 * extensions):
        if len(out) == extensions:
            break
        xs, ys = (
            tuple(sorted(rng.choices(labels, k=rng.randint(1, 2)), key=IndecLabel.sort_key))
            for _ in range(2)
        )
        plan = _WalkPlan(n, xs, ys)
        reps = _ext_classes(plan, p)
        coeffs = [rng.randrange(p) for _ in reps]
        if any(coeffs):
            c = [sum(map(mul, coeffs, col)) % p for col in zip(*reps)]
            out.append(_middle_term(n, raw_sum(xs, n), raw_sum(ys, n), plan.blocks, c))
    assert len(out) == extensions
    for _ in range(sums):
        out.append(raw_rep(rep_of_multiset(rng.choices(labels, k=rng.randint(1, 3)), ctx)))
    return out


def _dense_calls(monkeypatch) -> list:
    # one entry per _profile_raw call that takes the dense branch
    calls = []
    real = hom_decomp._path_matrices
    monkeypatch.setattr(hom_decomp, "_path_matrices", lambda *a: calls.append(1) or real(*a))
    return calls


def test_path_profile_matches_hom_systems(rng, monkeypatch):
    # the path-rank kernel against the coboundary rank of one cocycle
    # system per label, on both branches: raw sums have unit columns and
    # are counted, glued middle terms with an entry other than 0 or 1 are
    # eliminated
    dense = _dense_calls(monkeypatch)
    taken = {"columns": 0, "dense": 0}
    for n in range(2, 7):
        for p in (2, 3, 5, 7):
            probes = [raw_sum((l,), n) for l in all_labels(n)]
            glued = 8
            for k, m in enumerate(_random_modules(rng, n, p, extensions=glued, sums=4)):
                before = len(dense)
                got = _profile_raw(n, p, m)
                branch = "dense" if len(dense) > before else "columns"
                taken[branch] += 1
                if k >= glued:
                    assert branch == "columns", (n, p, m)
                elif any(e > 1 for mat in (*m[1], m[2]) for row in mat for e in row):
                    assert branch == "dense", (n, p, m)
                want = tuple(hom_dim_raw(n, p, *probe, *m) for probe in probes)
                assert got == want, (n, p, m)
    assert taken["columns"] >= 80 and taken["dense"] >= 80, taken


def _scaled(raw, v, p):
    # raw with its coordinates at vertex v doubled, an isomorphic module:
    # arrows into v times 2, arrows out of v times 1/2, the loop unchanged
    dims, arrows, loop = raw
    half = pow(2, -1, p)
    arrows = list(arrows)
    if v > 0:
        arrows[v - 1] = tuple(tuple(2 * e % p for e in row) for row in arrows[v - 1])
    if v < len(dims) - 1:
        arrows[v] = tuple(tuple(half * e % p for e in row) for row in arrows[v])
    return dims, tuple(arrows), loop


@pytest.mark.parametrize("p", [3, 5])
def test_path_profile_of_a_rescaled_sum_takes_the_dense_branch(monkeypatch, p):
    # an isomorphic copy of a canonical sum whose arrow entries are 2 and
    # 1/2 at one vertex: the check sends it to gf, and the profile is the
    # canonical sum's
    n = 3
    labels = (IndecLabel("U", 1, 2), IndecLabel("W", 1, 2), IndecLabel("V", 2))
    raw = raw_rep(rep_of_multiset(labels, AlgebraContext(n, p)))
    dense = _dense_calls(monkeypatch)
    want = _profile_raw(n, p, raw)
    assert dense == []
    scaled = _scaled(raw, 1, p)
    got = _profile_raw(n, p, scaled)
    assert dense == [1]
    assert got == want
    assert _decompose_raw(n, p, scaled) == DecompositionMultiset.from_labels(labels)


def _unit_column_module(rng, n):
    # a raw module whose arrows and loop have only 0 and unit-vector
    # columns, drawn so that columns collide: each column of an arrow hits
    # a random row of the next vertex or none; the loop sends each column
    # outside a random set of target rows to a target or to 0, and each
    # target to 0, so loop^2 = 0
    dims = tuple(rng.randint(0, 4 if v < n - 1 else 5) for v in range(n))

    def matrix(step, rows):
        return tuple(tuple(int(r == s) for s in step) for r in range(rows))

    steps = [[rng.randrange(-1, dims[v + 1]) for _ in range(dims[v])] for v in range(n - 1)]
    d = dims[-1]
    targets = rng.sample(range(d), rng.randint(0, d // 2))
    steps.append([-1 if c in targets else rng.choice([-1, *targets, *targets]) for c in range(d)])
    arrows = tuple(matrix(step, dims[v + 1]) for v, step in enumerate(steps[:-1]))
    return (dims, arrows, matrix(steps[-1], d)), steps


def test_path_profile_counts_distinct_rows_when_columns_collide(rng, monkeypatch):
    # raw sums never send two columns of one arrow, or of the loop, to one
    # row; here they do, and some columns are 0: the column branch must
    # count the distinct rows an image hits, which hom_dim_raw checks for
    # every label
    dense = _dense_calls(monkeypatch)
    seen = {"arrow": 0, "loop": 0, "zero": 0}
    for n in range(2, 6):
        probes = [raw_sum((l,), n) for l in all_labels(n)]
        for p in (2, 3):
            for _ in range(15):
                m, steps = _unit_column_module(rng, n)
                loop = m[2]
                assert not any(map(any, mat_mul(loop, loop, p, ncols=len(loop)))), m
                for kind, step in [*(("arrow", s) for s in steps[:-1]), ("loop", steps[-1])]:
                    hit = [r for r in step if r >= 0]
                    seen[kind] += len(hit) > len(set(hit))
                    seen["zero"] += -1 in step
                got = _profile_raw(n, p, m)
                want = tuple(hom_dim_raw(n, p, *probe, *m) for probe in probes)
                assert got == want, (n, p, m)
    assert dense == []
    assert min(seen.values()) >= 10, seen


def _module_maps(n, p, x, m):
    # the number of tuples of vertex maps x_v -> m_v, every one enumerated,
    # that commute with the arrows and the loop
    (dx, ax, lx), (dm, am, lm) = x, m
    per_vertex = [
        [
            tuple(tuple(flat[a * dx[v] : (a + 1) * dx[v]]) for a in range(dm[v]))
            for flat in product(range(p), repeat=dm[v] * dx[v])
        ]
        for v in range(n)
    ]
    squares = [(v + 1, ax[v], am[v], v) for v in range(n - 1)] + [(n - 1, lx, lm, n - 1)]
    return sum(
        all(
            mat_mul(fs[t], a_x, p, ncols=dx[s]) == mat_mul(a_m, fs[s], p, ncols=dx[s])
            for t, a_x, a_m, s in squares
        )
        for fs in product(*per_vertex)
    )


def test_hom_dim_counts_module_maps(rng):
    # p^hom_dim_raw against brute force, on up to 15 ordered pairs per n and
    # p of glued middle terms and raw sums with sum_v dim x_v dim m_v <= 8
    compared = nonzero = 0
    for n in (2, 3):
        for p in (2, 3):
            modules = _random_modules(rng, n, p, extensions=10, sums=10)
            pairs = [(x, m) for x in modules for m in modules if sum(map(mul, x[0], m[0])) <= 8]
            for x, m in rng.sample(pairs, min(15, len(pairs))):
                e = hom_dim_raw(n, p, *x, *m)
                assert _module_maps(n, p, x, m) == p**e, (n, p, x, m)
                compared += 1
                nonzero += e > 0
    assert compared >= 40 and nonzero >= 20, (compared, nonzero)


def test_hom_table_agrees_with_direct_computation():
    n, p = 2, 3
    ctx = AlgebraContext(n, p)
    table = hom_table(n)
    for a in all_labels(n):
        for b in all_labels(n):
            assert table[(a, b)] == hom_dim(make_indec(a, ctx), make_indec(b, ctx))


def test_is_iso_basics():
    ctx = AlgebraContext(3, 2)
    m = rep_of_multiset((IndecLabel("U", 2, 1), IndecLabel("W", 1, 1)), ctx)
    assert decompose(m).as_labels() == (IndecLabel("W", 1, 1), IndecLabel("U", 2, 1))
    v1 = make_indec(IndecLabel("V", 1), ctx)
    w = make_indec(IndecLabel("W", 1, 2), ctx)
    assert decompose(v1) != decompose(w)
    a = make_indec(IndecLabel("U", 1, 2), ctx)
    b = make_indec(IndecLabel("V", 3), ctx)
    assert decompose(direct_sum(a, b)) == decompose(direct_sum(b, a))


def test_labels_pairwise_non_isomorphic():
    for n in (2, 3):
        ctx = AlgebraContext(n, 2)
        decomps = [decompose(make_indec(l, ctx)) for l in all_labels(n)]
        for i in range(len(decomps)):
            for j in range(i + 1, len(decomps)):
                assert decomps[i] != decomps[j]


def _dense(sparse, k):
    # a k x k matrix from its rows by their nonzeros, each checked to be
    # nonzero and in column order
    out = [[0] * k for _ in range(k)]
    for r, entries in enumerate(sparse):
        assert [c for c, _ in entries] == sorted(c for c, _ in entries)
        for c, e in entries:
            assert e != 0
            out[r][c] = e
    return [tuple(row) for row in out]


def test_hom_count_matrix_invertible():
    # the integer RREF of [C | I] gives the inverse over the integers
    for n in range(2, 9):
        labels = all_labels(n)
        table = hom_table(n)
        inv = _dense(_c_inverse(n)[0], len(labels))
        for x in labels:
            for z, col in zip(labels, zip(*inv)):
                got = sum(table[(x, y)] * b for y, b in zip(labels, col))
                assert got == int(x == z), (n, x, z)


def test_sparse_c_inverse_matches_dense():
    # rows and columns by their nonzeros, each in index order, rebuild the
    # same dense inverse; no column has more than 4 nonzeros
    for n in range(2, 9):
        rows, cols = _c_inverse(n)
        k = len(all_labels(n))
        assert len(rows) == len(cols) == k, n
        assert _dense(cols, k) == list(zip(*_dense(rows, k))), n
        assert max(len(col) for col in cols) <= 4, n


@pytest.mark.parametrize(
    "corner, message",
    [(((2, 0), (0, 1)), "has no integer inverse"), (((1, 1), (1, 1)), "singular")],
    ids=["two-on-diagonal", "singular"],
)
def test_hom_count_inverse_rejects_non_unimodular(monkeypatch, corner, message):
    # the identity with its top-left 2x2 block replaced: a 2 on the
    # diagonal inverts over F_97 but not over the integers
    k = len(all_labels(2))
    fake = [[int(r == c) for c in range(k)] for r in range(k)]
    for (r, c), v in zip(product(range(2), repeat=2), (e for row in corner for e in row)):
        fake[r][c] = v
    monkeypatch.setattr(hom_decomp, "_label_positions", lambda n: SimpleNamespace(hom=fake))
    _c_inverse.cache_clear()
    try:
        with pytest.raises(InternalInvariantError, match=message):
            _c_inverse(2)
    finally:
        _c_inverse.cache_clear()


def test_hom_count_inverse_checks_c_times_b(monkeypatch):
    # an elimination with the right pivots but the first row of B negated:
    # only the C . B = I check can tell
    real = gf.unit_pivot_rref

    def negated(rows):
        red, pivots = real(rows)
        k = len(pivots)
        return (tuple((c, -e if c >= k else e) for c, e in red[0]), *red[1:]), pivots

    monkeypatch.setattr(hom_decomp, "unit_pivot_rref", negated)
    _c_inverse.cache_clear()
    try:
        with pytest.raises(InternalInvariantError, match="has no integer inverse"):
            _c_inverse(2)
    finally:
        _c_inverse.cache_clear()


def test_decompose_rejects_a_profile_of_other_dims(monkeypatch):
    # a profile that decodes to W1,1, handed in for the module V3
    n = 3
    _c_inverse(n)  # fill the tables before _profile_raw is patched
    h = _profile_raw(n, 2, raw_sum((IndecLabel("W", 1, 1),), n))
    monkeypatch.setattr(hom_decomp, "_profile_raw", lambda n, p, raw: h)
    with pytest.raises(InternalInvariantError, match="dimensions"):
        _decompose_raw(n, 2, raw_sum((IndecLabel("V", 3),), n))


def test_side_maps_match_the_dense_reading(rng):
    # fwd is the column maps read off the side's raw sum (_column_steps),
    # bwd their inverse, and depth[t][r] <= s exactly when bit r of the
    # s -> t mask of _image_masks is set; likewise depth[n] for the loop
    # tops, and the pair masks from the two. Every one-label side, and
    # seeded sides of two and three summands, repeats included
    for n in range(2, 6):
        labels = all_labels(n)
        sides = [(l,) for l in labels] + [(l, l) for l in rng.sample(labels, 3)]
        sides += [
            tuple(sorted(rng.choices(labels, k=k), key=IndecLabel.sort_key))
            for k in (2, 3)
            for _ in range(15)
        ]
        for side_labels in sides:
            side = hom_decomp._Side(n, side_labels)
            raw = raw_sum(side_labels, n)
            steps = _column_steps(n, raw)
            assert side.dims == raw[0] and list(side.fwd) == steps, side_labels
            for v, (f, b) in enumerate(zip(side.fwd, side.bwd)):
                assert len(b) == raw[0][min(v + 1, n - 1)], side_labels
                assert b == tuple(f.index(r) if r in f else -1 for r in range(len(b))), side_labels
            masks = _image_masks(n, raw[0], steps)
            top, loop = side.depth[n - 1], side.depth[n]

            def rows(depths, s):
                return sum(1 << r for r, d in enumerate(depths) if d <= s)

            for s in range(n):
                for t in range(s, n):
                    assert masks[s * n + t] == rows(side.depth[t], s), (side_labels, s, t)
                assert masks[n * n + s] == rows(loop, s), (side_labels, s)
                for j in range(n):
                    pair = sum(1 << r for r in range(len(top)) if top[r] <= s or loop[r] <= j)
                    assert masks[s * n + n - 1] | masks[n * n + j] == pair, (side_labels, s, j)
        # a one-label side holds its label's maps, not a copy
        x = labels[-1]
        assert hom_decomp._Side(n, (x,)).bwd is _label_maps(x, n)[2]


def _dense_cocycle_system(n, x, y):
    # _cocycle_system read off the dense matrices of raw sums x and y: the
    # loop equations from _loop_row, the coboundaries from _coboundaries
    blocks = _cocycle_blocks(n, x[0], y[0])
    loop = lr, lc, _ = blocks[-1]
    lx_cols = tuple(zip(*x[2]))
    loop_eqs = []
    for r in range(lr):
        for s in range(lc):
            eq = _loop_row(loop, r, s, y[2][r], lx_cols[s])
            if eq:
                loop_eqs.append(tuple(eq))
    return blocks, tuple(loop_eqs), _coboundaries(n, x, y, blocks)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cocycle_rows_match_the_dense_reading(rng, n):
    # the rows _cocycle_system reads off the sides' column maps against the
    # dense reading of the raw sums: every ordered label pair, then seeded
    # side pairs of one or two summands; each loop equation has at most 2
    # entries and each coboundary at most 3
    labels = all_labels(n)
    pairs = [((x,), (y,)) for x in labels for y in labels] + list(_side_pairs(rng, n, 40))
    for xs, ys in pairs:
        got = _cocycle_system(n, _side(n, xs), _side(n, ys))
        assert got == _dense_cocycle_system(n, raw_sum(xs, n), raw_sum(ys, n)), (xs, ys)
        assert all(len(eq) <= 2 for eq in got[1]) and all(len(row) <= 3 for row in got[2])


def _side_pairs(rng, n, count):
    # seeded side pairs of one or two summands; the first three force a
    # repeated label, U(i,i) on both sides, and two distinct labels
    labels = all_labels(n)
    diagonal = [l for l in labels if l.kind == "U" and l.i == l.j]
    for k in range(count):
        a, b, c = (rng.choice(labels) for _ in range(3))
        if k == 0:
            xs, ys = (a, a), (b,)
        elif k == 1:
            xs, ys = (rng.choice(diagonal),), (rng.choice(diagonal), c)
        elif k == 2:
            xs, ys = tuple(rng.sample(labels, 2)), (c, c)
        else:
            xs, ys = (tuple(rng.choices(labels, k=rng.randint(1, 2))) for _ in range(2))
        yield tuple(sorted(xs, key=IndecLabel.sort_key)), tuple(sorted(ys, key=IndecLabel.sort_key))


def test_walk_classification_matches_glued_middle_terms(rng):
    # the walk classifies the class c = sum_t a_t b_t by the ranks of its
    # connecting matrices at the coefficients a; the reference glues the
    # middle term of c and decomposes it. Every class of each pair is
    # compared; pairs with more than 60 classes are passed over to bound
    # the run time
    compared = 0
    for n in range(2, 7):
        for p in (2, 3, 5, 7):
            for xs, ys in _side_pairs(rng, n, 10):
                plan = _WalkPlan(n, xs, ys)
                reps = _ext_classes(plan, p)
                if (p ** len(reps) - 1) // (p - 1) > 60:
                    continue
                for a, ranks in zip(_nonzero_classes(len(reps), p), _class_ranks(plan, p)):
                    c = [sum(map(mul, a, col)) % p for col in zip(*reps)]
                    middle = _middle_term(n, raw_sum(xs, n), raw_sum(ys, n), plan.blocks, c)
                    want = _decompose_raw(n, p, middle)
                    got, _ = _middle_labels(plan, ranks)
                    assert got == want.as_labels(), (n, p, xs, ys, a)
                    compared += 1
    assert compared >= 500


def _per_class_ranks(plan, p, a):
    # the rank of sum_t a_t R(b_t) mod p for each pattern R, summed afresh
    # over all e coefficients
    return tuple(
        matrix_rank([[sum(map(mul, a, v)) % p for v in row] for row in pattern], p)
        for pattern, _ in plan.connecting
    )


def test_class_ranks_match_the_per_class_sum(rng):
    # _class_ranks updates the entries from the class before; the reference
    # sums them at every class. Seeded pairs at n <= 5, and one fixed pair
    # with e = 6 and patterns of up to three rows
    w, v, u = IndecLabel("W", 1, 1), IndecLabel("V", 2), IndecLabel("U", 2, 2)
    cases = [(2, (w, w), (v, u))]
    cases += [(n, xs, ys) for n in range(2, 6) for xs, ys in _side_pairs(rng, n, 12)]
    compared = wide = 0
    for p in (2, 3, 5):
        for n, xs, ys in cases:
            plan = _WalkPlan(n, xs, ys)
            e = len(plan.ext_basis)
            want = [_per_class_ranks(plan, p, a) for a in _nonzero_classes(e, p)]
            assert list(_class_ranks(plan, p)) == want, (n, p, xs, ys)
            compared += len(want)
            if e >= 2 and any(len(pattern) > 1 for pattern, _ in plan.connecting):
                wide += len(want)
    assert len(_WalkPlan(2, (w, w), (v, u)).ext_basis) == 6
    assert compared >= 4000 and wide >= 4000


def test_walk_plan_is_built_once_per_side_pair(monkeypatch):
    # lie.bracket walks one side pair at every prime of its schedule, in
    # one call on one plan
    built = []
    real = hom_decomp._WalkPlan
    monkeypatch.setattr(hom_decomp, "_WalkPlan", lambda *args: built.append(args) or real(*args))
    xs, ys = (IndecLabel("W", 1, 1),), (IndecLabel("V", 2),)
    counts = riedtmann_hall_numbers(xs, ys, 2, (2, 3, 5))
    assert len(counts) == 3 and all(len(c) > 1 for c in counts)
    assert built == [(2, xs, ys)]


def test_walk_builds_each_side_once_per_table(monkeypatch):
    # a table build walks 44 side pairs at n = 3, every side a single
    # label; each label the walk meets is made into a side once and then
    # shared by every plan that has it as X or Y
    plans = []
    real = hom_decomp._WalkPlan

    def recorded(n, xs, ys):
        plans.append((xs, ys))
        return real(n, xs, ys)

    monkeypatch.setattr(hom_decomp, "_WalkPlan", recorded)
    _side.cache_clear()
    try:
        build_bracket_table(3, (2, 3, 5, 7))
        sides = {labels for pair in plans for labels in pair}
        assert len(plans) == len(set(plans)) == 44
        assert _side.cache_info().misses == len(sides) == _side.cache_info().currsize
    finally:
        _side.cache_clear()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_no_stored_pattern_is_zero_on_every_basis_vector(n):
    # every pattern entry is an e-tuple over the rows of the Ext^1 basis;
    # each stored pattern, and each of its rows and columns, has an entry
    # that is nonzero at some row
    labels = all_labels(n)
    stored = 0
    for x in labels:
        for y in labels:
            plan = _WalkPlan(n, (x,), (y,))
            if not plan.ext_basis:
                continue
            for pattern, _ in plan.connecting:
                assert pattern, (x, y)
                assert all(len(v) == len(plan.ext_basis) for row in pattern for v in row)
                assert all(any(map(any, row)) for row in pattern), (x, y, pattern)
                assert all(any(map(any, c)) for c in zip(*pattern)), (x, y, pattern)
                stored += 1
    assert stored > 0


def _column_paths(n, raw):
    # the path maps A_{s->t} and the loop tops L A_{s->n} of a raw sum as
    # column maps (the row each column hits, -1 for 0), composed from the
    # column maps of its arrows and loop (_column_steps)
    steps = _column_steps(n, raw)

    def then(f, g):
        return tuple(g[r] if r >= 0 else -1 for r in f)

    paths = []
    for s in range(n):
        row = [()] * s + [tuple(range(raw[0][s]))]
        for t in range(s + 1, n):
            row.append(then(row[-1], steps[t - 1]))
        paths.append(row)
    return paths, [then(row[n - 1], steps[n - 1]) for row in paths]


def _reference_roles(n, raw):
    # per label L: the cokernel rows of A_L as a bit mask, and its kernel
    # vectors, numbered in column order and held by column (for each column
    # of A_L, the (vector, sign) of the vectors nonzero there), or () when
    # the kernel is 0; A_L and its blocks as _profile_raw reads them, from
    # the raw sum's own path maps
    paths, loop_top = _column_paths(n, raw)
    cokers, kernels = [], []
    for label in all_labels(n):
        i = label.i - 1
        if label.kind == "W":
            t, blocks = label.j, (paths[i][label.j],)
        elif label.kind == "V":
            t, blocks = n - 1, (loop_top[i],)
        else:
            t, blocks = n - 1, (paths[i][n - 1], loop_top[label.j - 1])
        cols = [r for m in blocks for r in m]
        cokers.append(sum(1 << r for r in set(range(raw[0][t])).difference(cols)))
        kernel = [[] for _ in cols]
        first = {}
        vectors = 0
        for col, r in enumerate(cols):
            if r < 0:
                kernel[col].append((vectors, 1))
            elif r in first:
                kernel[first[r]].append((vectors, 1))
                kernel[col].append((vectors, -1))
            else:
                first[r] = col
                continue
            vectors += 1
        kernels.append(tuple(map(tuple, kernel)) if vectors else ())
    return cokers, kernels


def _reference_connecting(plan, xs, ys):
    # plan.connecting from one pattern per label with dim Hom(L, X) > 0,
    # each built by reading the upper blocks of its A_L(M) entry by entry
    # and projecting them (_connecting_patterns' claim), then merged: equal
    # patterns share one entry, the sum of their labels' columns of
    # _c_inverse, in the order the labels first give them. X and Y are
    # read from their raw sums, not from the walk's sides
    basis = plan.ext_basis
    if not basis:
        return ()
    n, top, zero = plan.n, plan.n - 1, (0,) * len(basis)
    x, y = raw_sum(xs, n), raw_sum(ys, n)
    (px, _), (py, ly_top) = _column_paths(n, x), _column_paths(n, y)
    cokers, kernels = _reference_roles(n, y)[0], _reference_roles(n, x)[1]
    coords = tuple(zip(*basis))
    terms = [
        (k, a, b, coords[off + a * cols + b])
        for k, (rows, cols, off) in enumerate(plan.blocks)
        for a in range(rows)
        for b in range(cols)
        if any(coords[off + a * cols + b])
    ]

    def upper(s, t, loop):
        # C_{s->t} (loop false), or L_Y C_{s->n} + c A^X_{s->n} (loop
        # true, t = n - 1), at the basis: entry (r, col) as its e-tuple
        out = {}
        for k, a, b, vec in terms:
            if k == top:
                if not loop:
                    continue
                r = a
            elif s <= k < t:
                r = ly_top[k + 1][a] if loop else py[k + 1][t][a]
            else:
                continue
            if r >= 0:
                for col, hit in enumerate(px[s][k]):
                    if hit == b:
                        old = out.get((r, col), zero)
                        out[(r, col)] = tuple(map(add, old, vec))
        return out

    _, b_cols = _c_inverse(n)
    merged = {}
    for k, label in enumerate(all_labels(n)):
        if not kernels[k]:
            continue
        i = label.i - 1
        if label.kind == "W":
            c = list(upper(i, label.j, False).items())
        elif label.kind == "V":
            c = list(upper(i, top, True).items())
        else:
            shift = x[0][i]
            c = list(upper(i, top, False).items()) + [
                ((r, col + shift), vec) for (r, col), vec in upper(label.j - 1, top, True).items()
            ]
        entries = {}
        for (r, col), vec in c:
            if cokers[k] >> r & 1:
                for j, sign in kernels[k][col]:
                    old = entries.get((r, j), zero)
                    entries[(r, j)] = tuple(o + sign * v for o, v in zip(old, vec))
        entries = {key: vec for key, vec in entries.items() if any(vec)}
        if not entries:
            continue
        rows = sorted({r for r, _ in entries})
        cols = sorted({j for _, j in entries})
        pattern = tuple(tuple(entries.get((r, j), zero) for j in cols) for r in rows)
        col = merged.setdefault(pattern, {})
        for i, b in b_cols[k]:
            col[i] = col.get(i, 0) + b
    return tuple((pat, tuple((i, b) for i, b in col.items() if b)) for pat, col in merged.items())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_connecting_patterns_match_the_per_label_builder_on_walked_pairs(n):
    # every ordered pair of distinct labels whose degree is some label's,
    # the pairs lie.bracket walks: the same patterns, in the same order,
    # with the same columns of _c_inverse
    degrees = degree_table(n)
    compared = 0
    for x in all_labels(n):
        for y in all_labels(n):
            dims = tuple(map(add, degrees.by_label[x], degrees.by_label[y]))
            if x == y or dims not in degrees.by_dims:
                continue
            plan = _WalkPlan(n, (x,), (y,))
            assert plan.connecting == _reference_connecting(plan, (x,), (y,)), (x, y)
            compared += len(plan.connecting)
    assert compared >= 2 * n * n


def test_connecting_patterns_match_the_per_label_builder_on_sums(rng):
    # seeded side pairs of one or two summands, repeated labels included
    compared = 0
    for n in (3, 4):
        for xs, ys in _side_pairs(rng, n, 60):
            plan = _WalkPlan(n, xs, ys)
            assert plan.connecting == _reference_connecting(plan, xs, ys), (n, xs, ys)
            compared += len(plan.connecting)
    assert compared >= 80


def test_walk_refuses_above_its_class_bound(monkeypatch):
    # W1,1 by U2,2 at n = 2 has e = 2, so 1 + (3^2 - 1)/2 = 5 classes at
    # p = 3: the split class and 4 nonzero lines
    xs, ys = (IndecLabel("W", 1, 1),), (IndecLabel("U", 2, 2),)
    assert len(_WalkPlan(2, xs, ys).ext_basis) == 2
    walked = []

    def counted(reps, p):
        for c in _nonzero_classes(reps, p):
            walked.append(c)
            yield c

    monkeypatch.setattr(hom_decomp, "_nonzero_classes", counted)
    monkeypatch.setattr(hom_decomp, "MAX_WALK_CLASSES", 5)
    assert len(riedtmann_hall_numbers(xs, ys, 2, (3,))[0]) > 1
    assert len(walked) == 4
    monkeypatch.setattr(hom_decomp, "MAX_WALK_CLASSES", 4)
    monkeypatch.setattr(hom_decomp, "_nonzero_classes", lambda *a: pytest.fail("walked Ext^1"))
    with pytest.raises(
        CeilingError,
        match=r"Ext\^1\(W1,1, U2,2\) has dimension 2, so the walk at p=3 would visit "
        r"5 classes, above the bound 4$",
    ):
        riedtmann_hall_numbers(xs, ys, 2, (3,))


def test_walk_refuses_before_it_walks_any_prime(monkeypatch):
    # W1,1+W1,1+W1,1 by V2+U2,2+U2,2 at n = 2 has e = 15: 32,768 classes at
    # p = 2, within the bound, and 7,174,454 at p = 3, above it. Every
    # prime is checked before the first is walked
    monkeypatch.setattr(hom_decomp, "_class_ranks", lambda *a: pytest.fail("walked Ext^1"))
    w, v, u = IndecLabel("W", 1, 1), IndecLabel("V", 2), IndecLabel("U", 2, 2)
    with pytest.raises(
        CeilingError, match=r"has dimension 15, so the walk at p=3 would visit 7174454 classes"
    ):
        riedtmann_hall_numbers((w,) * 3, (v, u, u), 2, (2, 3))


@pytest.mark.parametrize("n", [2, 3])
def test_one_walk_at_several_primes_equals_one_walk_per_prime(n):
    # a call keeps the middle term of each rank vector for its later primes
    primes = (2, 3, 5, 7)
    for x in all_labels(n):
        for y in all_labels(n):
            want = [riedtmann_hall_numbers((x,), (y,), n, (p,))[0] for p in primes]
            assert riedtmann_hall_numbers((x,), (y,), n, primes) == want, (x, y)


def _per_prime_ext_classes(plan, xs, ys, p):
    # the reference: the cocycle system, read off the raw sums of X and Y,
    # eliminated over F_p, as the walk did at every prime before its basis
    # moved into the plan
    x, y = raw_sum(xs, plan.n), raw_sum(ys, plan.n)
    blocks, loop_eqs, coboundaries = _dense_cocycle_system(plan.n, x, y)
    lr, lc, loff = blocks[-1]
    total = loff + lr * lc

    def dense(rows):
        out = []
        for sparse in rows:
            z = [0] * total
            for i, e in sparse:
                z[i] = e % p
            out.append(z)
        return out

    cocycles = null_space(dense(loop_eqs), p, total)
    brows, brank, bpivs = row_reduce(dense(coboundaries), p, ncols=total)
    assert brank == sum(map(mul, x[0], y[0])) - plan.hom_xy
    reps, _, _ = row_reduce([reduce_vector(z, brows, bpivs, p) for z in cocycles], p, ncols=total)
    return reps


def test_ext_classes_match_the_per_prime_elimination(rng):
    # every indecomposable pair at n = 2..5, then seeded sums of one to
    # three labels on each side
    pairs = [(n, (a,), (b,)) for n in range(2, 6) for a in all_labels(n) for b in all_labels(n)]
    for _ in range(60):
        n = rng.randint(2, 5)
        xs, ys = (
            tuple(sorted(rng.choices(all_labels(n), k=rng.randint(1, 3)), key=IndecLabel.sort_key))
            for _ in range(2)
        )
        pairs.append((n, xs, ys))
    dims_e = set()
    for n, xs, ys in pairs:
        plan = _WalkPlan(n, xs, ys)
        dims_e.add(len(plan.ext_basis))
        for p in first_primes(6):
            assert _ext_classes(plan, p) == _per_prime_ext_classes(plan, xs, ys, p), (n, xs, ys, p)
    # pairs with e = 0, which stop after the coboundary rank, and e > 0
    assert {0, 1, 2} <= dims_e


def test_ext_basis_is_built_once_per_plan(monkeypatch):
    # three integer eliminations when the plan is built, none per prime
    calls = []
    real = gf.unit_pivot_rref
    monkeypatch.setattr(hom_decomp, "unit_pivot_rref", lambda rows: calls.append(1) or real(rows))
    xs, ys = (IndecLabel("W", 1, 1),), (IndecLabel("V", 2), IndecLabel("U", 2, 2))
    plan = _WalkPlan(2, xs, ys)
    assert len(calls) == 3
    assert len(plan.ext_basis) == 3
    for p in first_primes(6):
        assert _ext_classes(plan, p) == _per_prime_ext_classes(plan, xs, ys, p)
    calls.clear()
    riedtmann_hall_numbers(xs, ys, 2, first_primes(6))
    assert len(calls) == 3


def test_ext_basis_stops_after_the_coboundary_rank_at_e_0(monkeypatch):
    # W1,1 by V1 at n = 2: dim Z^1 = rk B^1 = 1, so e = 0. The loop
    # equations and the coboundaries are eliminated, the cocycles are not,
    # and the coboundary rank is still checked
    calls = []
    real = gf.unit_pivot_rref
    monkeypatch.setattr(hom_decomp, "unit_pivot_rref", lambda rows: calls.append(1) or real(rows))
    xs, ys = (IndecLabel("W", 1, 1),), (IndecLabel("V", 1),)
    plan = _WalkPlan(2, xs, ys)
    assert len(calls) == 2
    assert plan.ext_basis == () and plan.connecting == ()
    for p in first_primes(6):
        assert _ext_classes(plan, p) == _per_prime_ext_classes(plan, xs, ys, p) == ()
    system = _cocycle_system
    monkeypatch.setattr(hom_decomp, "_cocycle_system", lambda n, x, y: system(n, x, y)[:2] + ((),))
    with pytest.raises(InternalInvariantError, match=r"W1,1, V1\): coboundary rank 0 disagrees"):
        _WalkPlan(2, xs, ys)


def test_walk_plan_names_the_pair_without_a_unit_pivot(monkeypatch):
    # loop equations (1, 1) and (1, -1) need the pivot -2, which is 0 mod 2
    real = _cocycle_system

    def system(n, x, y):
        blocks, _, coboundaries = real(n, x, y)
        return blocks, (((0, 1), (1, 1)), ((0, 1), (1, -1))), coboundaries

    monkeypatch.setattr(hom_decomp, "_cocycle_system", system)
    with pytest.raises(InternalInvariantError, match=r"Ext\^1\(U1,2, U2,1\): column 1 has no unit pivot"):
        _WalkPlan(2, (IndecLabel("U", 1, 2),), (IndecLabel("U", 2, 1),))


def test_walk_plan_rejects_a_coboundary_rank_off_hom(monkeypatch):
    # with the coboundaries dropped, B^1 has rank 0 where
    # sum_v dim X_v dim Y_v - dim Hom(V1, V2) = 1 - 0 asks for 1
    real = _cocycle_system
    monkeypatch.setattr(hom_decomp, "_cocycle_system", lambda n, x, y: real(n, x, y)[:2] + ((),))
    with pytest.raises(InternalInvariantError, match=r"V1, V2\): coboundary rank 0 disagrees"):
        riedtmann_hall_numbers((IndecLabel("V", 1),), (IndecLabel("V", 2),), 2, (3,))


def _plan_with_bent_arrow(monkeypatch, arrow, message):
    # X = U1,1 by V2 at n = 2 (e = 1), with the arrow of U1,1's canonical
    # matrices (_indec_raw), the identity, replaced by arrow: the plan must
    # refuse the side, by its label, with message when it reads the label's
    # column maps (_label_maps). hom_table is filled before _indec_raw is
    # bent
    n, xs, ys = 2, (IndecLabel("U", 1, 1),), (IndecLabel("V", 2),)
    hom_table(n)
    real = hom_decomp._indec_raw

    def bent(label, n):
        dims, arrows, loop = real(label, n)
        if label == xs[0]:
            assert arrows == (((1, 0), (0, 1)),)
            arrows = (arrow,)
        return dims, arrows, loop

    monkeypatch.setattr(hom_decomp, "_indec_raw", bent)
    _side.cache_clear()
    _label_maps.cache_clear()
    try:
        with pytest.raises(InternalInvariantError, match=rf"^side U1,1: {message}$"):
            _WalkPlan(n, xs, ys)
    finally:
        _side.cache_clear()
        _label_maps.cache_clear()


def test_walk_rejects_an_arrow_entry_off_the_unit_columns(monkeypatch):
    # the first entry bent to -1: the plan's Ext^1 basis still has unit
    # pivots
    _plan_with_bent_arrow(
        monkeypatch, ((-1, 0), (0, 1)), "a canonical matrix column is neither 0 nor a unit vector"
    )


def test_walk_rejects_two_columns_on_one_row(monkeypatch):
    # both columns sent to row 0: each column is still a unit vector, but
    # the kernel of a path map is no longer spanned by its zero columns
    _plan_with_bent_arrow(
        monkeypatch, ((1, 1), (0, 0)), "two columns of a canonical matrix hit the same row"
    )


def test_side_cache_keeps_every_label_up_to_n16():
    # a table build up to n = 16 makes each single-label side once
    assert SIDE_CACHE_SIZE >= len(all_labels(16))


def test_walk_rejects_a_negative_multiplicity(monkeypatch):
    # doubled ranks take V1 twice out of W1,1 + V2
    real = _class_ranks
    monkeypatch.setattr(
        hom_decomp,
        "_class_ranks",
        lambda plan, p: (tuple(2 * r for r in ranks) for ranks in real(plan, p)),
    )
    with pytest.raises(InternalInvariantError, match="multiplicity -1"):
        riedtmann_hall_numbers((IndecLabel("W", 1, 1),), (IndecLabel("V", 2),), 2, (3,))


def test_walk_rejects_a_middle_term_of_other_dims(monkeypatch):
    # a base multiplicity vector with one W1,1 more than X + Y: every
    # multiplicity stays nonnegative, the dimension vector does not match
    extra = all_labels(2).index(IndecLabel("W", 1, 1))
    real = hom_decomp._WalkPlan

    def bumped(n, xs, ys):
        plan = real(n, xs, ys)
        plan.base = tuple(m + (k == extra) for k, m in enumerate(plan.base))
        return plan

    monkeypatch.setattr(hom_decomp, "_WalkPlan", bumped)
    with pytest.raises(InternalInvariantError, match="dimensions"):
        riedtmann_hall_numbers((IndecLabel("W", 1, 1),), (IndecLabel("V", 2),), 2, (3,))


def test_decompose_indecomposables():
    for n in (2, 3):
        for p in (2, 3):
            ctx = AlgebraContext(n, p)
            for label in all_labels(n):
                d = decompose(make_indec(label, ctx))
                assert d.labels == (label,)


def test_decompose_zero():
    assert decompose(zero_rep(AlgebraContext(3, 2))).labels == ()


def test_decompose_direct_sum_pair():
    ctx = AlgebraContext(2, 3)
    m = direct_sum(
        make_indec(IndecLabel("V", 1), ctx), make_indec(IndecLabel("V", 2), ctx)
    )
    d = decompose(m)
    assert d.labels == (IndecLabel("V", 1), IndecLabel("V", 2))


def test_decompose_round_trip(rng):
    # every multiset of at most three labels at n = 2 and 3, handed to
    # rep_of_multiset in reverse: decompose builds its result in label
    # position order, which must be canonical order; then seeded draws of
    # up to four labels at n = 2..4
    checked = 0
    for n in (2, 3):
        labels = all_labels(n)
        assert labels == tuple(sorted(labels, key=IndecLabel.sort_key))
        for p in (2, 3):
            ctx = AlgebraContext(n, p)
            for k in (1, 2, 3):
                for picked in combinations_with_replacement(labels, k):
                    got = decompose(rep_of_multiset(picked[::-1], ctx))
                    assert got.as_labels() == picked, (ctx, picked)
                    assert got == DecompositionMultiset.from_labels(picked), (ctx, picked)
                    checked += 1
    assert checked == 2 * (119 + 815)
    for _ in range(12):
        n = rng.choice([2, 3, 4])
        p = rng.choice([2, 3])
        ctx = AlgebraContext(n, p)
        labels = all_labels(n)
        picked = [rng.choice(labels) for _ in range(rng.randrange(1, 5))]
        m = rep_of_multiset(picked, ctx)
        assert decompose(m).as_labels() == tuple(
            sorted(picked, key=IndecLabel.sort_key)
        )


def test_iso_iff_same_multiset(rng):
    ctx = AlgebraContext(3, 2)
    labels = all_labels(3)
    for _ in range(10):
        a = [rng.choice(labels) for _ in range(rng.randrange(1, 4))]
        b = [rng.choice(labels) for _ in range(rng.randrange(1, 4))]
        same = sorted(a, key=IndecLabel.sort_key) == sorted(b, key=IndecLabel.sort_key)
        assert (decompose(rep_of_multiset(a, ctx)) == decompose(rep_of_multiset(b, ctx))) == same


def test_multiset_container():
    ms = DecompositionMultiset.from_labels(
        [IndecLabel("V", 1), IndecLabel("W", 1, 1), IndecLabel("V", 1)]
    )
    assert len(ms) == 3
    assert ms.labels == ms.as_labels() == (
        IndecLabel("W", 1, 1),
        IndecLabel("V", 1),
        IndecLabel("V", 1),
    )


def test_hom_profile_length():
    ctx = AlgebraContext(3, 2)
    rep = make_indec(IndecLabel("V", 1), ctx)
    assert len(_profile_raw(3, 2, raw_rep(rep))) == len(all_labels(3))


def summed_dims(x, y, n):
    return tuple(a + b for a, b in zip(label_dims(x, n), label_dims(y, n)))


@pytest.mark.parametrize("n", [2, 3])
def test_riedtmann_counts_equal_hall_number(n):
    # every ordered pair of labels, x == y included (verify-prop's diagonal
    # rows), and every composite of the summed dimension vector; off the
    # middle terms of Ext^1 both sides must read 0
    labels = all_labels(n)
    for p in (2, 3, 5):
        ctx = AlgebraContext(n, p)
        for x in labels:
            for y in labels:
                got = riedtmann_hall_numbers((x,), (y,), n, (p,))[0]
                composites = multisets_with_dims(n, summed_dims(x, y, n))
                assert set(got) <= set(composites), (p, x, y)
                assert all(got.values()), (p, x, y)
                for m in composites:
                    assert got.get(m, 0) == hall_number(x, y, m, ctx), (p, x, y, m)


def test_riedtmann_counts_agree_with_brute_force(rng):
    # the oracle: tally the sub and quotient classes of every submodule of
    # every composite, by raw enumeration; each side is one or two summands,
    # repeats allowed, so |Aut X| and |Aut Y| meet repeated labels
    checked = 0
    while checked < 30:
        n = rng.choice((2, 3))
        labels = all_labels(n)
        xs, ys = (
            tuple(sorted(rng.choices(labels, k=rng.choice((1, 2))), key=IndecLabel.sort_key))
            for _ in range(2)
        )
        dy = multiset_dims(ys, n)
        dims = tuple(map(add, multiset_dims(xs, n), dy))
        total = sum(dims)
        # two single labels put at most 4 at a vertex; the cap drops only the
        # decomposable draws whose oracle run alone takes seconds at p = 3
        if total > 6 or max(dims) > 4:
            continue
        ctx = AlgebraContext(n, rng.choice((2, 3, 5) if total <= 4 else (2, 3)))
        tally = {}
        for m in multisets_with_dims(n, dims):
            for w in enumerate_submodules(rep_of_multiset(m, ctx)):
                if tuple(space.dim for space in w.spaces) != dy:
                    continue
                sub, quot = submodule_and_quotient(w)
                if decompose(sub).as_labels() == ys and decompose(quot).as_labels() == xs:
                    tally[m] = tally.get(m, 0) + 1
        assert riedtmann_hall_numbers(xs, ys, n, (ctx.p,))[0] == tally, (ctx, xs, ys)
        checked += 1


def _end_units(n, p, raw):
    # (dim End M, the number of invertible endomorphisms of M) by brute
    # force. End(M) = ker delta: the null space of the transposed matrix of
    # delta, whose rows are the coboundaries, one per coordinate of h; an
    # endomorphism is invertible when its matrix at every vertex is
    blocks = _cocycle_blocks(n, raw[0], raw[0])
    coboundaries = _coboundaries(n, raw, raw, blocks)
    lr, lc, loff = blocks[-1]
    total = len(coboundaries)
    delta_t = [[0] * total for _ in range(loff + lr * lc)]
    for k, cob in enumerate(coboundaries):
        for c, e in cob:
            delta_t[c][k] = e % p
    basis = null_space(delta_t, p, total)
    units = 0
    for coeffs in product(range(p), repeat=len(basis)):
        f = [sum(c * b[i] for c, b in zip(coeffs, basis)) % p for i in range(total)]
        off = 0
        invertible = True
        for d in raw[0]:
            block = [f[off + a * d : off + (a + 1) * d] for a in range(d)]
            off += d * d
            invertible = invertible and matrix_rank(block, p) == d
        units += invertible
    return len(basis), units


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_endomorphism_rings_are_local(n):
    # End(L) is local with residue field F_p exactly when its units number
    # (p - 1) p^(dim End L - 1); the |Aut| of Riedtmann's formula rests on it
    for p in (2, 3):
        for label in all_labels(n):
            dim_end, units = _end_units(n, p, raw_sum((label,), n))
            assert dim_end == hom_table(n)[(label, label)]
            assert units == (p - 1) * p ** (dim_end - 1), (p, label)


def test_aut_order_counts_the_invertible_endomorphisms():
    # |Aut M| as the walk computes it, from the (position, multiplicity)
    # items of M and the hom matrix, against the units of End(M) counted by
    # brute force, for every module of one or two summands at n = 2, p = 2,
    # repeated summands (W1,1+W1,1, U2,2+U2,2) included
    n, p = 2, 2
    labels = all_labels(n)
    sums = [ms for k in (1, 2) for ms in combinations_with_replacement(labels, k)]
    assert len(sums) == 35
    for ms in sums:
        items = tuple(
            (labels.index(l), len(list(run)))
            for l, run in groupby(DecompositionMultiset.from_labels(ms).labels)
        )
        exp, mults = shape = _aut_shape(n, items)
        dim_end, units = _end_units(n, p, raw_sum(ms, n))
        assert exp + sum(m * m for m in mults) == dim_end, ms
        assert _aut_order(shape, p) == units, ms


def test_product_terms_list_a_repeated_summand_after_its_successors():
    # hall_product lists its terms by DecompositionMultiset.sort_key, each
    # distinct label's key followed by its multiplicity, so {A: 2} comes
    # after {A: 1, B: 1} for labels A < B, where the sorted label tuples
    # put (A, A) first. The verify-identities reports and the benchmark's
    # reference products (perfbench/data/products_pool.json) read this order
    v1, v4 = IndecLabel("V", 1), IndecLabel("V", 4)
    u31, u34 = IndecLabel("U", 3, 1), IndecLabel("U", 3, 4)
    got = hall_product((v1, v1), (u34,), AlgebraContext(4, 2))
    assert got.terms == (
        (DecompositionMultiset.from_labels((v1, v4, u31)), 2),
        (DecompositionMultiset.from_labels((v1, v1, u34)), 4),
    )
    assert str(got) == "2*[V1 + V4 + U3,1] + 4*[V1 + V1 + U3,4]"
    labels = all_labels(3)
    for k, a in enumerate(labels):
        for b in labels[k + 1 :]:
            pair = DecompositionMultiset.from_labels((a, b)).sort_key()
            assert DecompositionMultiset.from_labels((a, a)).sort_key() > pair, (a, b)


def test_walk_keys_and_product_terms_come_in_canonical_order(rng):
    # riedtmann_hall_numbers keys each middle term by its labels sorted by
    # IndecLabel.sort_key, and hall_product lists its terms in
    # DecompositionMultiset.sort_key order, the order the verify-identities
    # reports print: every pair of labels at n = 2 and 3, then seeded sums
    def check(n, xs, ys):
        for p, counts in zip((2, 3), riedtmann_hall_numbers(xs, ys, n, (2, 3))):
            for m in counts:
                assert m == tuple(sorted(m, key=IndecLabel.sort_key)), (n, p, xs, ys, m)
            keys = [ms.sort_key() for ms, _ in hall_product(xs, ys, AlgebraContext(n, p)).terms]
            assert keys == sorted(set(keys)), (n, p, xs, ys)
            assert len(keys) == len(counts), (n, p, xs, ys)

    for n in (2, 3):
        for x in all_labels(n):
            for y in all_labels(n):
                check(n, (x,), (y,))
    for n in (2, 3, 4):
        for xs, ys in _side_pairs(rng, n, 10):
            check(n, xs[::-1], ys[::-1])
