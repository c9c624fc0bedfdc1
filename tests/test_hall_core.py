import itertools
from operator import add

import pytest

from hallq.errors import CeilingError, HypothesisError
from hallq.gf import echelon_supersets, mat_mul, matrix_rank
from hallq.hall_core import (
    IsoClassCombo,
    _rank_screens,
    _search_nodes,
    _side_spec,
    as_multiset,
    enumerate_submodules,
    hall_number,
    hall_product,
    verify_hall_identity,
)
from hallq.hall_poly import interpolate_hall_poly
from hallq.hom_decomp import DecompositionMultiset, decompose
from hallq.quiver_rep import (
    AlgebraContext,
    IndecLabel,
    all_labels,
    label_dims,
    make_indec,
    multiset_dims,
    multisets_with_dims,
    parse_multiset,
    rep_of_multiset,
    simple,
    submodule_and_quotient,
)


def hall_number_reference(x, y, m, ctx):
    # independent slow path: enumerate every submodule, classify both sides
    xs = as_multiset(x, ctx.n)
    ys = as_multiset(y, ctx.n)
    rep = rep_of_multiset(as_multiset(m, ctx.n), ctx)
    count = 0
    for w in enumerate_submodules(rep):
        sub, quot = submodule_and_quotient(w)
        if decompose(sub).as_labels() == ys and decompose(quot).as_labels() == xs:
            count += 1
    return count


def combo(ctx, *pairs) -> IsoClassCombo:
    return IsoClassCombo.from_dict(
        {DecompositionMultiset.from_labels(as_multiset(ms, ctx.n)): c for ms, c in pairs}
    )


def test_simple_has_two_submodules():
    ctx = AlgebraContext(3, 2)
    for i in (1, 2, 3):
        rep = make_indec(simple(i, ctx), ctx)
        assert len(list(enumerate_submodules(rep))) == 2


def test_submodule_count_simple_square():
    ctx = AlgebraContext(2, 3)
    rep = rep_of_multiset((simple(1, ctx), simple(1, ctx)), ctx)
    assert len(list(enumerate_submodules(rep))) == 6


def test_submodules_unique():
    ctx = AlgebraContext(2, 2)
    rep = rep_of_multiset((IndecLabel("U", 2, 1), IndecLabel("V", 1)), ctx)
    seen = [tuple(s for s in w.spaces) for w in enumerate_submodules(rep)]
    assert len(seen) == len(set(seen))


def test_loop_junction_submodule_count():
    # submodules of the projective with 2-dimensional top vertex space:
    # the loop constraint keeps only the e2 line among vertex-n lines
    ctx = AlgebraContext(2, 2)
    rep = make_indec(IndecLabel("U", 1, 1), ctx)
    assert len(list(enumerate_submodules(rep))) == 8


def test_hall_number_closed_form_values():
    for p in (2, 3):
        ctx = AlgebraContext(2, p)
        assert (
            hall_number(
                IndecLabel("W", 1, 1), IndecLabel("U", 2, 1), IndecLabel("U", 1, 1), ctx
            )
            == p
        )


def test_hall_number_junction_orientation():
    # dims (0,1) submodules must be loop-stable, which forces the e2 line;
    # only the e1-junction parent then has quotient V1
    for p in (2, 3, 5):
        ctx = AlgebraContext(2, p)
        v1, v2 = IndecLabel("V", 1), IndecLabel("V", 2)
        assert hall_number(v1, v2, IndecLabel("U", 2, 1), ctx) == 1
        assert hall_number(v1, v2, IndecLabel("U", 1, 2), ctx) == 0


def test_hall_number_unit_cases():
    ctx = AlgebraContext(3, 2)
    m = (IndecLabel("U", 3, 1), IndecLabel("W", 1, 2))
    assert hall_number((), m, m, ctx) == 1
    assert hall_number(m, (), m, ctx) == 1
    assert hall_number((), m, (IndecLabel("U", 3, 1), IndecLabel("W", 1, 1)), ctx) == 0


def test_hall_number_dimension_shortcut():
    ctx = AlgebraContext(2, 2)
    assert hall_number(IndecLabel("V", 1), IndecLabel("V", 2), IndecLabel("U", 1, 1), ctx) == 0


def test_hall_number_matches_reference():
    # every dims-compatible indecomposable triple at n=2 plus mixed multisets
    ctx = AlgebraContext(2, 2)
    labels = all_labels(2)
    checked = 0
    for x in labels:
        for y in labels:
            dims = tuple(
                a + b for a, b in zip(label_dims(x, 2), label_dims(y, 2))
            )
            if sum(dims) > 5:
                continue
            for m in multisets_with_dims(2, dims):
                expect = hall_number_reference(x, y, m, ctx)
                assert hall_number(x, y, m, ctx) == expect
                checked += 1
    assert checked > 50


def test_hall_number_matches_reference_n3(rng):
    ctx = AlgebraContext(3, 2)
    labels = all_labels(3)
    for _ in range(25):
        x = rng.choice(labels)
        y = rng.choice(labels)
        dims = tuple(a + b for a, b in zip(label_dims(x, 3), label_dims(y, 3)))
        if sum(dims) > 6:
            continue
        candidates = multisets_with_dims(3, dims)
        m = candidates[rng.randrange(len(candidates))]
        assert hall_number(x, y, m, ctx) == hall_number_reference(x, y, m, ctx)


def test_hall_number_decomposable_sides():
    ctx = AlgebraContext(2, 2)
    x = (IndecLabel("W", 1, 1), IndecLabel("W", 1, 1))
    y = (IndecLabel("V", 2), IndecLabel("V", 2))
    for m in multisets_with_dims(2, (2, 2)):
        assert hall_number(x, y, m, ctx) == hall_number_reference(x, y, m, ctx)


@pytest.mark.parametrize("n, side", [
    (2, "V1+U2,2"), (2, "V2+U1,2"), (3, "V2+U3,3"), (3, "V3+U2,3"),
])
@pytest.mark.parametrize("p", [2, 3])
def test_pair_screens_separate_equal_rank_sides(n, side, p):
    # each side shares its dimension vector and its path and loop ranks with
    # another multiset, so only the pair ranks rk[A_{i->n} | L A_{j->n}] tell
    # them apart; taken as Y and as X beside every label of total dimension
    # 1, over every composite, against brute force
    ctx = AlgebraContext(n, p)
    side = parse_multiset(side)
    counted = 0
    for other in all_labels(n):
        if sum(label_dims(other, n)) != 1:
            continue
        for xs, ys in ((side, (other,)), ((other,), side)):
            dims = tuple(map(add, multiset_dims(xs, n), multiset_dims(ys, n)))
            for m in multisets_with_dims(n, dims):
                got = hall_number(xs, ys, m, ctx)
                assert got == hall_number_reference(xs, ys, m, ctx), (xs, ys, m)
                counted += got > 0
    assert counted > 4


def test_side_spec_scans_no_multisets(monkeypatch):
    # a side's screens come from its own Hom profile alone, so no multiset
    # with the side's dimension vector is read: at n = 5, W4,4+V1+U1,5+U4,1
    # shares its vector with 20,227 others, while the search for W2,3+V2
    # by it is bounded by 68 nodes
    import hallq.hall_core

    assert not hasattr(hallq.hall_core, "multisets_with_dims")
    monkeypatch.setattr(
        "hallq.quiver_rep.multisets_with_dims", lambda *a: pytest.fail("multisets scanned")
    )
    _side_spec.cache_clear()
    x, y = parse_multiset("W2,3+V2"), parse_multiset("W4,4+V1+U1,5+U4,1")
    assert hall_number(x, y, x + y, AlgebraContext(5, 3)) == 3


# the products pool's budget example: X = U3,3+V3, Y = U3,3+U2,3 at n = 3;
# the hom prune passes both composites, and each search could visit
# 2,558,558 subspaces at p = 5
BUDGET = parse_multiset("U3,3+V3"), parse_multiset("U3,3+U2,3")
BUDGET_COMPOSITES = (
    parse_multiset("V3+U2,3+U3,3+U3,3"),
    parse_multiset("V2+U3,3+U3,3+U3,3"),
)


def forbid_engine(monkeypatch):
    for name in ("_module_data", "_side_spec", "_count_witnesses"):
        monkeypatch.setattr(
            f"hallq.hall_core.{name}", lambda *a, name=name: pytest.fail(f"{name} ran")
        )


def test_hall_number_ceiling(monkeypatch):
    # thirteen copies of V2 with an empty quotient: no search, so no bound
    ctx = AlgebraContext(2, 2)
    big = tuple([IndecLabel("V", 2)] * 13)
    assert hall_number((), big, big, ctx) == 1
    # the budget composites are refused before the engine builds anything
    forbid_engine(monkeypatch)
    for m in BUDGET_COMPOSITES:
        with pytest.raises(CeilingError, match="at p=5 could visit 2558558 subspaces"):
            hall_number(*BUDGET, m, AlgebraContext(3, 5))


def test_hall_poly_refuses_before_any_count(monkeypatch):
    # the largest prime has the largest bound and is counted first
    forbid_engine(monkeypatch)
    with pytest.raises(CeilingError, match="at p=17 "):
        interpolate_hall_poly(*BUDGET, BUDGET_COMPOSITES[0], 3)


def test_search_bound_edge(monkeypatch):
    ctx = AlgebraContext(2, 2)
    x, y = parse_multiset("W1,1+V2"), parse_multiset("V2+V2+U2,2")
    m = parse_multiset("V2+V2+V2+U2,1")
    nodes = _search_nodes(2, 2, as_multiset(y, 2), multiset_dims(as_multiset(m, 2), 2))
    expect = hall_number_reference(x, y, m, ctx)
    monkeypatch.setattr("hallq.hall_core.MAX_SEARCH_NODES", nodes)
    assert hall_number(x, y, m, ctx) == expect
    monkeypatch.setattr("hallq.hall_core.MAX_SEARCH_NODES", nodes - 1)
    with pytest.raises(CeilingError, match=f"could visit {nodes} subspaces"):
        hall_number(x, y, m, ctx)


def test_search_bound_is_sound(rng, monkeypatch):
    # differential: the subspaces the search enumerates never exceed the
    # bound, on every composite of seeded sides of 1-3 summands; draws of
    # total dimension above 8 or with a bound above 2*10^4 are skipped to
    # keep the test short
    nodes = 0

    def counted(*args):
        nonlocal nodes
        for item in echelon_supersets(*args):
            nodes += 1
            yield item

    monkeypatch.setattr("hallq.hall_core.echelon_supersets", counted)
    searched = tight = 0
    for _ in range(200):
        n, p = rng.randrange(2, 5), rng.choice((2, 3, 5))
        labels = all_labels(n)
        xs, ys = (
            as_multiset([rng.choice(labels) for _ in range(rng.randrange(1, 4))], n)
            for _ in range(2)
        )
        dims = tuple(map(add, multiset_dims(xs, n), multiset_dims(ys, n)))
        bound = _search_nodes(n, p, ys, dims)
        if sum(dims) > 8 or bound > 2 * 10**4:
            continue
        for m in multisets_with_dims(n, dims):
            nodes = 0
            hall_number(xs, ys, m, AlgebraContext(n, p))
            assert nodes <= bound, (n, p, xs, ys, m)
            searched += nodes > 0
            tight += nodes == bound
    assert searched > 100 and tight > 0


def test_hall_product_ceiling(monkeypatch):
    # e = 15: the walk would visit 7,174,454 classes at p = 3 and
    # 7,629,394,532 at p = 5, so the product refuses before it walks one
    x = parse_multiset("W1,1+W1,1+W1,1")
    y = parse_multiset("V2+U2,2+U2,2")
    monkeypatch.setattr(
        "hallq.hom_decomp._nonzero_classes", lambda *a: pytest.fail("walked Ext^1")
    )
    for p, classes in ((3, 7174454), (5, 7629394532)):
        with pytest.raises(CeilingError, match=f"at p={p} would visit {classes} classes"):
            hall_product(x, y, AlgebraContext(2, p))
        # the engine's search for the split composite is small: it answers
        assert hall_number(x, y, x + y, AlgebraContext(2, p)) == 1


def test_hall_product_case4():
    for p in (2, 3, 5):
        ctx = AlgebraContext(2, p)
        v1, v2 = IndecLabel("V", 1), IndecLabel("V", 2)
        got = hall_product(v1, v2, ctx)
        assert got == combo(ctx, ([v1, v2], p), ([IndecLabel("U", 2, 1)], 1))
        swapped = hall_product(v2, v1, ctx)
        assert swapped == combo(ctx, ([v1, v2], 1), ([IndecLabel("U", 1, 2)], 1))


def test_hall_product_str():
    v1, v2 = IndecLabel("V", 1), IndecLabel("V", 2)
    assert str(hall_product(v1, v2, AlgebraContext(2, 2))) == "2*[V1 + V2] + [U2,1]"


def test_hall_product_unit():
    ctx = AlgebraContext(3, 3)
    m = (IndecLabel("U", 2, 2), IndecLabel("W", 1, 1))
    assert hall_product((), m, ctx) == combo(ctx, (m, 1))
    assert hall_product(m, (), ctx) == combo(ctx, (m, 1))


def test_hall_product_matches_composite_sum(rng):
    # the reference is the engine summed composite by composite over every
    # multiset of the summed dimension vector; sides of up to three
    # summands, repeats allowed, and at most 4 at a vertex, which keeps the
    # engine fast at p = 3
    checked = 0
    while checked < 60:
        n, p = rng.choice((2, 3)), rng.choice((2, 3))
        ctx = AlgebraContext(n, p)
        xs, ys = (rng.choices(all_labels(n), k=rng.randint(1, 3)) for _ in range(2))
        dims = tuple(map(add, multiset_dims(xs, n), multiset_dims(ys, n)))
        if sum(dims) > 8 or max(dims) > 4:
            continue
        expect = {}
        for m in multisets_with_dims(n, dims):
            coeff = hall_number(xs, ys, m, ctx)
            if coeff:
                expect[DecompositionMultiset.from_labels(m)] = coeff
        assert hall_product(xs, ys, ctx) == IsoClassCombo.from_dict(expect), (ctx, xs, ys)
        checked += 1


def test_hall_product_interval_chain():
    # adjacent intervals: one extension in one order, none in the other
    ctx = AlgebraContext(3, 2)
    w11 = IndecLabel("W", 1, 1)
    w22 = IndecLabel("W", 2, 2)
    assert hall_product(w11, w22, ctx) == combo(
        ctx, ([w11, w22], 1), ([IndecLabel("W", 1, 2)], 1)
    )
    assert hall_product(w22, w11, ctx) == combo(ctx, ([w11, w22], 1))


def test_conservation_small():
    # total submodule count equals the sum of all Hall numbers
    ctx = AlgebraContext(2, 3)
    for m in ((IndecLabel("U", 2, 1),), (IndecLabel("V", 1), IndecLabel("V", 2))):
        rep = rep_of_multiset(m, ctx)
        total = len(list(enumerate_submodules(rep)))
        dm = multiset_dims(m, 2)
        acc = 0
        for sub_dims in itertools.product(*(range(d + 1) for d in dm)):
            quot_dims = tuple(a - b for a, b in zip(dm, sub_dims))
            for y in multisets_with_dims(2, tuple(sub_dims)):
                for x in multisets_with_dims(2, quot_dims):
                    acc += hall_number(x, y, m, ctx)
        assert acc == total


def associativity_mismatches(ctx, triples):
    # the triples (a, b, c) of labels with ([a][b])[c] != [a]([b][c]), from
    # walk products memoised over the call
    memo = {}

    def product(left, right):
        if (left, right) not in memo:
            memo[left, right] = hall_product(left, right, ctx)
        return memo[left, right]

    def expand(scaled):
        acc = {}
        for k, left, right in scaled:
            for key, c in product(left, right).terms:
                acc[key] = acc.get(key, 0) + k * c
        return IsoClassCombo.from_dict(acc)

    return [
        (a, b, c)
        for a, b, c in triples
        if expand((k, m.as_labels(), (c,)) for m, k in product((a,), (b,)).terms)
        != expand((k, (a,), m.as_labels()) for m, k in product((b,), (c,)).terms)
    ]


def test_associativity_small():
    # every ordered triple of labels: 343 at n = 2 and 3,375 at n = 3
    for n in (2, 3):
        for p in (2, 3):
            triples = itertools.product(all_labels(n), repeat=3)
            assert associativity_mismatches(AlgebraContext(n, p), triples) == [], (n, p)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_shift_sweep(n):
    # the modules that vanish at vertex 1 form a subcategory closed under
    # submodules, quotients and extensions, which with every index shifted
    # down by one is the module category at n - 1; so every product of
    # their labels at n is the product of the shifted labels at n - 1
    def down(labels):
        return tuple(IndecLabel(l.kind, l.i - 1, l.j and l.j - 1) for l in labels)

    shifted = [l for l in all_labels(n) if label_dims(l, n)[0] == 0]
    assert sorted(down(shifted), key=IndecLabel.sort_key) == list(all_labels(n - 1))
    for p in (2, 3):
        for a, b in itertools.product(shifted, repeat=2):
            got = {
                DecompositionMultiset.from_labels(down(m.as_labels())): c
                for m, c in hall_product(a, b, AlgebraContext(n, p)).terms
            }
            want = hall_product(down((a,)), down((b,)), AlgebraContext(n - 1, p))
            assert IsoClassCombo.from_dict(got) == want, (n, p, a, b)


def test_verify_compo_trivial_reduction():
    ctx = AlgebraContext(2, 2)
    x = IndecLabel("U", 2, 1)
    assert verify_hall_identity(x, [(1, x, ()), (0, (), ())], IndecLabel("V", 2), ctx).holds


def test_verify_compo_case1():
    ctx = AlgebraContext(3, 2)
    w = IndecLabel("W", 1, 2)
    w11 = IndecLabel("W", 1, 1)
    w22 = IndecLabel("W", 2, 2)
    for y in (IndecLabel("V", 3), IndecLabel("W", 1, 1), ()):
        assert verify_hall_identity(w, [(1, w11, w22), (-1, w22, w11)], y, ctx).holds


def test_verify_compo_hypothesis_failure():
    ctx = AlgebraContext(2, 2)
    w11 = IndecLabel("W", 1, 1)
    with pytest.raises(HypothesisError):
        verify_hall_identity(w11, [(1, w11, w11), (0, (), ())], (), ctx).holds


def test_verify_three_term_identity():
    # [U(i,j)] for i<j needs a unit term: recovered from the two V products
    from fractions import Fraction

    for p in (2, 3):
        ctx = AlgebraContext(2, p)
        v1, v2 = IndecLabel("V", 1), IndecLabel("V", 2)
        u12 = IndecLabel("U", 1, 2)
        u21 = IndecLabel("U", 2, 1)
        qi = Fraction(1, p)
        terms = [(1, v2, v1), (qi, u21, ()), (-qi, v1, v2)]
        for y in ((IndecLabel("V", 2),), (), (IndecLabel("W", 1, 1),)):
            check = verify_hall_identity(u12, terms, y, ctx)
            assert check.holds, (y, check)


def test_identities_read_no_engine(monkeypatch):
    # the conclusion of an identity comes from walk products alone
    from fractions import Fraction

    forbid_engine(monkeypatch)
    monkeypatch.setattr("hallq.hall_core.hall_number", lambda *a: pytest.fail("hall_number ran"))
    v1, v2 = IndecLabel("V", 1), IndecLabel("V", 2)
    u12, u21 = IndecLabel("U", 1, 2), IndecLabel("U", 2, 1)
    qi = Fraction(1, 3)
    socle = [(1, v2, v1), (qi, u21, ()), (-qi, v1, v2)]
    for y in ((), *all_labels(2)):
        assert verify_hall_identity(u12, socle, y, AlgebraContext(2, 3)).holds, y
    w, w11, w22 = IndecLabel("W", 1, 2), IndecLabel("W", 1, 1), IndecLabel("W", 2, 2)
    chain = [(1, w11, w22), (-1, w22, w11)]
    for y in ((), *all_labels(3)):
        assert verify_hall_identity(w, chain, y, AlgebraContext(3, 2)).holds, y


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_screens_are_hom_dimensions(n, p):
    # the engine reads its rank screens from the hom profile of each side;
    # the oracle here multiplies out the path and loop-path composites of
    # the direct sum, and the pair blocks [A_{i->n} | L A_{j->n}], for every
    # single label (the projective-like ones reach dimension 2n) and every
    # multiset of total dimension <= 4
    ctx = AlgebraContext(n, p)
    cases = [(label,) for label in all_labels(n)]
    for dims in itertools.product(range(5), repeat=n):
        if 0 < sum(dims) <= 4:
            cases.extend(ms for ms in multisets_with_dims(n, dims) if len(ms) > 1)
    for ms in cases:
        rep = rep_of_multiset(ms, ctx)
        dims = rep.dims
        fwd, loopfwd, top, loop_top = [], [], [], []
        for v in range(n):
            path = tuple(tuple(int(r == c) for c in range(dims[v])) for r in range(dims[v]))
            ranks = []
            for w in range(v + 1, n):
                path = mat_mul(rep.arrow[w - 1].entries, path, p, ncols=dims[v])
                ranks.append(matrix_rank(path, p))
            fwd.append(tuple(ranks))
            top.append(path)
            loop_top.append(mat_mul(rep.loop.entries, path, p, ncols=dims[v]))
            loopfwd.append(matrix_rank(loop_top[v], p))
        pair = tuple(
            tuple(
                matrix_rank([a + b for a, b in zip(top[i], loop_top[j])], p) for j in range(n)
            )
            for i in range(n)
        )
        assert _rank_screens(n, ms) == (dims, tuple(fwd), tuple(loopfwd), pair), ms
