import copy
import pickle
from functools import reduce

import pytest

from hallq.errors import LabelError, RelationError, WitnessError
from hallq.gf import PrimeFieldMatrix, SubspaceBasis
from hallq.hall_poly import reconcile_poly_table
from hallq.hom_decomp import raw_rep
from hallq.lie import build_bracket_table
from hallq.quiver_rep import (
    AlgebraContext,
    IndecLabel,
    Representation,
    SubmoduleWitness,
    all_labels,
    check_label,
    check_relation,
    degree_table,
    direct_sum,
    label_dims,
    make_indec,
    multiset_dims,
    multiset_to_str,
    multisets_with_dims,
    parse_label,
    parse_multiset,
    raw_sum,
    rep_from_json,
    rep_of_multiset,
    rep_to_json,
    simple,
    submodule_and_quotient,
    validate_witness,
    zero_rep,
)


def test_label_validation():
    IndecLabel("U", 3, 1)
    IndecLabel("V", 2)
    IndecLabel("W", 1, 3)
    with pytest.raises(LabelError):
        IndecLabel("X", 1, 1)
    with pytest.raises(LabelError):
        IndecLabel("V", 1, 2)
    with pytest.raises(LabelError):
        IndecLabel("W", 3, 1)
    with pytest.raises(LabelError):
        check_label(IndecLabel("W", 2, 2), 2)
    with pytest.raises(LabelError):
        check_label(IndecLabel("U", 3, 1), 2)


def test_label_hash_sort_key_and_fields_are_kept():
    # both are computed once per label; the hash stays that of the field
    # tuple, so no set or dict order changes, and equality, repr and the
    # field order (read from what pickle rebuilds a label from) stay
    for label in all_labels(4):
        twin = IndecLabel(label.kind, label.i, label.j)
        assert hash(label) == hash((label.kind, label.i, label.j)) == hash(twin)
        assert label == twin and label is not twin
        assert label.sort_key() == ({"W": 0, "V": 1, "U": 2}[label.kind], label.i, label.j)
        assert IndecLabel.sort_key(label) == label.sort_key()
        assert pickle.loads(pickle.dumps(label)) == label
        assert b"_hash" not in pickle.dumps(label)
        assert hash(copy.deepcopy(label)) == hash(label)
    assert IndecLabel("U", 2, 1).__reduce__() == (IndecLabel, ("U", 2, 1))
    assert repr(IndecLabel("U", 2, 1)) == "IndecLabel(kind='U', i=2, j=1)"
    assert IndecLabel("V", 1) != IndecLabel("W", 1, 1)
    with pytest.raises(AttributeError):
        IndecLabel("V", 1).i = 2


def test_matrices_and_modules_pickle_and_copy():
    # a matrix rebuilds from (p, entries, shape), so the 0 x 2 shape survives
    rep = make_indec(IndecLabel("U", 1, 1), AlgebraContext(2, 3))
    witness = SubmoduleWitness(
        rep, (SubspaceBasis.from_rows(3, 2, [[1, 0]]), SubspaceBasis.full(3, 2))
    )
    empty = PrimeFieldMatrix(3, (), (0, 2))
    for value in (empty, rep.loop, rep, witness):
        for other in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert other == value and type(other) is type(value)
    assert copy.deepcopy(empty).cols == 2
    with pytest.raises(AttributeError, match="immutable"):
        copy.deepcopy(rep.loop).p = 5


def test_parse_and_render():
    assert parse_label("U2,1") == IndecLabel("U", 2, 1)
    assert parse_label("V3") == IndecLabel("V", 3)
    assert parse_label(" W1,2 ") == IndecLabel("W", 1, 2)
    assert str(IndecLabel("U", 1, 2)) == "U1,2"
    assert str(IndecLabel("V", 3)) == "V3"
    for bad in ("V1,2", "U2", "X1", "", "U-1,2"):
        with pytest.raises(LabelError):
            parse_label(bad)


def test_parse_multiset_sorts_canonically():
    ms = parse_multiset("U1,1 + W1,1 + V2")
    assert [str(l) for l in ms] == ["W1,1", "V2", "U1,1"]
    assert multiset_to_str(ms) == "W1,1 + V2 + U1,1"
    assert multiset_to_str(()) == "0"
    with pytest.raises(LabelError):
        parse_multiset(" + ")


def test_label_census():
    # n^2 U's, n V's, n(n-1)/2 W's
    assert len(all_labels(2)) == 7
    assert len(all_labels(3)) == 15
    assert len(all_labels(4)) == 26
    assert len(all_labels(5)) == 40


@pytest.mark.parametrize("build", [all_labels, reconcile_poly_table, build_bracket_table])
def test_fewer_than_two_vertices_is_refused_by_all_labels(build):
    # all_labels is where n >= 2 is checked; the table builds reach it
    with pytest.raises(ValueError, match="need n >= 2"):
        build(1)


def test_indec_dim_vectors():
    ctx = AlgebraContext(3, 2)
    assert make_indec(IndecLabel("V", 3), ctx).dims == (0, 0, 1)
    assert make_indec(IndecLabel("U", 3, 1), ctx).dims == (1, 1, 2)
    assert make_indec(IndecLabel("U", 3, 3), ctx).dims == (0, 0, 2)
    assert make_indec(IndecLabel("U", 1, 3), ctx).dims == (1, 1, 2)
    assert make_indec(IndecLabel("W", 2, 2), ctx).dims == (0, 1, 0)
    assert make_indec(IndecLabel("U", 2, 2), ctx).dims == (0, 2, 2)


def test_total_dims_closed_form():
    for n in range(2, 7):
        for label in all_labels(n):
            total = sum(label_dims(label, n))
            i, j = label.i, label.j
            if label.kind == "U" and j <= i:
                assert total == (i - j) + 2 * (n - i + 1)
            elif label.kind == "U":
                assert total == (j - i) + 2 * (n - j + 1)
            elif label.kind == "V":
                assert total == n - i + 1
            else:
                assert total == j - i + 1


def test_label_dims_match_constructed():
    for n in (2, 3, 4):
        ctx = AlgebraContext(n, 3)
        for label in all_labels(n):
            assert make_indec(label, ctx).dims == label_dims(label, n)


def test_all_indecs_satisfy_relation():
    for n in range(2, 7):
        for p in (2, 3, 5):
            ctx = AlgebraContext(n, p)
            for label in all_labels(n):
                assert check_relation(make_indec(label, ctx))


def test_loop_shape():
    ctx = AlgebraContext(2, 5)
    u = make_indec(IndecLabel("U", 1, 1), ctx)
    assert u.loop.entries == ((0, 0), (1, 0))
    w = make_indec(IndecLabel("W", 1, 1), ctx)
    assert w.loop.rows == 0 and w.loop.cols == 0


def test_check_relation_rejects_bad_loop():
    ctx = AlgebraContext(2, 2)
    good = make_indec(IndecLabel("U", 1, 1), ctx)
    bad = Representation(ctx, good.dims, good.arrow, PrimeFieldMatrix(2, ((1, 0), (0, 1))))
    assert not check_relation(bad)
    squared_zero = Representation(
        ctx, good.dims, good.arrow, PrimeFieldMatrix(2, ((0, 1), (0, 0)))
    )
    assert check_relation(squared_zero)


def test_simple_labels():
    ctx = AlgebraContext(3, 2)
    assert simple(1, ctx) == IndecLabel("W", 1, 1)
    assert simple(2, ctx) == IndecLabel("W", 2, 2)
    assert simple(3, ctx) == IndecLabel("V", 3)
    with pytest.raises(LabelError):
        simple(4, ctx)


def test_direct_sum_dims():
    ctx = AlgebraContext(2, 2)
    a = make_indec(IndecLabel("V", 1), ctx)
    b = make_indec(IndecLabel("V", 2), ctx)
    s = direct_sum(a, b)
    assert s.dims == (1, 2)
    assert check_relation(s)
    z = zero_rep(ctx)
    assert direct_sum(a, z).dims == a.dims
    assert direct_sum(a, z).arrow == a.arrow
    with pytest.raises(ValueError):
        direct_sum(a, make_indec(IndecLabel("V", 1), AlgebraContext(2, 3)))


def test_rep_of_multiset_order_independent():
    ctx = AlgebraContext(3, 2)
    ms1 = (IndecLabel("V", 1), IndecLabel("W", 1, 2))
    ms2 = (IndecLabel("W", 1, 2), IndecLabel("V", 1))
    assert rep_of_multiset(ms1, ctx) == rep_of_multiset(ms2, ctx)


def test_raw_sum_matches_validated_sums(rng):
    # the raw sum against the validated modules: rep_of_multiset, and a
    # chain of pairwise direct sums of indecomposables in canonical order
    for n in (2, 3, 4):
        labels = all_labels(n)
        for p in (2, 3, 5):
            ctx = AlgebraContext(n, p)
            for k in [0] + [rng.randint(0, 4) for _ in range(30)]:
                ms = rng.choices(labels, k=k)
                ordered = sorted(ms, key=IndecLabel.sort_key)
                chain = reduce(direct_sum, (make_indec(l, ctx) for l in ordered), zero_rep(ctx))
                assert raw_sum(ms, n) == raw_rep(rep_of_multiset(ms, ctx)) == raw_rep(chain), ms


def test_witness_validation():
    ctx = AlgebraContext(2, 2)
    parent = make_indec(IndecLabel("U", 1, 1), ctx)  # dims (2,2), loop e1->e2
    full = tuple(SubspaceBasis.full(2, d) for d in parent.dims)
    validate_witness(SubmoduleWitness(parent, full))
    # vertex-2 line spanned by e1 is not loop-stable
    bad = SubmoduleWitness(
        parent,
        (SubspaceBasis.zero(2, 2), SubspaceBasis.from_rows(2, 2, [[1, 0]])),
    )
    with pytest.raises(WitnessError):
        validate_witness(bad)
    short = SubmoduleWitness(parent, (SubspaceBasis.zero(2, 2),))
    with pytest.raises(WitnessError):
        validate_witness(short)


def test_submodule_and_quotient_extremes():
    ctx = AlgebraContext(3, 3)
    parent = rep_of_multiset((IndecLabel("U", 2, 1), IndecLabel("V", 3)), ctx)
    zero_spaces = tuple(SubspaceBasis.zero(3, d) for d in parent.dims)
    sub, quot = submodule_and_quotient(SubmoduleWitness(parent, zero_spaces))
    assert sub.dims == (0, 0, 0)
    assert quot.dims == parent.dims
    assert quot.arrow == parent.arrow and quot.loop == parent.loop
    full_spaces = tuple(SubspaceBasis.full(3, d) for d in parent.dims)
    sub, quot = submodule_and_quotient(SubmoduleWitness(parent, full_spaces))
    assert sub.dims == parent.dims
    assert sub.arrow == parent.arrow and sub.loop == parent.loop
    assert quot.dims == (0, 0, 0)


def test_submodule_outputs_satisfy_relation():
    ctx = AlgebraContext(2, 2)
    parent = make_indec(IndecLabel("U", 1, 1), ctx)
    # the line through e1 at vertex 1 with everything at vertex 2
    w = SubmoduleWitness(
        parent,
        (SubspaceBasis.from_rows(2, 2, [[1, 0]]), SubspaceBasis.full(2, 2)),
    )
    sub, quot = submodule_and_quotient(w)
    assert sub.dims == (1, 2)
    assert quot.dims == (1, 0)
    assert check_relation(sub)
    assert check_relation(quot)


def test_multisets_with_dims_small():
    # at n=2, dims (1,1) is V1 alone or W1,1 + V2
    found = multisets_with_dims(2, (1, 1))
    as_str = sorted(multiset_to_str(ms) for ms in found)
    assert as_str == ["V1", "W1,1 + V2"]
    assert len(multisets_with_dims(2, (2, 2))) == 7
    assert multisets_with_dims(2, (0, 0)) == ((),)


def test_multisets_dims_are_consistent():
    for ms in multisets_with_dims(3, (1, 2, 2)):
        dims = [0, 0, 0]
        for l in ms:
            for v, d in enumerate(label_dims(l, 3)):
                dims[v] += d
        assert tuple(dims) == (1, 2, 2)


def test_degree_table_inverts_label_dims():
    for n in (2, 3, 4):
        table = degree_table(n)
        assert list(table.by_label) == list(all_labels(n))
        for label in all_labels(n):
            assert table.dims(label) == label_dims(label, n)
            assert label in table.by_dims[label_dims(label, n)]
        assert sum(map(len, table.by_dims.values())) == len(all_labels(n))
        for labels in table.by_dims.values():
            assert list(labels) == sorted(labels, key=IndecLabel.sort_key)
    # U(i,j) and U(j,i) share a degree
    assert degree_table(2).by_dims[(1, 2)] == (IndecLabel("U", 1, 2), IndecLabel("U", 2, 1))


def test_degree_table_rejects_labels_off_the_basis():
    for bad in (IndecLabel("W", 1, 2), IndecLabel("V", 3), IndecLabel("U", 1, 3)):
        with pytest.raises(LabelError):
            degree_table(2).dims(bad)
        with pytest.raises(LabelError):
            multiset_dims((IndecLabel("V", 1), bad), 2)
    assert multiset_dims((), 2) == (0, 0)
    assert multiset_dims((IndecLabel("V", 1), IndecLabel("U", 1, 2)), 2) == (2, 3)


def test_json_round_trip():
    ctx = AlgebraContext(3, 5)
    rep = rep_of_multiset((IndecLabel("U", 3, 2), IndecLabel("W", 1, 1)), ctx)
    again = rep_from_json(rep_to_json(rep))
    assert again == rep


def test_json_rejections():
    good = rep_to_json(make_indec(IndecLabel("V", 2), AlgebraContext(2, 2)))
    with pytest.raises(RelationError):
        rep_from_json([])
    missing = dict(good)
    del missing["loop"]
    with pytest.raises(RelationError):
        rep_from_json(missing)
    bad_entry = rep_to_json(make_indec(IndecLabel("V", 2), AlgebraContext(2, 2)))
    bad_entry["loop"] = [[7]]
    with pytest.raises(RelationError):
        rep_from_json(bad_entry)
    bad_shape = dict(good)
    bad_shape["dims"] = [1]
    with pytest.raises(RelationError):
        rep_from_json(bad_shape)
    # loop that fails alpha^2 = 0
    square = {
        "p": 2,
        "n": 2,
        "dims": [0, 1],
        "arrows": [[[]]],
        "loop": [[1]],
    }
    with pytest.raises(RelationError, match="square"):
        rep_from_json(square)


@pytest.mark.parametrize(
    "key, value",
    [
        ("n", 2.9),
        ("p", "3"),
        ("p", 2.0),
        ("dims", [1, True]),
        ("arrows", [[[True]]]),
        ("loop", [[False]]),
    ],
)
def test_json_rejects_non_integers(key, value):
    data = rep_to_json(make_indec(IndecLabel("V", 1), AlgebraContext(2, 2)))
    assert rep_from_json(data).dims == (1, 1)
    data[key] = value
    with pytest.raises(RelationError):
        rep_from_json(data)
