import itertools

import pytest

from hallq.gf import (
    PrimeFieldMatrix,
    SubspaceBasis,
    enumerate_subspaces,
    first_primes,
    gaussian_binomial,
    is_supported_prime,
    mat_mul,
    mat_vec,
    matrix_rank,
    null_space,
    reduce_vector,
    row_reduce,
    unit_pivot_rref,
)


def span_of(gens, p: int, d: int) -> set[tuple[int, ...]]:
    # independent oracle: a subspace is its full set of vectors, listed as
    # all p^k combinations of its k generators
    return {
        tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % p for i in range(d))
        for coeffs in itertools.product(range(p), repeat=len(gens))
    }


def spans_by_brute_force(d: int, k: int, p: int) -> set[frozenset[tuple[int, ...]]]:
    vectors = list(itertools.product(range(p), repeat=d))
    spans = set()
    for gens in itertools.product(vectors, repeat=k):
        span = span_of(gens, p, d)
        if len(span) == p**k:
            spans.add(frozenset(span))
    return spans


def log_p(size: int, p: int) -> int:
    k = 0
    while size > 1:
        assert size % p == 0
        size //= p
        k += 1
    return k


def random_rows(rng, p: int, k: int, d: int) -> list[list[int]]:
    return [[rng.randrange(p) for _ in range(d)] for _ in range(k)]


def nullity(m: PrimeFieldMatrix) -> int:
    return m.cols - matrix_rank(m.entries, m.p)


def test_rref_identity():
    m = PrimeFieldMatrix(3, ((1, 0), (0, 1)))
    reduced, rank, pivots = row_reduce(m.entries, m.p, ncols=m.cols)
    assert reduced == m.entries
    assert rank == 2
    assert pivots == (0, 1)


def test_rref_zero():
    m = PrimeFieldMatrix(2, ((0, 0),) * 3)
    reduced, rank, pivots = row_reduce(m.entries, m.p, ncols=m.cols)
    # zero rows are dropped, so the basis of the zero row space is empty
    assert reduced == ()
    assert rank == 0
    assert pivots == ()


def test_rref_dependent_rows():
    # second row is twice the first mod 5
    m = PrimeFieldMatrix(5, ((1, 2), (2, 4)))
    _, rank, _ = row_reduce(m.entries, m.p)
    assert rank == 1


def test_rref_idempotent(rng):
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = PrimeFieldMatrix(
            p, tuple(tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows))
        )
        once, rank, pivots = row_reduce(m.entries, p, ncols=cols)
        twice, rank2, pivots2 = row_reduce(once, p, ncols=cols)
        assert twice == once
        assert (rank2, pivots2) == (rank, pivots)


def test_solve_intertwiner_dim():
    assert nullity(PrimeFieldMatrix(2, ((0, 0, 0, 0),) * 3)) == 4
    assert nullity(PrimeFieldMatrix(5, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == 0
    assert nullity(PrimeFieldMatrix(2, ((1, 1), (0, 0)))) == 1


def test_rank_plus_nullity(rng):
    for _ in range(50):
        p = rng.choice([2, 3, 5, 7])
        rows = rng.randrange(0, 5)
        cols = rng.randrange(1, 5)
        m = PrimeFieldMatrix(
            p,
            tuple(tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows)),
            shape=(rows, cols),
        )
        # nullity by counting the kernel: p^nullity vectors x with m.x = 0
        kernel = sum(
            not any(mat_vec(m.entries, x, p))
            for x in itertools.product(range(p), repeat=cols)
        )
        assert log_p(kernel, p) + matrix_rank(m.entries, p) == cols


def test_reduce_vector_decides_membership(rng):
    for p in (2, 3):
        for d in range(1, 5):
            for k in range(d + 1):
                gens = random_rows(rng, p, k, d)
                space = SubspaceBasis.from_rows(p, d, gens)
                span = span_of(gens, p, d)
                assert len(span) == p**space.dim
                for v in itertools.product(range(p), repeat=d):
                    residue = reduce_vector(v, space.row_basis, space.pivots, p)
                    assert (not any(residue)) == (v in span)
                    assert space.contains_vector(v) == (v in span)
                    # v and its residue differ by a vector of the span
                    assert tuple((a - b) % p for a, b in zip(v, residue)) in span


def test_null_space_is_the_kernel(rng):
    for p in (2, 3):
        for d in range(5):
            for _ in range(10):
                rows = random_rows(rng, p, rng.randrange(d + 2), d)
                basis = null_space(rows, p, d)
                kernel = {
                    v
                    for v in itertools.product(range(p), repeat=d)
                    if not any(mat_vec(rows, v, p))
                }
                assert len(basis) == d - matrix_rank(rows, p)
                assert span_of(basis, p, d) == kernel


def test_unit_pivot_rref_is_row_reduce_at_every_prime(rng):
    # random sparse 0/+-1 matrices; where every pivot is +-1 the integer
    # RREF reduces mod p to row_reduce's, row for row
    solved = 0
    for _ in range(300):
        nrows, d = rng.randrange(1, 7), rng.randrange(1, 8)
        dense = [[rng.choice((0, 0, 0, 1, -1)) for _ in range(d)] for _ in range(nrows)]
        sparse = [[(c, e) for c, e in enumerate(row) if e] for row in dense]
        try:
            rows, pivots = unit_pivot_rref(sparse)
        except ArithmeticError:
            continue
        solved += 1
        assert all(dict(row)[piv] == 1 for row, piv in zip(rows, pivots))
        assert list(pivots) == sorted(pivots)
        for p in (2, 3, 5, 7):
            want, rank, want_pivots = row_reduce([[e % p for e in row] for row in dense], p, ncols=d)
            got = tuple(tuple(dict(row).get(c, 0) % p for c in range(d)) for row in rows)
            assert (got, pivots) == (want, want_pivots), (dense, p)
    assert solved >= 200


def test_unit_pivot_rref_rejects_a_non_unit_pivot():
    # eliminating column 0 leaves -2 alone in column 1, which is 0 mod 2
    with pytest.raises(ArithmeticError, match="column 1"):
        unit_pivot_rref([[(0, 1), (1, 1)], [(0, 1), (1, -1)]])
    assert unit_pivot_rref([[(0, 0)], []]) == ((), ())


def test_rank_modulo_a_subspace(rng):
    for p in (2, 3):
        for d in range(1, 5):
            for _ in range(10):
                lower = SubspaceBasis.from_rows(p, d, random_rows(rng, p, rng.randrange(d + 1), d))
                rows = random_rows(rng, p, rng.randrange(d + 1), d)
                reduced = [reduce_vector(v, lower.row_basis, lower.pivots, p) for v in rows]
                joint = span_of(list(lower.row_basis) + rows, p, d)
                assert matrix_rank(reduced, p) == log_p(len(joint), p) - lower.dim
                assert matrix_rank(rows, p) == log_p(len(span_of(rows, p, d)), p)


def test_mat_mul_and_mat_vec_shapes(rng):
    p = 3
    for r, k, c in itertools.product(range(4), repeat=3):
        a = PrimeFieldMatrix(p, tuple(map(tuple, random_rows(rng, p, r, k))), shape=(r, k))
        b = PrimeFieldMatrix(p, tuple(map(tuple, random_rows(rng, p, k, c))), shape=(k, c))
        prod = a @ b
        assert (prod.rows, prod.cols) == (r, c)
        assert prod.entries == tuple(
            tuple(sum(a.entries[i][t] * b.entries[t][j] for t in range(k)) % p for j in range(c))
            for i in range(r)
        )
        assert mat_mul(a.entries, b.entries, p, ncols=c) == prod.entries
        v = [rng.randrange(p) for _ in range(k)]
        assert mat_vec(a.entries, v, p) == [
            sum(a.entries[i][t] * v[t] for t in range(k)) % p for i in range(r)
        ]
    with pytest.raises(AssertionError):
        mat_mul(((1, 2),), ((1,),), p)


def test_matmul_empty_inner_dimension():
    a = PrimeFieldMatrix(3, ((), ()), shape=(2, 0))
    b = PrimeFieldMatrix(3, (), shape=(0, 3))
    assert a @ b == PrimeFieldMatrix(3, ((0, 0, 0),) * 2)


def test_matmul_shape_check():
    a = PrimeFieldMatrix(2, ((0, 0, 0),) * 2)
    b = PrimeFieldMatrix(2, ((0, 0, 0),) * 2)
    with pytest.raises(ValueError):
        a @ b


def test_matrix_validation():
    with pytest.raises(ValueError):
        PrimeFieldMatrix(4, ((0,),))
    with pytest.raises(ValueError):
        PrimeFieldMatrix(3, ((0, 5),))
    with pytest.raises(ValueError):
        PrimeFieldMatrix(3, ((0, 1), (0,)))


def test_subspace_canonical_form():
    a = SubspaceBasis.from_rows(5, 3, [[1, 2, 3], [0, 1, 4]])
    b = SubspaceBasis.from_rows(5, 3, [[2, 4, 6], [1, 3, 2]])
    assert a == b
    assert a.dim == 2
    assert a.basis.cols == 2
    assert a.basis.rows == 3


def test_subspace_contains():
    s = SubspaceBasis.from_rows(2, 3, [[1, 1, 0]])
    assert s.contains_vector([1, 1, 0])
    assert not s.contains_vector([1, 0, 0])
    assert s.contains(SubspaceBasis.zero(2, 3))
    assert SubspaceBasis.full(2, 3).contains(s)


def test_enumerate_subspaces_small_counts():
    zero2 = SubspaceBasis.zero(2, 2)
    found = list(enumerate_subspaces(2, 2, zero2))
    assert len(found) == 5
    assert len(set(found)) == 5

    zero3 = SubspaceBasis.zero(3, 2)
    assert len(list(enumerate_subspaces(2, 3, zero3))) == 6

    full = SubspaceBasis.full(2, 3)
    assert list(enumerate_subspaces(3, 2, full)) == [full]


def test_enumerate_matches_gaussian_binomial():
    for p in (2, 3, 5):
        for d in range(5):
            seen = list(enumerate_subspaces(d, p, SubspaceBasis.zero(p, d)))
            assert len(seen) == len(set(seen))
            by_dim: dict[int, int] = {}
            for s in seen:
                by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
            for k in range(d + 1):
                assert by_dim.get(k, 0) == gaussian_binomial(d, k, p)


def test_enumerate_ascending_dimension():
    dims = [s.dim for s in enumerate_subspaces(3, 2, SubspaceBasis.zero(2, 3))]
    assert dims == sorted(dims)


def test_enumerate_with_lower_bound(rng):
    for _ in range(10):
        p = rng.choice([2, 3])
        d = rng.randrange(1, 5)
        k = rng.randrange(0, d + 1)
        lower = SubspaceBasis.from_rows(
            p, d, [[rng.randrange(p) for _ in range(d)] for _ in range(k)]
        )
        seen = list(enumerate_subspaces(d, p, lower))
        assert len(seen) == len(set(seen))
        expected = sum(
            gaussian_binomial(d - lower.dim, r, p) for r in range(d - lower.dim + 1)
        )
        assert len(seen) == expected
        for s in seen:
            assert s.contains(lower)
            # canonical form must agree with re-reduction from scratch
            assert s == SubspaceBasis.from_rows(p, d, s.row_basis)


def test_gaussian_binomial_values():
    assert gaussian_binomial(3, 0, 7) == 1
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 2) == 35
    assert len(spans_by_brute_force(4, 2, 2)) == 35
    assert len(spans_by_brute_force(2, 1, 3)) == 4
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3, 2)


def test_prime_helpers():
    assert is_supported_prime(2)
    assert is_supported_prime(97)
    assert not is_supported_prime(4)
    assert not is_supported_prime(101)
    assert first_primes(6) == (2, 3, 5, 7, 11, 13)
    with pytest.raises(ValueError):
        first_primes(26)
