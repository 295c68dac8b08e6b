"""Linear algebra over F_q: rank, RREF, subspaces, Grassmannians, distance sandwich."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from rankmetric.bounds import gaussian_binomial
from rankmetric.ff import SUPPORTED_Q, base_field, expand_to_matrix, make_field
from rankmetric.matfq import (
    MatrixFq,
    Subspace,
    _column_rank,
    column_space,
    distance_sandwich_check,
    grassmannian_enumerate,
    matrix_from_jsonable,
    rank,
    rank_decompose,
    rank_of_vector,
    right_kernel,
    row_space,
    rref,
    subspace_distance,
    subspace_from_jsonable,
)
from rankmetric.oracle import rank_leq


def random_matrix(rng, q, rows, cols):
    return MatrixFq(q, tuple(tuple(rng.randrange(q) for _ in range(cols)) for _ in range(rows)))


def span_size_rank(mat):
    """Independent rank oracle: rank = log_q of the row-span size."""
    F = base_field(mat.q)
    span = set()
    for coefs in itertools.product(range(mat.q), repeat=mat.nrows):
        acc = [0] * mat.ncols
        for c, row in zip(coefs, mat.rows):
            if c:
                acc = [F.add(x, F.mul(c, y)) for x, y in zip(acc, row)]
        span.add(tuple(acc))
    size = len(span)
    r = 0
    while mat.q**r < size:
        r += 1
    assert mat.q**r == size
    return r


def test_rank_examples():
    assert rank(MatrixFq.zeros(2, 3, 3)) == 0
    assert rank(MatrixFq.identity(2, 4)) == 4
    assert rank(MatrixFq(2, ((1, 1), (1, 1)))) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rank_matches_span_size_oracle(q):
    rng = random.Random(17 + q)
    for _ in range(40):
        mat = random_matrix(rng, q, rng.randint(1, 3), rng.randint(1, 4))
        assert rank(mat) == span_size_rank(mat)


def test_rank_nullity():
    rng = random.Random(5)
    for q in (2, 3):
        for _ in range(200):
            mat = random_matrix(rng, q, rng.randint(1, 5), rng.randint(1, 5))
            kernel = right_kernel(mat)
            assert rank(mat) + len(kernel) == mat.ncols
            for vec in kernel:
                image = mat.mul(MatrixFq(q, tuple((x,) for x in vec), ncols=1))
                assert image.is_zero()


def test_gf2_rank_ints_matches_generic():
    rng = random.Random(11)
    for _ in range(200):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        cols = [rng.randrange(1 << m) for _ in range(n)]
        mat = MatrixFq(2, tuple(tuple((c >> i) & 1 for c in cols) for i in range(m)), ncols=n)
        assert _column_rank(cols, 2, m, n) == rank(mat)
        limit = rng.randint(0, n)
        assert _column_rank(cols, 2, m, limit) == min(rank(mat), limit + 1)


@pytest.mark.parametrize("q", SUPPORTED_Q)
@given(data=st.data())
def test_rank_of_vector_and_rank_leq_match_rref_rank(q, data):
    fld = make_field(q, data.draw(st.integers(1, 3)))
    vec = tuple(data.draw(st.lists(st.integers(0, fld.order - 1), min_size=1, max_size=4)))
    expected = rank(expand_to_matrix(vec, fld))
    assert rank_of_vector(vec, fld) == expected
    for tau in range(len(vec) + 1):
        assert rank_leq(vec, fld, tau) == (expected <= tau)


def test_rank_of_vector_examples():
    F4 = make_field(2, 2)
    assert rank_of_vector((0, 0, 0), F4) == 0
    assert rank_of_vector((1, 2), F4) == 2
    assert rank_of_vector((1, 1), F4) == 1
    F9 = make_field(3, 2)
    assert rank_of_vector((1, 3), F9) == 2  # 1 and the generator are independent


def test_rref_idempotent_and_pivots():
    rng = random.Random(23)
    for q in (2, 3, 5):
        for _ in range(50):
            mat = random_matrix(rng, q, rng.randint(1, 4), rng.randint(1, 5))
            reduced, pivots = rref(mat)
            again, pivots2 = rref(reduced)
            assert again.rows == reduced.rows and pivots == pivots2
            for i, p in enumerate(pivots):
                assert reduced.rows[i][p] == 1
                assert all(reduced.rows[j][p] == 0 for j in range(len(reduced.rows)) if j != i)


def test_subspace_canonical_equality():
    s1 = Subspace.from_vectors(2, 3, [(1, 1, 0), (0, 1, 1)])
    s2 = Subspace.from_vectors(2, 3, [(1, 0, 1), (1, 1, 0), (0, 1, 1)])
    assert s1 == s2
    assert s1.dim == 2
    assert Subspace.zero(2, 3).dim == 0
    with pytest.raises(ValueError):
        Subspace(2, 3, ((1, 1, 0), (1, 0, 0)))  # not RREF


def test_subspace_contains():
    s = Subspace.from_vectors(2, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    assert s.contains((1, 1, 1, 1))
    assert not s.contains((1, 0, 0, 0))
    assert s.contains((0, 0, 0, 0))


def test_subspace_distance_examples():
    u = Subspace.from_vectors(2, 2, [(1, 0)])
    v = Subspace.from_vectors(2, 2, [(0, 1)])
    assert subspace_distance(u, u) == 0
    assert subspace_distance(u, v) == 2
    w = Subspace.from_vectors(2, 2, [(1, 0), (0, 1)])
    assert subspace_distance(u, w) == 1
    with pytest.raises(ValueError, match="ambient"):
        subspace_distance(u, Subspace.from_vectors(2, 3, [(1, 0, 0)]))


def test_subspace_distance_is_a_metric_on_f2_4():
    spaces = [s for r in range(5) for s in grassmannian_enumerate(4, r, 2)]
    assert len(spaces) == 67
    dist = [[subspace_distance(a, b) for b in spaces] for a in spaces]
    for i in range(67):
        assert dist[i][i] == 0
        for j in range(67):
            assert dist[i][j] == dist[j][i]
            assert (dist[i][j] == 0) == (i == j)
    for i in range(67):
        for j in range(67):
            dij = dist[i][j]
            for k in range(67):
                assert dij <= dist[i][k] + dist[k][j]


@pytest.mark.parametrize(
    "n,r,q,expected",
    [(2, 1, 2, 3), (4, 2, 2, 35), (3, 0, 2, 1), (3, 3, 2, 1), (3, 1, 3, 13)],
)
def test_grassmannian_counts(n, r, q, expected):
    spaces = grassmannian_enumerate(n, r, q)
    assert len(spaces) == expected == gaussian_binomial(n, r, q)
    assert len(set(spaces)) == expected


def test_grassmannian_matches_bruteforce_rowspace_count():
    # independent oracle: distinct row spaces of all r x n matrices
    for n, r, q in ((4, 2, 2), (3, 2, 3)):
        seen = set()
        for entries in itertools.product(range(q), repeat=r * n):
            rows = tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(r))
            s = Subspace.from_vectors(q, n, rows)
            if s.dim == r:
                seen.add(s)
        enumerated = grassmannian_enumerate(n, r, q)
        assert seen == set(enumerated)


def test_grassmannian_counts_sweep():
    for q, nmax in ((2, 6), (3, 4)):
        for n in range(nmax + 1):
            for r in range(n + 1):
                assert len(grassmannian_enumerate(n, r, q)) == gaussian_binomial(n, r, q)


def test_grassmannian_guard():
    with pytest.raises(ValueError, match="guard"):
        grassmannian_enumerate(30, 15, 2)


def test_grassmannian_deterministic_order():
    a = grassmannian_enumerate(4, 2, 2)
    b = grassmannian_enumerate(4, 2, 2)
    assert a == b
    # first subspace has pivots (0, 1) with zero free entries
    assert a[0].basis == ((1, 0, 0, 0), (0, 1, 0, 0))
    # pivot patterns lexicographic, then free entries ascending
    lines = grassmannian_enumerate(2, 1, 2)
    assert [s.basis for s in lines] == [((1, 0),), ((1, 1),), ((0, 1),)]


def test_rank_decompose_examples():
    ident = MatrixFq.identity(2, 2)
    G, H = rank_decompose(ident)
    assert G.transpose().mul(H).rows == ident.rows
    zero = MatrixFq.zeros(2, 3, 3)
    G0, H0 = rank_decompose(zero)
    assert G0.nrows == 0 and H0.nrows == 0
    assert G0.transpose().mul(H0).rows == zero.rows


@given(st.integers(0, 2**30 - 1), st.sampled_from([2, 3]))
def test_rank_decompose_roundtrip(seed, q):
    rng = random.Random(seed)
    mat = random_matrix(rng, q, rng.randint(1, 6), rng.randint(1, 6))
    G, H = rank_decompose(mat)
    r = rank(mat)
    assert G.shape == (r, mat.nrows) and H.shape == (r, mat.ncols)
    assert rank(G) == rank(H) == r
    assert G.transpose().mul(H).rows == mat.rows
    assert row_space(G) == column_space(mat)
    assert row_space(H) == row_space(mat)


def test_distance_sandwich_trivial_and_exhaustive_rank1():
    x = MatrixFq(2, ((1, 0), (0, 0)))
    assert distance_sandwich_check(x, x) == (0, 0, 1)
    rank1 = [
        MatrixFq(2, ((a, b), (c, d)))
        for a, b, c, d in itertools.product(range(2), repeat=4)
        if rank(MatrixFq(2, ((a, b), (c, d)))) == 1
    ]
    assert len(rank1) == 9
    max_lower = 0
    for x in rank1:
        for y in rank1:
            lower, middle, upper = distance_sandwich_check(x, y)
            assert lower <= middle <= upper
            max_lower = max(max_lower, lower)
    assert max_lower == 2  # distinct row and column spaces reach the bound


@given(st.integers(0, 2**30 - 1))
def test_distance_sandwich_random_equal_rank_pairs(seed):
    rng = random.Random(seed)
    while True:
        x = random_matrix(rng, 2, 4, 4)
        y = random_matrix(rng, 2, 4, 4)
        if rank(x) == rank(y):
            break
    lower, middle, upper = distance_sandwich_check(x, y)
    assert lower <= middle <= upper


def test_distance_sandwich_rejects_unequal_ranks():
    x = MatrixFq.identity(2, 2)
    y = MatrixFq.zeros(2, 2, 2)
    with pytest.raises(ValueError, match="unequal ranks"):
        distance_sandwich_check(x, y)


def test_matrix_serialization_roundtrip():
    mat = MatrixFq(3, ((1, 2, 0), (0, 1, 2)))
    assert matrix_from_jsonable(3, mat.to_jsonable()).rows == mat.rows
    s = Subspace.from_vectors(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    doc = s.to_jsonable()
    assert set(doc) == {"ambient", "basis"}
    assert subspace_from_jsonable(2, doc) == s


def test_matrix_validation():
    with pytest.raises(ValueError, match="entries"):
        MatrixFq(2, ((0, 2),))
    with pytest.raises(ValueError, match="ragged"):
        MatrixFq(2, ((0, 1), (1,)))
    with pytest.raises(ValueError, match="ncols"):
        MatrixFq(2, ())
