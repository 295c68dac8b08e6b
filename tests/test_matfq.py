"""Linear algebra over F_q: rank, RREF, subspaces, Grassmannians, distance sandwich."""

import itertools
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankmetric import codes, matfq
from rankmetric.bounds import gaussian_binomial
from rankmetric.ff import SUPPORTED_Q, base_field, expand_to_matrix, make_field
from rankmetric.matfq import (
    MatrixFq,
    Subspace,
    _column_rank,
    _column_ranks,
    _rrefs,
    _sub_words,
    column_space,
    distance_sandwich_check,
    grassmannian_enumerate,
    grassmannian_order_key,
    matrix_from_jsonable,
    min_pairwise_rank_distance,
    rank,
    rank_decompose,
    rank_distances,
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
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_column_ranks_match_column_rank(q, seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 4 if q <= 4 else 3), rng.randint(1, 5)
    fld = make_field(q, m)
    # low-rank words: every entry an F_q-combination of t random elements
    gens = [rng.randrange(fld.order) for _ in range(rng.randint(0, min(m, n)))]

    def entry():
        x = 0
        for g in gens:
            x = fld.add(x, fld.mul(rng.randrange(q), g))
        return x

    words = [tuple(entry() for _ in range(n)) for _ in range(rng.randint(1, 24))]
    expected = [_column_rank(w, q, m, n) for w in words]
    assert _column_ranks(np.array(words), q, m).tolist() == expected
    r = tuple(rng.randrange(fld.order) for _ in range(n))
    diffs = _sub_words(np.array(r), np.array(words), fld).tolist()
    assert diffs == [[fld.sub(x, y) for x, y in zip(r, w)] for w in words]
    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matfq, "_BATCH_ROWS", 16)  # pair blocks cross rows of pairs
        for batch_min in (0, 1 << 60):
            mp.setattr(matfq, "_BATCH_MIN", batch_min)
            mp.setattr(matfq, "_BATCH_MIN_LOADED", batch_min)
            results.append(
                (
                    rank_distances((0,) * n, words, fld),
                    rank_distances(r, words, fld),
                    min_pairwise_rank_distance(words, fld),
                )
            )
    assert results[0] == results[1]
    assert results[0][0] == expected
    table = [[_column_rank(tuple(fld.sub(a, b) for a, b in zip(u, v)), q, m, n) for v in words] for u in words]
    pairwise = [table[i][j] for i in range(len(words)) for j in range(i + 1, len(words))]
    assert results[0][2] == (min(pairwise) if pairwise else None)


@pytest.mark.parametrize("m", [9, 17])
def test_column_ranks_wide_q2_fields(m):
    rng = random.Random(m)
    words = [[rng.randrange(1 << m) for _ in range(3)] for _ in range(50)]
    words += [[w[0], w[0], w[0] ^ w[1]] for w in words[:10]]
    assert _column_ranks(np.array(words), 2, m).tolist() == [_column_rank(w, 2, m, 3) for w in words]


def test_batch_rule_charges_numpy_import_until_loaded(monkeypatch):
    loaded = matfq._BATCH_MIN_LOADED
    assert matfq._batched(loaded, 16) and not matfq._batched(loaded - 1, 16)
    assert not matfq._batched(loaded, matfq._BATCH_ORDER + 1)
    monkeypatch.delitem(sys.modules, "numpy")  # as in a run that has not imported it yet
    assert not matfq._batched(matfq._BATCH_MIN - 1, 16)
    assert matfq._batched(matfq._BATCH_MIN, 16)


@pytest.mark.parametrize("q", SUPPORTED_Q)
@given(data=st.data())
def test_rank_of_vector_and_rank_leq_match_rref_rank(q, data):
    fld = make_field(q, data.draw(st.integers(1, 3)))
    vec = tuple(data.draw(st.lists(st.integers(0, fld.order - 1), min_size=1, max_size=4)))
    expected = len(_reference_rref(expand_to_matrix(vec, fld))[1])
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
    with pytest.raises(ValueError):
        subspace_from_jsonable(2, {"ambient": 3, "basis": [[1, 1, 0], [1, 0, 0]]})


@pytest.mark.parametrize("q", [2, 3, 4])
def test_subspaces_built_without_validation_are_canonical(q):
    # grassmannian_enumerate and from_vectors skip __post_init__'s rref;
    # the validating constructor must accept what they build
    spaces = [U for r in range(4) for U in grassmannian_enumerate(3, r, q)]
    spaces.append(Subspace.from_vectors(q, 4, [(1, 2 % q, 0, 1), (2 % q, 1, 1, 0), (1, 1, 1, 1)]))
    for U in spaces:
        assert Subspace(q, U.ambient_dim, U.basis) == U
        assert hash(Subspace(q, U.ambient_dim, U.basis)) == hash(U)
        assert all(type(x) is int for row in U.basis for x in row)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_matrices_built_without_validation_are_valid(q):
    # rref, transpose, mul, add, sub, scale and hstack skip __post_init__'s
    # checks; the validating constructor must accept what they build
    rng = random.Random(q)
    for _ in range(20):
        rows, cols = rng.randint(0, 4), rng.randint(1, 4)
        if rows:
            a, b = random_matrix(rng, q, rows, cols), random_matrix(rng, q, rows, cols)
        else:
            a = b = MatrixFq(q, (), ncols=cols)
        c = random_matrix(rng, q, cols, rng.randint(1, 4))
        built = [rref(a)[0], a.transpose(), a.mul(c), a.add(b), a.sub(b), a.scale(rng.randrange(q)), a.hstack(b)]
        for mat in built:
            valid = MatrixFq(mat.q, mat.rows, ncols=mat.ncols)
            assert mat == valid and hash(mat) == hash(valid)
            assert type(mat.rows) is tuple and all(type(r) is tuple for r in mat.rows)
            assert all(type(x) is int for r in mat.rows for x in r)


def test_subspace_contains():
    s = Subspace.from_vectors(2, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    assert s.contains((1, 1, 1, 1))
    assert not s.contains((1, 0, 0, 0))
    assert s.contains((0, 0, 0, 0))


def _draw_matrix(data, q, nrows, ncols):
    """An nrows x ncols matrix, or half the time one with a last row that is
    a combination of two others (else q > 2 is nearly always full rank)."""
    F = base_field(q)
    entries = st.lists(st.integers(0, q - 1), min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(entries, min_size=nrows, max_size=nrows))
    if nrows >= 2 and data.draw(st.booleans()):
        (a, i), (b, j) = (data.draw(st.tuples(st.integers(0, q - 1), st.integers(0, nrows - 2))) for _ in range(2))
        rows[-1] = [F.add(F.mul(a, x), F.mul(b, y)) for x, y in zip(rows[i], rows[j])]
    return MatrixFq(q, tuple(map(tuple, rows)), ncols=ncols)


@pytest.mark.parametrize("q", SUPPORTED_Q)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rank_matches_rref_pivot_count(q, data):
    nrows, ncols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 5))
    mat = _draw_matrix(data, q, nrows, ncols)
    assert rank(mat) == len(_reference_rref(mat)[1])
    assert rank(MatrixFq(q, (), ncols=ncols)) == 0 and rank(MatrixFq(q, ((),) * nrows, ncols=0)) == 0


@pytest.mark.parametrize("q", SUPPORTED_Q)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rrefs_match_rref_matrix_by_matrix(q, data):
    nrows, ncols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 5))
    mats = [_draw_matrix(data, q, nrows, ncols) for _ in range(data.draw(st.integers(0, 8)))]
    block = np.array([m.rows for m in mats], dtype=np.uint8).reshape(len(mats), nrows, ncols)
    given_block = block.copy()
    reduced, ranks = _rrefs(block, q)
    assert np.array_equal(block, given_block)  # the stack is not reduced in place
    assert reduced.shape == block.shape and reduced.dtype == np.uint8 and ranks.dtype == np.int64
    for mat, got in zip(mats, reduced.tolist()):
        assert tuple(map(tuple, got)) == rref(mat)[0].rows
    expected_ranks = [len(_reference_rref(mat)[1]) for mat in mats]
    assert ranks.tolist() == expected_ranks
    packed = (block.astype(np.int64) * q ** np.arange(ncols)).sum(axis=2)  # entry j of a row is digit j
    assert _column_ranks(packed, q, ncols).tolist() == expected_ranks
    # zero rows below and zero columns to the right stay zero and change nothing else
    extra_rows, extra_cols = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    padded = np.zeros((len(mats), nrows + extra_rows, ncols + extra_cols), dtype=np.uint8)
    padded[:, :nrows, :ncols] = block
    padded_reduced, padded_ranks = _rrefs(padded, q)
    assert np.array_equal(padded_reduced[:, :nrows, :ncols], reduced)
    assert not padded_reduced[:, nrows:].any() and not padded_reduced[:, :, ncols:].any()
    assert np.array_equal(padded_ranks, ranks)


@pytest.mark.parametrize("shape", [(0, 3, 4), (3, 0, 4), (3, 4, 0)])
def test_rrefs_of_empty_stacks(shape):
    for q in SUPPORTED_Q:
        reduced, ranks = _rrefs(np.zeros(shape, dtype=np.uint8), q)
        assert reduced.shape == shape and ranks.tolist() == [0] * shape[0]


def _reference_rref(mat):
    """RREF by the element-by-element Gauss-Jordan loop, calling only
    BaseField.add/sub/mul/inv: the reference for the table-driven rref."""
    F = base_field(mat.q)
    rows = [list(r) for r in mat.rows]
    pivots, r = [], 0
    for c in range(mat.ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                coef = rows[i][c]
                rows[i] = [F.sub(x, F.mul(coef, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(map(tuple, rows)), tuple(pivots)


def _reference_product(a, b):
    F = base_field(a.q)
    out = []
    for ra in a.rows:
        row = []
        for j in range(b.ncols):
            acc = 0
            for x, rb in zip(ra, b.rows):
                acc = F.add(acc, F.mul(x, rb[j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_axpy_table_is_x_minus_c_y(q):
    F = base_field(q)
    for c, x, y in itertools.product(range(q), repeat=3):
        assert F._axpy[c][x][y] == F.sub(x, F.mul(c, y))
    xs, ys = tuple(range(q)), tuple(reversed(range(q)))
    for c in range(q):
        assert F.axpy_row(c, xs, ys) == tuple(F.sub(x, F.mul(c, y)) for x, y in zip(xs, ys))
        assert F.scale_row(c, xs) == tuple(F.mul(c, x) for x in xs)


@pytest.mark.parametrize("q", SUPPORTED_Q)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_matrix_layer_matches_scalar_reference(q, data):
    F = base_field(q)
    nrows, ncols, width = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 5)), data.draw(st.integers(0, 4))
    x, y = _draw_matrix(data, q, nrows, ncols), _draw_matrix(data, q, nrows, ncols)
    b = _draw_matrix(data, q, ncols, width)
    reduced, pivots = rref(x)
    assert (reduced.rows, pivots) == _reference_rref(x)
    assert x.add(y).rows == tuple(tuple(F.add(s, t) for s, t in zip(r, u)) for r, u in zip(x.rows, y.rows))
    assert x.sub(y).rows == tuple(tuple(F.sub(s, t) for s, t in zip(r, u)) for r, u in zip(x.rows, y.rows))
    assert x.mul(b).rows == _reference_product(x, b) and x.mul(b).shape == (nrows, width)
    xt = x.transpose()
    assert xt.shape == (ncols, nrows)
    assert xt.rows == tuple(tuple(x.rows[i][j] for i in range(nrows)) for j in range(ncols))
    G, H = rank_decompose(x)
    for factor in (G, H):
        assert factor == MatrixFq(q, factor.rows, ncols=factor.ncols)
        assert all(type(r) is tuple for r in factor.rows)
    assert (G.nrows, G.ncols, H.nrows, H.ncols) == (len(pivots), nrows, len(pivots), ncols)
    assert _reference_product(G.transpose(), H) == x.rows


def test_every_rref_runs_the_one_gauss_jordan_loop(monkeypatch):
    assert codes._gauss_jordan is matfq._gauss_jordan
    gauss_jordan, fields = matfq._gauss_jordan, []

    def counted(rows, ncols, F):
        fields.append(F)
        return gauss_jordan(rows, ncols, F)

    monkeypatch.setattr(matfq, "_gauss_jordan", counted)
    monkeypatch.setattr(codes, "_gauss_jordan", counted)
    x2, x3 = MatrixFq(2, ((1, 1, 0), (0, 1, 1))), MatrixFq(3, ((1, 2, 0), (2, 1, 1)))
    code = codes.GabidulinCode(make_field(2, 4), n=4, k=2)
    for run in (
        lambda: rref(x2),
        lambda: rref(x3),
        lambda: row_space(x3),
        lambda: column_space(x2),
        lambda: rank_decompose(x3),
        lambda: code._unit_keys,
    ):
        before = len(fields)
        run()
        assert len(fields) == before + 1
    assert fields[:5] == [base_field(2), base_field(3), base_field(3), base_field(2), base_field(3)]
    assert fields[5] is code.field


def _random_subspace(rng, q, n):
    return Subspace.from_vectors(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(0, n))])


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_subspace_contains_matches_span_enumeration(q):
    F, n, rng = base_field(q), 3, random.Random(q)
    for _ in range(6):
        U = _random_subspace(rng, q, n)
        span = set()
        for coefs in itertools.product(range(q), repeat=U.dim):
            acc = [0] * n
            for c, row in zip(coefs, U.basis):
                acc = [F.add(x, F.mul(c, y)) for x, y in zip(acc, row)]
            span.add(tuple(acc))
        assert {v for v in itertools.product(range(q), repeat=n) if U.contains(v)} == span
        # entries outside 0..q-1 used to index past (or, negative, from the end of) the field tables
        for bad in ((q, 0, 0), (0, -1, 0), (0, 0, -q)):
            with pytest.raises(ValueError, match="entries"):
                U.contains(bad)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_subspace_distance_matches_the_canonical_sum(q):
    rng = random.Random(100 + q)
    for _ in range(30):
        n = rng.randint(0, 4)
        U, V = _random_subspace(rng, q, n), _random_subspace(rng, q, n)
        assert subspace_distance(U, V) == 2 * U.sum(V).dim - U.dim - V.dim


def test_rank_questions_take_the_rank_kernel_not_rref(monkeypatch):
    # one _column_rank call per rank question; at q > 2 its rank is the pivot
    # count of _gauss_jordan, at q = 2 the XOR basis builds no RREF
    U = Subspace.from_vectors(3, 3, [(1, 2, 0)])
    V = Subspace.from_vectors(3, 3, [(0, 1, 1), (1, 0, 2)])
    mat = MatrixFq(3, ((1, 2, 0), (2, 1, 0)))
    U2 = Subspace.from_vectors(2, 3, [(1, 1, 0)])
    V2 = Subspace.from_vectors(2, 3, [(0, 1, 1), (1, 0, 0)])
    mat2 = MatrixFq(2, ((1, 1, 0), (1, 1, 0)))
    calls, eliminations = [], []
    gauss_jordan = matfq._gauss_jordan

    def counted(*args):
        calls.append(args)
        return _column_rank(*args)

    def refuse(*args):
        raise AssertionError("a q = 2 rank question built an RREF")

    monkeypatch.setattr(matfq, "_column_rank", counted)
    monkeypatch.setattr(matfq, "_gauss_jordan", lambda *args: eliminations.append(args) or gauss_jordan(*args))
    assert (rank(mat), subspace_distance(U, V), V.contains((1, 1, 0)), V.contains((1, 0, 0))) == (1, 3, True, False)
    assert len(calls) == len(eliminations) == 4
    monkeypatch.setattr(matfq, "_gauss_jordan", refuse)
    assert (rank(mat2), subspace_distance(U2, V2), V2.contains((1, 1, 1)), V2.contains((1, 1, 0))) == (1, 3, True, False)
    assert len(calls) == 8


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


def test_grassmannian_order_key_sorts_the_enumeration_to_itself():
    # every [n; r]_q <= 5000, n >= 1; r = 0 and r = n up to the largest such n
    checked = 0
    for q in SUPPORTED_Q:
        n = 1
        while gaussian_binomial(n, 1, q) <= 5000:
            for r in range(n + 1):
                if gaussian_binomial(n, r, q) <= 5000:
                    subspaces = grassmannian_enumerate(n, r, q)
                    shuffled = random.Random(n * 10 + r).sample(subspaces, len(subspaces))
                    assert sorted(shuffled, key=grassmannian_order_key) == subspaces, (n, r, q)
                    checked += 1
            n += 1
    assert checked > 100


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
    assert subspace_from_jsonable(2, dict(doc, ambient=np.int64(4))) == s


@pytest.mark.parametrize("ambient", [2.9, 2.0, "2", None])
def test_subspace_from_jsonable_refuses_non_integral_ambient(ambient):
    # a float ambient dimension used to be truncated by int(): 2.9 read as 2
    with pytest.raises(ValueError, match="ambient dimension must be an integer"):
        subspace_from_jsonable(2, {"ambient": ambient, "basis": [[1, 0]]})


def test_matrix_validation():
    with pytest.raises(ValueError, match="entries"):
        MatrixFq(2, ((0, 2),))
    # non-integral entries used to be truncated by int(): (0.5, 1.9) read as (0, 1)
    for bad in (0.5, 1.9, 1.0, "1", None):
        with pytest.raises(ValueError, match=f"entries must be integers, got {re.escape(repr(bad))}"):
            MatrixFq(2, ((0, 1), (1, bad)))
        with pytest.raises(ValueError, match="entries must be integers"):
            Subspace(2, 2, ((1, bad),))
        with pytest.raises(ValueError, match="entries must be integers"):
            matrix_from_jsonable(2, [[bad, 0]])
    mat = MatrixFq(3, ((np.int64(2), np.uint8(1)), (True, 0)))
    assert mat.rows == ((2, 1), (1, 0)) and all(type(x) is int for r in mat.rows for x in r)
    assert Subspace(3, 2, ((np.int32(1), np.int64(2)),)).basis == ((1, 2),)
    with pytest.raises(ValueError, match="ragged"):
        MatrixFq(2, ((0, 1), (1,)))
    with pytest.raises(ValueError, match="ncols"):
        MatrixFq(2, ())
