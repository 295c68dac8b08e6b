"""Linear algebra over F_q: rank, RREF, subspaces, Grassmannians, distance sandwich."""

import itertools
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rankmetric import codes, matfq
from rankmetric.bounds import gaussian_binomial
from rankmetric.ff import SUPPORTED_Q, base_field, make_field
from rankmetric.matfq import (
    MatrixFq,
    Subspace,
    _column_rank,
    _column_ranks,
    _digits,
    _elimination_ranks,
    _rank_table,
    _rrefs,
    _space_ranks,
    _word_sums,
    grassmannian_enumerate,
    grassmannian_order_key,
    matrix_from_jsonable,
    min_pairwise_rank_distance,
    rank,
    rank_distances,
    rank_of_vector,
    right_kernel,
    row_space,
    rref,
    subspace_distance,
    subspace_from_jsonable,
)
from reference import (
    column_space,
    distance_sandwich_check,
    expand_to_matrix,
    grassmannian_rref_bases,
    matrix_product,
    rank_decompose,
    transpose,
)


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
    assert rank(MatrixFq(2, ((0, 0, 0),) * 3)) == 0
    assert rank(MatrixFq(2, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))) == 4
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
                image = matrix_product(mat, MatrixFq(q, tuple((x,) for x in vec), ncols=1))
                assert image.rows == ((0,),) * mat.nrows


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
    r = tuple(rng.randrange(fld.order) for _ in range(n))
    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matfq, "_BATCH_ROWS", 16)  # pair blocks cross rows of pairs
        # the rank and sum tables, then elimination and digit subtraction
        for table_max in (matfq._RANK_TABLE_MAX, 0):
            mp.setattr(matfq, "_RANK_TABLE_MAX", table_max)
            assert _column_ranks(np.array(words), q, m).tolist() == expected
            diffs = _word_sums(fld, (np.array(r), np.array(words)), -1).tolist()
            assert diffs == [[fld.sub(x, y) for x, y in zip(r, w)] for w in words]
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
    assert results[0] == results[1] == results[2] == results[3]
    assert results[0][0] == expected
    table = [[_column_rank(tuple(fld.sub(a, b) for a, b in zip(u, v)), q, m, n) for v in words] for u in words]
    pairwise = [table[i][j] for i in range(len(words)) for j in range(i + 1, len(words))]
    assert results[0][2] == (min(pairwise) if pairwise else None)


@pytest.mark.parametrize("q", SUPPORTED_Q)
@settings(max_examples=8, deadline=None)
@given(m=st.integers(1, 4), n=st.integers(0, 4))
@example(m=1, n=3)
@example(m=2, n=1)
@example(m=2, n=0)
def test_space_ranks_match_the_rank_kernels(q, m, n):
    # every matrix of the space, index by index, against the stack kernel and
    # the scalar one; n = 0 is the one empty matrix, of rank 0
    total = q ** (m * n)
    assume(total <= 4096)
    ranks = _space_ranks(q, m, n)
    assert ranks.dtype == np.uint8 and ranks.shape == (total,)
    words = _digits(np.arange(total), q**m, n)
    assert ranks.tolist() == _elimination_ranks(words, q, m).tolist()
    assert ranks.tolist() == [_column_rank(w, q, m, n) for w in words.tolist()]


def _small_spaces():
    """(q, m, n) for every q in SUPPORTED_Q and n >= 1 with q^{mn} <= _RANK_TABLE_MAX."""
    return [
        (q, m, n)
        for q in SUPPORTED_Q
        for m in range(1, 17)
        for n in range(1, 17)
        if q ** (m * n) <= matfq._RANK_TABLE_MAX
    ]


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_rank_tables_match_elimination_on_every_small_space(q):
    # all words of a space of at most 4096, else 4096 random ones with a few of
    # low rank, through the table of _column_ranks and through elimination
    rng = np.random.default_rng(q)
    for _, m, n in (s for s in _small_spaces() if s[0] == q):
        order, total = q**m, q ** (m * n)
        if total <= 4096:
            words = _digits(np.arange(total), order, n)
        else:
            words = rng.integers(0, order, (4096, n))
            words[:64] = words[:64, :1] * (np.arange(n) % 2)  # rank <= 1: each column 0 or the first
        ranks = _column_ranks(words, q, m)
        assert ranks.dtype == np.int64, (q, m, n)
        assert np.array_equal(ranks, _elimination_ranks(words, q, m)), (q, m, n)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_block_distances_subtract_the_block_from_the_centre(q):
    # rank(c - w) for a nonzero centre c, on the table path and off it, against
    # scalar subtraction and ranks; the differences themselves are checked
    # too, since rank(c - w) = rank(w - c) hides a swapped difference table
    fld = make_field(q, 2)
    n = 2 if q > 3 else 3
    rng = random.Random(q)
    block = np.array([[rng.randrange(fld.order) for _ in range(n)] for _ in range(300)] + [[0] * n, [1] * n])
    for centre in ([1] + [0] * (n - 1), [rng.randrange(fld.order) for _ in range(n)]):
        expected_diffs = [[fld.sub(c, w) for c, w in zip(centre, word)] for word in block.tolist()]
        expected = [_column_rank(d, q, 2, n) for d in expected_diffs]
        with pytest.MonkeyPatch.context() as mp:
            for table_max in (matfq._RANK_TABLE_MAX, 0):
                mp.setattr(matfq, "_RANK_TABLE_MAX", table_max)
                center = np.array(centre, dtype=np.int64)
                assert _word_sums(fld, (center, block), -1).tolist() == expected_diffs
                assert matfq._block_distances(center, block, fld).tolist() == expected


def test_sum_tables_match_scalar_field_arithmetic():
    # both signs of every odd (p, width) whose sums read a table, every pair
    # of elements, against the scalar Field.add and Field.sub
    fields = {}
    for q in SUPPORTED_Q:
        for m in range(1, 6):
            if q % 2 and q ** (2 * m) <= matfq._RANK_TABLE_MAX:
                fld = make_field(q, m)
                fields.setdefault((fld.char, fld.m * fld.base.e), fld)
    assert sorted(fields) == [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]
    for (p, width), fld in fields.items():
        pairs = list(itertools.product(range(fld.order), repeat=2))
        for sign, op in ((1, fld.add), (-1, fld.sub)):
            table = matfq._sum_table(p, width, sign)
            assert table.dtype == np.int64 and table.shape == (fld.order, fld.order)
            assert table.reshape(-1).tolist() == [op(x, y) for x, y in pairs], (p, width, sign)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_word_sums_add_and_subtract_every_term(q):
    # several terms, broadcast, on the table path and off it, against scalar sums
    fld = make_field(q, 2)
    rng = np.random.default_rng(q)
    terms = [rng.integers(0, fld.order, (5, 1, 3)), rng.integers(0, fld.order, (4, 3)), rng.integers(0, fld.order, 3)]
    a, b, c = (np.broadcast_to(t, (5, 4, 3)).reshape(-1).tolist() for t in terms)
    with pytest.MonkeyPatch.context() as mp:
        for table_max in (matfq._RANK_TABLE_MAX, 0):
            mp.setattr(matfq, "_RANK_TABLE_MAX", table_max)
            sums, diffs = _word_sums(fld, iter(terms)), _word_sums(fld, iter(terms), -1)
            assert sums.shape == diffs.shape == (5, 4, 3) and sums.dtype == diffs.dtype == np.int64
            assert sums.reshape(-1).tolist() == [fld.add(fld.add(x, y), z) for x, y, z in zip(a, b, c)]
            assert diffs.reshape(-1).tolist() == [fld.sub(fld.sub(x, y), z) for x, y, z in zip(a, b, c)]


def test_rank_tables_are_cached_read_only_and_bounded():
    table = _rank_table(3, 2, 2)
    assert _rank_table(3, 2, 2) is table and not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 1
    for p, width, sign in ((3, 2, 1), (5, 1, -1)):
        assert matfq._sum_table(p, width, sign) is matfq._sum_table(p, width, sign)
        assert not matfq._sum_table(p, width, sign).flags.writeable
    _rank_table.cache_clear()
    for q, m, n in _small_spaces()[:40]:
        _rank_table(q, m, n)
    info = _rank_table.cache_info()
    assert info.maxsize == 16 and info.currsize == 16


@pytest.mark.parametrize("q, m, n", [(2, 4, 4), (3, 3, 2), (5, 2, 3), (9, 1, 3)])
def test_rank_table_cap_is_honoured(q, m, n, monkeypatch):
    # a space of exactly _RANK_TABLE_MAX matrices reads the table, one more
    # is eliminated, and the ranks agree
    total = q ** (m * n)
    words = _digits(np.random.default_rng(total).integers(0, total, 500), q**m, n)
    results = []
    for table_max, unused in ((total, "_elimination_ranks"), (total - 1, "_rank_table")):
        with monkeypatch.context() as mp:
            mp.setattr(matfq, "_RANK_TABLE_MAX", table_max)
            mp.setattr(matfq, unused, None)
            results.append(_column_ranks(words, q, m).tolist())
    assert results[0] == results[1] == [_column_rank(w, q, m, n) for w in words.tolist()]


@pytest.mark.parametrize("m", [9, 16, 17, 32])
def test_column_ranks_wide_q2_fields(m):
    # the uint8/16/32 edges of the XOR basis, and more columns than bits
    top = 1 << (m - 1)
    for n in (1, 3, m, m + 2):
        rng = random.Random(m * 100 + n)
        words = [[rng.randrange(1 << m) for _ in range(n)] for _ in range(60)]
        words += [[rng.randrange(top, 1 << m) for _ in range(n)] for _ in range(20)]  # top bit set
        words += [[top | rng.randrange(4) for _ in range(n)] for _ in range(20)]  # top bit, few low bits
        words += [[(1 << m) - 1] * n, [top] * n, [0] * n]
        for w in words[:20]:
            mixed = list(w)
            for j in range(1, n):  # repeated columns and XORs of earlier ones
                mixed[j] = mixed[j - 1] if rng.random() < 0.5 else mixed[rng.randrange(j)] ^ mixed[j - 1]
            words.append(mixed)
        if n >= 3:
            words += [[w[0], w[0], w[0] ^ w[1], *w[3:]] for w in words[:10]]
        ranks = _column_ranks(np.array(words, dtype=np.int64), 2, m).tolist()
        assert ranks == [_column_rank(w, 2, m, n) for w in words]
        assert max(ranks) <= min(m, n)


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
        assert (matfq._column_rank(vec, q, fld.m, tau) <= tau) == (expected <= tau)


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
    assert Subspace(2, 3, ()).dim == 0
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
    # rref skips __post_init__'s checks; the validating constructor must
    # accept what it builds
    rng = random.Random(q)
    for _ in range(20):
        rows, cols = rng.randint(0, 4), rng.randint(1, 4)
        a = random_matrix(rng, q, rows, cols) if rows else MatrixFq(q, (), ncols=cols)
        mat = rref(a)[0]
        valid = MatrixFq(mat.q, mat.rows, ncols=mat.ncols)
        assert mat == valid and hash(mat) == hash(valid)
        assert type(mat.rows) is tuple and all(type(r) is tuple for r in mat.rows)
        assert all(type(x) is int for r in mat.rows for x in r)


def _contains(U, vec):
    """Whether vec lies in U: stacking it under U's basis keeps the rank."""
    return rank(MatrixFq(U.q, U.basis + (tuple(vec),), ncols=U.ambient_dim)) == U.dim


def test_subspace_contains():
    s = Subspace.from_vectors(2, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    assert _contains(s, (1, 1, 1, 1))
    assert not _contains(s, (1, 0, 0, 0))
    assert _contains(s, (0, 0, 0, 0))


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
    nrows, ncols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 5))
    x = _draw_matrix(data, q, nrows, ncols)
    reduced, pivots = rref(x)
    assert (reduced.rows, pivots) == _reference_rref(x)
    G, H = rank_decompose(x)
    assert (G.nrows, G.ncols, H.nrows, H.ncols) == (len(pivots), nrows, len(pivots), ncols)
    assert matrix_product(transpose(G), H).rows == x.rows


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
        assert {v for v in itertools.product(range(q), repeat=n) if _contains(U, v)} == span
        # entries outside 0..q-1 used to index past (or, negative, from the end of) the field tables
        for bad in ((q, 0, 0), (0, -1, 0), (0, 0, -q)):
            with pytest.raises(ValueError, match="entries"):
                _contains(U, bad)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_subspace_distance_matches_the_canonical_sum(q):
    rng = random.Random(100 + q)
    for _ in range(30):
        n = rng.randint(0, 4)
        U, V = _random_subspace(rng, q, n), _random_subspace(rng, q, n)
        assert subspace_distance(U, V) == 2 * row_space(MatrixFq(q, U.basis + V.basis, ncols=n)).dim - U.dim - V.dim


def test_rank_questions_take_the_rank_kernel_not_rref(monkeypatch):
    # at q > 2 one _gauss_jordan call on the rows as they are per rank
    # question, with no _column_rank digit round trip; at q = 2 one
    # _column_rank call, whose XOR basis builds no RREF
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
    monkeypatch.setattr(matfq, "_gauss_jordan", lambda rows, *rest: eliminations.append(rows[:]) or gauss_jordan(rows, *rest))
    assert (rank(mat), subspace_distance(U, V)) == (1, 3)
    assert calls == [] and len(eliminations) == 2
    assert eliminations[0] == list(mat.rows)
    monkeypatch.setattr(matfq, "_gauss_jordan", refuse)
    assert (rank(mat2), subspace_distance(U2, V2)) == (1, 3)
    assert len(calls) == 2


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


def test_grassmannian_enumerate_matches_the_reference_loop():
    # the row products against one filled basis per free-value tuple, for
    # every q and every (n, r) with [n; r]_q <= 5000
    checked = 0
    for q in SUPPORTED_Q:
        n = 0
        while n == 0 or gaussian_binomial(n, 1, q) <= 5000:
            for r in range(n + 1):
                if gaussian_binomial(n, r, q) <= 5000:
                    subspaces = grassmannian_enumerate(n, r, q)
                    assert [U.basis for U in subspaces] == grassmannian_rref_bases(n, r, q), (n, r, q)
                    assert all(U.q == q and U.ambient_dim == n for U in subspaces)
                    checked += 1
            n += 1
    assert checked > 100


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
    ident = MatrixFq(2, ((1, 0), (0, 1)))
    G, H = rank_decompose(ident)
    assert matrix_product(transpose(G), H).rows == ident.rows
    zero = MatrixFq(2, ((0, 0, 0),) * 3)
    G0, H0 = rank_decompose(zero)
    assert G0.nrows == 0 and H0.nrows == 0
    assert matrix_product(transpose(G0), H0).rows == zero.rows


@given(st.integers(0, 2**30 - 1), st.sampled_from([2, 3]))
def test_rank_decompose_roundtrip(seed, q):
    rng = random.Random(seed)
    mat = random_matrix(rng, q, rng.randint(1, 6), rng.randint(1, 6))
    G, H = rank_decompose(mat)
    r = rank(mat)
    assert G.shape == (r, mat.nrows) and H.shape == (r, mat.ncols)
    assert rank(G) == rank(H) == r
    assert matrix_product(transpose(G), H).rows == mat.rows
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
    x = MatrixFq(2, ((1, 0), (0, 1)))
    y = MatrixFq(2, ((0, 0), (0, 0)))
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
