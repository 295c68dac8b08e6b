"""Acceptance gate: every criterion at its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` for one printed line per
criterion, or ``rankmetric verify`` for the same checks via the CLI.
"""

import random
import time

import numpy as np
import pytest

from rankmetric import acceptance, cli, matfq
from rankmetric.acceptance import CRITERIA
from rankmetric.ff import _digits
from rankmetric.matfq import MatrixFq
from reference import column_space, distance_sandwich_check, matrix_product, rank_decompose, transpose

# stated runtime budgets, seconds
BUDGETS = {1: 1, 2: 1, 3: 5, 4: 5, 5: 10, 6: 30, 7: 10, 8: 300, 9: 10, 10: 10, 11: 30, 12: 1}


@pytest.mark.parametrize("cid,desc,fn", CRITERIA, ids=[f"criterion-{c[0]:02d}" for c in CRITERIA])
def test_acceptance_criterion(cid, desc, fn):
    start = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - start
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {cid}: {desc} :: {detail} [{elapsed:.2f}s]")
    assert passed, f"criterion {cid} failed: {detail}"
    assert elapsed < BUDGETS[cid], f"criterion {cid} exceeded its {BUDGETS[cid]}s budget ({elapsed:.2f}s)"


# --- criteria 3 and 4 run batched; the scalar functions of reference.py are their reference ---


def _scalar_rank_decompose_samples():
    """Criterion 3's matrices drawn as the scalar loop draws them, one
    ``MatrixFq`` at a time, per q in {2, 3}."""
    rng = random.Random(0xDEC0)
    for q in (2, 3):
        draw = rng.getrandbits if q == 2 else lambda cols: rng.randrange(q**cols)
        mats = []
        for _ in range(1000):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            mats.append(MatrixFq(q, tuple(tuple(_digits(draw(cols), q, cols)) for _ in range(rows))))
        yield q, mats


def _scalar_sandwich_samples():
    """Criterion 4's first 1000 equal-rank pairs, drawn as the scalar loop
    draws them, and the rank-1 2x2 matrices."""
    rng = random.Random(0x5A17)
    pairs = []
    while len(pairs) < 1000:
        X, Y = (MatrixFq(2, tuple(tuple(_digits(rng.getrandbits(4), 2, 4)) for _ in range(4))) for _ in range(2))
        if matfq.rank(X) == matfq.rank(Y):
            pairs.append((X, Y))
    rank1 = [
        M
        for bits in range(16)
        for M in [MatrixFq(2, ((bits & 1, (bits >> 1) & 1), ((bits >> 2) & 1, (bits >> 3) & 1)))]
        if matfq.rank(M) == 1
    ]
    return pairs, rank1


def _padded(rows, ncols):
    """``rows``, each of ncols entries, as a 6 x 6 matrix, zero-padded."""
    return tuple(tuple(row) + (0,) * (6 - ncols) for row in rows) + ((0,) * 6,) * (6 - len(rows))


def _as_rows(matrix):
    return tuple(map(tuple, matrix.tolist()))


def test_criterion_3_batched_decomposition_matches_the_scalar_functions():
    batched = list(acceptance._rank_decompose_samples())
    for (q, shapes, X), (q_scalar, mats) in zip(batched, _scalar_rank_decompose_samples(), strict=True):
        assert q == q_scalar and shapes == [m.shape for m in mats]
        G, H = acceptance._rank_decompositions(X, q)
        product = acceptance._prime_products(G, H, q)
        reduced = {name: matfq._rrefs(stack, q)[0] for name, stack in (("G", G), ("H", H), ("XT", X.transpose(0, 2, 1)))}
        for i, mat in enumerate(mats):
            rows, cols = mat.shape
            G_s, H_s = rank_decompose(mat)
            assert _as_rows(X[i]) == _padded(mat.rows, cols)
            assert _as_rows(G[i]) == _padded(G_s.rows, rows) and _as_rows(H[i]) == _padded(H_s.rows, cols)
            assert _as_rows(product[i]) == _padded(matrix_product(transpose(G_s), H_s).rows, cols)
            assert _as_rows(reduced["G"][i]) == _padded(matfq.row_space(G_s).basis, rows)
            assert _as_rows(reduced["XT"][i]) == _padded(column_space(mat).basis, rows)
            assert _as_rows(reduced["H"][i]) == _padded(matfq.row_space(H_s).basis, cols)
            assert _as_rows(H[i]) == _padded(matfq.row_space(mat).basis, cols)


def test_criterion_4_batched_sandwiches_match_distance_sandwich_check():
    pairs, rank1 = acceptance._sandwich_samples()
    scalar_pairs, scalar_rank1 = _scalar_sandwich_samples()
    scalar_pairs += [(X, Y) for X in scalar_rank1 for Y in scalar_rank1]
    equal, lower, middle, upper = acceptance._sandwiches(pairs)
    assert equal.all() and rank1 == len(scalar_rank1) == 9 and len(pairs) == len(scalar_pairs) == 1081
    for i, (X, Y) in enumerate(scalar_pairs):
        padded = [row + (0,) * (4 - len(row)) for M in (X, Y) for row in M.rows + ((),) * (4 - M.nrows)]
        assert pairs[i].tolist() == [sum(x << j for j, x in enumerate(row)) for row in padded]
        assert (lower[i], middle[i], upper[i]) == distance_sandwich_check(X, Y)


@pytest.mark.parametrize(
    "call, detail",
    [
        (0, "G^T H != X for q=2, shape (4, 2)"),  # the RREF H of X, which G is read from
        (1, "Rowspace(G) != Colspace(X)"),
        (2, "Rowspace(G) != Colspace(X)"),  # the RREF of X^T
        (3, "Rowspace(H) != Rowspace(X)"),
    ],
)
def test_criterion_3_fails_on_a_corrupted_rref(monkeypatch, call, detail):
    rrefs, calls = matfq._rrefs, []

    def corrupted(block, q):
        reduced, ranks = rrefs(block, q)
        if len(calls) == call:  # one entry of the first matrix of one stack
            reduced[0, 0, 0] = (reduced[0, 0, 0] + 1) % q
        calls.append(q)
        return reduced, ranks

    monkeypatch.setattr(matfq, "_rrefs", corrupted)
    assert acceptance._check_rank_decompose() == (False, detail)


@pytest.mark.parametrize(
    "width, detail",
    [
        # the sandwich call ranks 8-entry words; its last rank is rank(X - Y) = 0 of X = Y, a rank-1 2x2 matrix
        (8, "distance sandwich violated: 0 <= 2 <= 1"),
        # the draw ranks 4-entry words; the last rank of a block is that of its last Y, now kept beside an X of another rank
        (4, "unequal ranks in pair 692"),
    ],
)
def test_criterion_4_fails_on_a_corrupted_rank(monkeypatch, width, detail):
    column_ranks = matfq._column_ranks

    def corrupted(words, q, m):
        ranks = column_ranks(words, q, m)
        if words.shape[1] == width:
            ranks[-1] += 2
        return ranks

    monkeypatch.setattr(matfq, "_column_ranks", corrupted)
    assert acceptance._check_distance_sandwich() == (False, detail)


def test_criteria_3_and_4_never_run_the_scalar_gauss_jordan_loop(monkeypatch):
    calls = []
    gauss_jordan = matfq._gauss_jordan
    monkeypatch.setattr(matfq, "_gauss_jordan", lambda *args: calls.append(args) or gauss_jordan(*args))
    assert acceptance._check_rank_decompose()[0] and acceptance._check_distance_sandwich()[0]
    assert calls == []


def test_verify_criteria_3_and_4_stdout(capsys):
    assert cli.main(["verify", "--criteria", "3,4"]) == 0
    assert capsys.readouterr().out == (
        "PASS criterion 3: rank decomposition round-trip :: rank decomposition round-trips exactly "
        "on 1000 random matrices per q in {2,3}\n"
        "PASS criterion 4: rank/subspace distance sandwich :: sandwich holds on 1000 random equal-rank "
        "4x4 pairs and all 9^2 rank-1 2x2 pairs\n"
        "2/2 criteria passed\n"
    )
