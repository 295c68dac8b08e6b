"""Brute-force oracle: cross-checked against naive recounts written here."""

import concurrent.futures
import itertools
import json
import random
import re
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rankmetric.bounds import (
    CodeParams,
    ball_volume,
    bound1_lower,
    bound2_upper,
    gaussian_binomial,
    mrd_weight_tau,
)
from rankmetric.cli import main
from rankmetric.codes import ConstantRankCode, GabidulinCode, crc_theorem8
from rankmetric.ff import SUPPORTED_Q, base_field, make_field
from rankmetric.linpoly import LinearizedPoly, evaluate
from rankmetric.matfq import grassmannian_enumerate, rank_of_vector
from rankmetric import acceptance, codes, matfq, oracle
from rankmetric.oracle import (
    ball_volume_bruteforce,
    distance_counts,
    list_codewords,
    max_list_size,
    sampled_max_list_size,
    unpack_word,
)
from rankmetric.witness import bound1_witness
from reference import max_list_scan, orbit_count, pack_word

F4 = make_field(2, 2)
F16 = make_field(2, 4)
F9 = make_field(3, 2)


def naive_rank(vec, fld):
    """Independent rank oracle: log_q of the span size of the expansion columns."""
    F = base_field(fld.q)
    cols = [fld.coeffs(x) for x in vec]
    span = set()
    for coefs in itertools.product(range(fld.q), repeat=len(cols)):
        acc = tuple(0 for _ in range(fld.m))
        for c, col in zip(coefs, cols):
            if c:
                acc = tuple(F.add(x, F.mul(c, y)) for x, y in zip(acc, col))
        span.add(acc)
    r = 0
    while fld.q**r < len(span):
        r += 1
    assert fld.q**r == len(span)
    return r


def naive_codewords(code):
    """Independent Gabidulin enumeration via direct polynomial evaluation.

    Message-index order: coefficient f_0 is the least significant digit, so
    it varies fastest; itertools.product varies its last slot fastest.
    """
    fld = code.field
    out = []
    for rev in itertools.product(range(fld.order), repeat=code.k):
        poly = LinearizedPoly(fld, tuple(reversed(rev)))
        out.append(tuple(evaluate(poly, a) for a in code.alphas))
    return out


def naive_max_list(code, tau):
    fld = code.field
    words = naive_codewords(code)
    best, best_word = -1, None
    for r in itertools.product(range(fld.order), repeat=code.n):
        count = sum(
            1
            for cw in words
            if naive_rank(tuple(fld.sub(a, b) for a, b in zip(r, cw)), fld) <= tau
        )
        if count > best:
            best, best_word = count, r
    return best, best_word


def test_pack_unpack_roundtrip_and_order():
    for idx in range(64):
        word = unpack_word(idx, 4, 3)
        assert pack_word(word, 4) == idx
    # ascending index order is lexicographic order on tuples
    words = [unpack_word(i, 4, 3) for i in range(64)]
    assert words == sorted(words)


def test_rank_leq_agrees_with_naive():
    rng = random.Random(2)
    for fld in (F4, F16, F9, make_field(8, 2)):
        for _ in range(60):
            vec = tuple(rng.randrange(fld.order) for _ in range(3))
            r = naive_rank(vec, fld)
            for tau in range(4):
                assert (matfq._column_rank(vec, fld.q, fld.m, tau) <= tau) == (r <= tau)


def test_iter_codewords_matches_naive_enumeration(monkeypatch):
    # every codeword path of the row-combination kernel, against polynomial
    # evaluation at random independent points, for every q
    rng = random.Random(5)
    for q in SUPPORTED_Q:
        fld = make_field(q, {2: 4, 3: 3, 4: 3}.get(q, 2))
        n = fld.m
        while True:
            alphas = tuple(rng.randrange(1, fld.order) for _ in range(n))
            if rank_of_vector(alphas, fld) == n:
                break
        k = max(k for k in range(1, n + 1) if fld.order**k <= 4096)
        code = GabidulinCode(fld, n=n, k=k, alphas=alphas)
        naive = naive_codewords(code)
        assert list(code.iter_codewords()) == naive
        assert [code.codeword(i) for i in range(code.cardinality)] == naive
        monkeypatch.setattr(codes, "_BATCH_ROWS", rng.randint(1, 999))
        assert [tuple(w) for block in code.codeword_blocks() for w in block.tolist()] == naive


def test_list_codewords_examples():
    code = GabidulinCode(F16, n=4, k=2)
    cw = code.codeword(37)
    res = list_codewords(code, cw, 0)
    assert res.codewords == (cw,) and res.sphere_counts == (1,)
    # at the unique-decoding radius any word sees at most one codeword
    rng = random.Random(8)
    for _ in range(20):
        r = tuple(rng.randrange(16) for _ in range(4))
        assert list_codewords(code, r, 1).size <= 1


def test_list_codewords_against_witness_word():
    code = GabidulinCode(F16, n=4, k=2)
    cert = bound1_witness(code, 2)
    res = list_codewords(code, cert.received_word, 2)
    assert res.sphere_counts[2] >= 35
    assert set(cert.codewords) <= set(res.codewords)


def test_max_list_size_unique_decoding():
    code = GabidulinCode(F16, n=4, k=2)
    res = max_list_size(code, 1)
    assert res.ell == 1 and res.exhaustive


def test_max_list_size_matches_naive_on_tiny_code():
    code = GabidulinCode(F4, n=2, k=1)
    expected_ell, expected_word = naive_max_list(code, 1)
    res = max_list_size(code, 1)
    assert res.ell == expected_ell == 3
    assert res.word == expected_word  # both scans pick the lexicographic argmax
    assert res.scanned == 16


def test_max_list_size_generic_path_matches_naive():
    code = GabidulinCode(F9, n=2, k=1)
    expected_ell, expected_word = naive_max_list(code, 1)
    res = max_list_size(code, 1)
    assert (res.ell, res.word) == (expected_ell, expected_word)


def test_max_list_size_sandwich_gab42():
    code = GabidulinCode(F16, n=4, k=2)
    res = max_list_size(code, 2)
    assert 35 <= res.ell <= 36
    b2 = bound2_upper(CodeParams(q=2, m=4, n=4, d=3), 2)
    assert res.ell <= b2.anticode_sum


def test_max_list_size_tight_at_pigeonhole_bound():
    # Gab[3,1] over F_8 at tau = 2: the pigeonhole lower bound is attained
    F8 = make_field(2, 3)
    code = GabidulinCode(F8, n=3, k=1)
    res = max_list_size(code, 2)
    assert res.ell == 7
    cert = bound1_witness(code, 2)
    assert cert.total_size == 7


def test_max_list_size_jobs_deterministic():
    # the worker count is gone with the process pool: repeated calls agree with each other
    # and with the reference scan, and `jobs` is no longer accepted
    code = GabidulinCode(F4, n=2, k=1)
    a, b = max_list_size(code, 1), max_list_size(code, 1)
    scan = max_list_scan(list(code.iter_codewords()), F4, 1, itertools.product(range(4), repeat=2))
    assert (a.ell, a.word) == (b.ell, b.word) == scan
    with pytest.raises(TypeError):
        max_list_size(code, 1, jobs=3)


def test_max_list_size_caps_jobs_at_cpu_count(monkeypatch, capsys):
    # `oracle max --jobs` has no effect: even 10^6 starts no worker process
    created = []

    class NoPool:
        def __init__(self, *args, **kwargs):
            created.append(kwargs.get("max_workers", args[0] if args else None))
            raise AssertionError("oracle max started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    args = ["oracle", "max", "--q", "2", "--m", "2", "--n", "2", "--k", "1", "--tau", "1"]
    outs = []
    for extra in ([], ["--jobs", str(10**6)]):
        assert main(args + extra) == 0
        d = json.loads(capsys.readouterr().out)
        d.pop("elapsed_ms")
        outs.append(d)
    assert created == [] and outs[0] == outs[1]
    assert outs[0]["ell"] == max_list_size(GabidulinCode(F4, n=2, k=1), 1).ell
    assert not hasattr(oracle, "ProcessPoolExecutor")


def test_max_list_size_random_mode(capsys):
    code = GabidulinCode(F16, n=4, k=2)
    r1 = sampled_max_list_size(code, 2, 300, seed=11)
    r2 = sampled_max_list_size(code, 2, 300, seed=11)
    assert r1 == r2 and not r1.exhaustive
    full = max_list_size(code, 2)
    assert r1.ell <= full.ell
    for trials in (None, 0):
        with pytest.raises(ValueError, match="trials"):
            sampled_max_list_size(code, 2, trials, seed=1)
    # `oracle max --mode random` without --trials is refused with exit 2
    assert main(["oracle", "max", "--q", "2", "--m", "4", "--n", "4", "--k", "2", "--tau", "2", "--mode", "random"]) == 2
    assert "random mode requires trials >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize(
    "q,m,n,k,tau",
    [
        (2, 3, 3, 1, 2),
        (3, 2, 2, 1, 1),
        (4, 2, 2, 1, 1),
        (3, 3, 3, 1, 1),
        (5, 2, 2, 1, 1),
        (7, 2, 2, 1, 1),
        (8, 2, 2, 1, 1),
        (9, 2, 2, 1, 1),
    ],
)
def test_random_mode_matches_the_reference_scan(q, m, n, k, tau, seed, monkeypatch):
    # the same draws of random.Random(seed), and among the words of the largest
    # count the smallest index, which is not always the first one drawn; with
    # the scalar rank and the codeword tuples removed, so every count comes
    # from the numpy block scan
    code = GabidulinCode(make_field(q, m), n=n, k=k)
    fld, trials = code.field, 40
    rng = random.Random(seed)
    drawn = [unpack_word(rng.randrange(fld.order**n), fld.order, n) for _ in range(trials)]
    expected = max_list_scan(list(code.iter_codewords()), fld, tau, drawn)
    monkeypatch.setattr(oracle, "_column_rank", None)
    monkeypatch.setattr(GabidulinCode, "iter_codewords", None)
    res = sampled_max_list_size(code, tau, trials, seed=seed)
    assert (res.ell, res.word) == expected
    assert res.scanned == trials and not res.exhaustive


def test_random_mode_obeys_the_guard(monkeypatch, capsys):
    code = GabidulinCode(F16, n=4, k=2)  # 256 codewords: 5 trials are 1280 steps
    with pytest.raises(ValueError, match="scan of 5 words against 256 codewords exceeds exhaustive guard 1279"):
        sampled_max_list_size(code, 2, 5, seed=4, guard=1279)
    answered = sampled_max_list_size(code, 2, 5, seed=4, guard=1280)
    assert answered == sampled_max_list_size(code, 2, 5, seed=4) and answered.scanned == 5
    # README's example is answered; 10^9 trials are refused before any word is drawn or counted
    base = ["oracle", "max", "--q", "2", "--m", "4", "--n", "4", "--k", "2", "--tau", "2", "--mode", "random"]
    assert main([*base, "--trials", "1000", "--seed", "7"]) == 0
    capsys.readouterr()

    def refuse(*args):
        raise AssertionError("sampled before the guard")

    monkeypatch.setattr(oracle, "_scan_blocks", refuse)
    monkeypatch.setattr(oracle.random.Random, "randrange", refuse)
    assert main([*base, "--trials", "1000000000"]) == 2
    assert "exceeds exhaustive guard" in capsys.readouterr().err


def test_max_list_size_translation_invariance():
    code = GabidulinCode(F4, n=2, k=1)
    shift = (3, 1)
    translated = [
        tuple(F4.add(x, s) for x, s in zip(cw, shift)) for cw in code.iter_codewords()
    ]
    a = max_list_size(code, 1)
    b, _ = max_list_scan(translated, F4, 1, itertools.product(range(4), repeat=2))
    assert a.ell == b


def test_oracle_rejects_wrong_length_and_tau_out_of_range():
    code = GabidulinCode(F16, n=4, k=2)
    with pytest.raises(ValueError, match="length 2"):
        list_codewords(code, (0, 1), 2)
    with pytest.raises(ValueError, match="length 5"):
        list_codewords(code, (0,) * 5, 2)
    for tau in (-1, 5):
        with pytest.raises(ValueError, match="tau"):
            list_codewords(code, (0,) * 4, tau)
        with pytest.raises(ValueError, match="tau"):
            max_list_size(code, tau)
    assert list_codewords(code, (0,) * 4, 4).size == code.cardinality


_GAB42 = GabidulinCode(F16, n=4, k=2)
_GAB21_F9 = GabidulinCode(F9, n=2, k=1)


@pytest.mark.parametrize(
    "call", [lambda code, r: list_codewords(code, r, 1), distance_counts], ids=["list_codewords", "distance_counts"]
)
@pytest.mark.parametrize(
    "code,r,message",
    [
        # entries are read as integers, not truncated: 1.7 is not 1, True is not 1
        (_GAB42, (1.7, 0, 0, 0), r"received word entry 0 must be an integer, got 1\.7"),
        (_GAB42, (0, True, 0, 0), "received word entry 1 must be an integer, got True"),
        (_GAB42, (0, 0, "3", 0), "received word entry 2 must be an integer, got '3'"),
        # and must be elements of F_{q^m}
        (_GAB42, (99, 0, 0, 0), r"received word entry 0 must lie in 0\.\.15, got 99"),
        (_GAB42, (0, 0, 0, 16), r"received word entry 3 must lie in 0\.\.15, got 16"),
        (_GAB42, (0, -1, 0, 0), r"received word entry 1 must lie in 0\.\.15, got -1"),
        (_GAB21_F9, (50, 0), r"received word entry 0 must lie in 0\.\.8, got 50"),
        # an entry is refused before the length
        (_GAB42, (99, 0), r"received word entry 0 must lie in 0\.\.15, got 99"),
    ],
)
def test_received_entries_follow_the_integer_rule(call, code, r, message):
    with pytest.raises(ValueError, match=message):
        call(code, r)


@pytest.mark.parametrize("call", [list_codewords, max_list_size], ids=["list_codewords", "max_list_size"])
@pytest.mark.parametrize("tau", [1.5, True, "1"])
def test_tau_follows_the_integer_rule(call, tau):
    args = (_GAB42, (0,) * 4, tau) if call is list_codewords else (_GAB42, tau)
    with pytest.raises(ValueError, match=f"tau must be an integer, got {tau!r}"):
        call(*args)


def test_integer_entries_of_any_integer_type_are_accepted():
    r = (np.int64(3), 0, np.uint8(15), 2)
    assert list_codewords(_GAB42, r, 2) == list_codewords(_GAB42, (3, 0, 15, 2), 2)
    assert list_codewords(_GAB42, (3, 0, 15, 2), np.int64(2)).received_word == (3, 0, 15, 2)
    assert distance_counts(_GAB42, r) == distance_counts(_GAB42, (3, 0, 15, 2))
    assert max_list_size(_GAB42, np.int64(1)) == max_list_size(_GAB42, 1)


@pytest.mark.parametrize(
    "call",
    [lambda code: list_codewords(code, (0, 0), 1), lambda code: distance_counts(code, (0, 0)),
     lambda code: max_list_size(code, 1), lambda code: sampled_max_list_size(code, 1, 1)],
    ids=["list_codewords", "distance_counts", "max_list_size", "max_list_size-random"],
)
@pytest.mark.parametrize(
    "code,name",
    [([(0, 0), (1, 2)], "list"), (ConstantRankCode(F4, 2, 1, ((1, 0), (2, 0)), 1), "ConstantRankCode"), (None, "NoneType")],
)
def test_oracle_takes_gabidulin_codes_only(call, code, name):
    with pytest.raises(TypeError, match=f"the oracle takes a GabidulinCode, got {name}$"):
        call(code)


def test_exhaustive_guard():
    code = GabidulinCode(make_field(2, 8), n=8, k=1)
    with pytest.raises(ValueError, match="guard"):
        max_list_size(code, 2)


def _oracle_max_stdout(capsys, *args):
    """(exit code, stdout with elapsed_ms masked) of one `oracle max` run."""
    code = main(["oracle", "max", *args])
    return code, re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', capsys.readouterr().out)


def test_exhaustive_guard_override(capsys):
    # --guard bounds random mode only: an exhaustive run ignores it, as it ignores --jobs
    args = ["--q", "2", "--m", "2", "--n", "2", "--k", "1", "--tau", "1"]
    guarded = _oracle_max_stdout(capsys, *args, "--guard", "0")
    assert guarded == _oracle_max_stdout(capsys, *args)
    assert guarded[0] == 0 and json.loads(guarded[1])["ell"] == 3


def test_enumeration_guard():
    big = GabidulinCode(make_field(2, 6), n=6, k=5)  # 2^30 codewords
    # the coset count enumerates no codeword: 3970 errors over 64 cosets
    assert max_list_size(big, 1).ell == 63
    with pytest.raises(ValueError, match="too large"):
        sampled_max_list_size(big, 1, 1)
    with pytest.raises(ValueError, match="too large"):
        list_codewords(big, (0,) * 6, 1)


def test_exhaustive_guard_refuses_before_work(capsys):
    # the transform's work does not grow with tau: Gab[6,3]/F_64 at tau = 5 answers at once
    start = time.perf_counter()
    assert max_list_size(GabidulinCode(make_field(2, 6), n=6, k=3), 5).ell == 185880
    assert time.perf_counter() - start < 1.0
    # 266 305 points of PG(3, 64) and their Walsh transforms: answered, whatever --guard says
    args = ["--q", "2", "--m", "6", "--n", "6", "--k", "2", "--tau", "4"]
    guarded = _oracle_max_stdout(capsys, *args, "--guard", "1000")
    assert guarded == _oracle_max_stdout(capsys, *args)
    assert guarded[0] == 0 and json.loads(guarded[1])["ell"] == 651


def test_coset_guard():
    code = GabidulinCode(make_field(2, 7), n=7, k=3)  # 2^28 cosets
    with pytest.raises(ValueError, match="coset guard"):
        max_list_size(code, 1)


# --- coset counts: cross-checks against the reference scan and closed forms ----


@st.composite
def gabidulin_codes(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(2, 3)) if q == 2 else 2
    fld = make_field(q, m)
    n = draw(st.integers(1, 2 if q > 2 else m))
    alphas = draw(st.lists(st.integers(1, fld.order - 1), min_size=n, max_size=n))
    assume(rank_of_vector(alphas, fld) == n)
    k = draw(st.integers(1, n))
    return GabidulinCode(fld, n=n, k=k, alphas=tuple(alphas)), draw(st.integers(0, n))


@settings(max_examples=25)
@given(gabidulin_codes())
def test_coset_path_matches_naive_scan(case):
    code, tau = case
    fld = code.field
    coset = max_list_size(code, tau)
    received = itertools.product(range(fld.order), repeat=code.n)
    assert (coset.ell, coset.word) == max_list_scan(list(code.iter_codewords()), fld, tau, received)
    assert coset.scanned == fld.order**code.n


@pytest.mark.parametrize("q,m,n,k", [(2, 4, 4, 2), (2, 3, 3, 1), (3, 3, 3, 2), (4, 3, 2, 1), (5, 2, 2, 1)])
def test_coset_count_totals(q, m, n, k):
    code = GabidulinCode(make_field(q, m), n=n, k=k)
    order = code.field.order
    for tau in range(n + 1):
        own, counts = oracle._coset_counts(code, tau)
        assert len(counts) == (order ** (n - k) - 1) // (order - 1)  # one count per orbit of nonzero keys
        assert own + (order - 1) * int(counts.sum()) == ball_volume(m, n, q, tau)
    # coset 0 is the code itself: the zero word and the minimum-weight codewords
    own, _ = oracle._coset_counts(code, code.d)
    assert own == 1 + mrd_weight_tau(n, m, code.d, q)


@pytest.mark.parametrize(
    "q,m,n,k", [(2, 4, 4, 2), (2, 4, 4, 1), (2, 3, 3, 2), (3, 3, 3, 1), (3, 3, 2, 1), (4, 2, 2, 1), (5, 2, 2, 1), (2, 5, 5, 2)]
)
def test_own_coset_counts_the_codewords_of_each_rank(q, m, n, k):
    # N(0) at radius tau is the number of codewords of rank <= tau, which distance_counts ranks one by one
    code = GabidulinCode(make_field(q, m), n=n, k=k)
    weights = distance_counts(code, (0,) * n)
    for tau in range(n + 1):
        assert oracle._coset_counts(code, tau)[0] == sum(weights[: tau + 1])


def test_max_list_size_beyond_int64():
    # V Q^r = 5.8e19 * 2^20 >= 2^63, so the transform runs on Python ints.  No
    # independent path can count 2^100 words or 2^20 cosets of a 2^80-word code;
    # what holds is what every run checks: integral, nonnegative counts that add
    # up to the ball volume
    code = GabidulinCode(make_field(2, 10), n=10, k=8)
    assert ball_volume(10, 10, 2, 4) * 2**20 >= 2**63
    res = max_list_size(code, 4)
    assert (res.ell, res.word) == (55_539_365_151_688, (0,) * 8 + (1, 270))


_SANDWICH = [
    (q, m, n, k, tau)
    for q in SUPPORTED_Q
    for m in range(1, 13)
    if q**m <= 1 << 12
    for n in range(2, m + 1)
    for k in range(1, n)
    if q ** (m * (n - k)) <= 1 << 12
    for tau in range(n - k + 1)
]


@pytest.mark.parametrize("q,m,n,k,tau", _SANDWICH)
def test_max_list_size_lies_in_the_bound_sandwich(q, m, n, k, tau):
    # every default-point Gabidulin code with at most 2^12 cosets, at every tau < d
    res = max_list_size(GabidulinCode(make_field(q, m), n=n, k=k), tau)
    params = CodeParams(q=q, m=m, n=n, d=n - k + 1, k=k)
    assert bound1_lower(params, tau).guarantee <= res.ell
    if (params.d - 1) // 2 <= tau:  # bound2 applies
        assert res.ell <= bound2_upper(params, tau).anticode_sum


@pytest.mark.parametrize(
    "q,m,t", [(2, 4, 2), (2, 6, 2), (2, 6, 3), (2, 6, 4), (3, 4, 2), (4, 3, 2), (2, 5, 1), (3, 3, 3)]
)
def test_singer_orbits_partition_the_grassmannian(q, m, t):
    fld = make_field(q, m)
    orbits = matfq._singer_orbits(fld, t)
    sizes = [size for _, size in orbits]
    assert sum(sizes) == gaussian_binomial(m, t, q)
    assert len(orbits) == orbit_count(m, t, q)
    # the stabilizer of U is F_{q^s}^* for some s dividing m and t
    assert set(sizes) <= {(q**m - 1) // (q**s - 1) for s in range(1, t + 1) if m % s == 0 and t % s == 0}
    for basis, _ in orbits:
        assert len(basis) == rank_of_vector(basis, fld) == t
        assert len(set(matfq._span(fld, basis))) == q**t
    if (q, m, t) == (2, 4, 2):
        assert sorted(sizes) == [5, 15, 15]  # F_16 holds one orbit of the 5 lines of F_4^2


def _span_set(fld, basis):
    """The elements of the F_q-span of ``basis`` (coefficient vectors)."""
    span = {0}
    for row in basis:
        b = fld.from_coeffs(row)
        span = {fld.add(x, fld.mul(c, b)) for c in range(fld.q) for x in span}
    return frozenset(span)


@pytest.mark.parametrize(
    "q,m,t",
    [(2, 1, 1), (2, 3, 3), (2, 4, 2), (2, 4, 4), (2, 6, 2), (2, 6, 3), (3, 3, 1), (3, 4, 2), (3, 2, 2),
     (4, 2, 1), (4, 3, 2), (4, 3, 3), (9, 2, 1), (9, 2, 2)],
)
def test_singer_orbits_cover_the_grassmannian_once(q, m, t):
    # independent cross-check: expand each representative by every x in F_{q^m}^*
    fld = make_field(q, m)
    covered = set()
    for basis, size in matfq._singer_orbits(fld, t):
        span = matfq._span(fld, basis)
        orbit = {frozenset(fld.mul(x, s) for s in span) for x in range(1, fld.order)}
        assert len(orbit) == size
        assert covered.isdisjoint(orbit)
        covered |= orbit
    grassmannian = [_span_set(fld, U.basis) for U in grassmannian_enumerate(m, t, q)]
    assert len(covered) == len(grassmannian) and covered == set(grassmannian)


_DUAL_SIDE = [
    (q, m, t)
    for q in SUPPORTED_Q
    for m in range(1, 9)
    if q**m <= 256
    for t in range(m // 2 + 1, m + 1)
]


@pytest.mark.parametrize("q,m,t", _DUAL_SIDE)
def test_singer_orbits_on_the_dual_side_partition_the_grassmannian(q, m, t):
    # every 2t > m with q^m <= 256, t = m included: the sizes add up to [m; t]_q,
    # no two representatives share an orbit, and each basis is a full-rank
    # RREF basis of t elements
    fld = make_field(q, m)
    orbits = matfq._singer_orbits(fld, t)
    assert sum(size for _, size in orbits) == gaussian_binomial(m, t, q)
    labels = set()
    for basis, size in orbits:
        matfq.Subspace(q, m, tuple(fld.coeffs(b) for b in basis))  # raises unless a full-rank RREF basis
        assert len(basis) == rank_of_vector(basis, fld) == t
        span = matfq._span(fld, basis)
        assert len(set(span)) == q**t
        # the orbit's members through 1 are the u^{-1} U, u in U nonzero; the
        # smallest sorted one labels the orbit, and as many u give it as the
        # stabilizer of U has elements
        moved = [sorted(fld.mul(fld.inv(u), x) for x in span) for u in span if u]
        label = min(moved)
        assert size == (fld.order - 1) // moved.count(label)
        labels.add(tuple(label))
    assert len(labels) == len(orbits)


def test_singer_orbits_walk_only_the_subspaces_through_one(monkeypatch):
    # Gr(m - 1, t - 1) when 2t <= m, Gr(m - 1, m - t - 1) when 2t > m, and no
    # walk for {0} (an empty basis) or the whole field (the polynomial basis)
    calls = []

    def recorded(n, r, q, *rest):
        calls.append((n, r, q))
        return grassmannian_enumerate(n, r, q, *rest)

    monkeypatch.setattr(matfq, "grassmannian_enumerate", recorded)
    for q, m, t, walked in [
        (2, 6, 3, 2), (3, 4, 2, 1), (2, 5, 1, 0), (2, 6, 4, 1), (2, 5, 3, 1), (3, 3, 2, 0), (2, 8, 5, 2)
    ]:
        calls.clear()
        matfq._singer_orbits(make_field(q, m), t)
        assert calls == [(m - 1, walked, q)]
    for q, m, t in [(2, 4, 4), (2, 4, 0), (3, 1, 1), (2, 1, 0), (3, 3, 3), (9, 2, 2), (5, 3, 0)]:
        calls.clear()
        fld = make_field(q, m)
        assert matfq._singer_orbits(fld, t) == [([fld.basis_element(i) for i in range(t)], 1)]
        assert [fld.basis_element(i) for i in range(m)] == [q**i for i in range(m)]
        assert calls == []


def test_max_list_size_on_a_large_field():
    # 2^18 cosets; the walk reads the one subspace of Gr(17, 0) instead of all 2^18 - 1 lines
    code = GabidulinCode(make_field(2, 18), n=2, k=1)
    res = max_list_size(code, 1)
    assert (res.ell, res.word) == (3, (0, 1))


def test_odd_p_max_list_size_on_and_off_the_sum_tables(monkeypatch):
    # Gab[4,1]/F_81: the rank pass sums three row tables and the gather
    # subtracts two products; both read the sum tables, and with the cap at 0
    # add digitwise (the rank table gives way to elimination too)
    code = GabidulinCode(make_field(3, 4), n=4, k=1)
    results = []
    for table_max in (matfq._RANK_TABLE_MAX, 0):
        monkeypatch.setattr(matfq, "_RANK_TABLE_MAX", table_max)
        res = max_list_size(code, 2)
        results.append((res.ell, res.word))
        assert list_codewords(code, res.word, 2).size == res.ell
    assert results[0] == results[1]


def _smallest_of_orbit(key, fld):
    """Independent normalization: min over x in F_{q^m}^* of x * key."""
    return min(tuple(fld.mul(x, c) for c in key) for x in range(1, fld.order))


@pytest.mark.parametrize(
    "q,m,n,k,taus",
    [
        (2, 4, 4, 2, (1, 2)),
        (2, 4, 4, 3, (2, 3)),
        (2, 4, 4, 1, (3,)),
        (2, 3, 3, 1, (1, 2)),
        (3, 3, 3, 2, (1, 2)),
        (3, 2, 2, 1, (1, 2)),
        (4, 2, 2, 1, (1, 2)),
        (4, 3, 2, 1, (1,)),
    ],
)
def test_orbit_reduced_counts_match_naive_scan_at_every_coset(q, m, n, k, taus):
    code = GabidulinCode(make_field(q, m), n=n, k=k)
    fld = code.field
    words = list(code.iter_codewords())
    keys = list(itertools.product(range(fld.order), repeat=n - k))
    # the keys whose first nonzero coordinate is 1, ascending, as the counts list them
    normalized = [pack_word(key, fld.order) for key in keys if any(key) and next(x for x in key if x) == 1]
    for tau in taus:
        own, counts = oracle._coset_counts(code, tau)
        assert len(counts) == len(normalized)
        for key in keys:
            count = int(counts[normalized.index(pack_word(_smallest_of_orbit(key, fld), fld.order))]) if any(key) else own
            # the coset's word that is zero on the first k positions
            assert (count, (0,) * k + key) == max_list_scan(words, fld, tau, [(0,) * k + key]), (key, tau)


def _check_against_the_errors(code, tau, errors):
    """``_coset_counts`` against a histogram of ``errors`` (every word of
    rank <= tau) by coset key: e minus the codeword that agrees with it on
    the first k positions, read on the last n - k (``_unit_keys`` is not used)."""
    fld, k, r, order = code.field, code.k, code.n - code.k, code.field.order
    by_prefix = {cw[:k]: cw for cw in code.iter_codewords()}
    hist = Counter(tuple(map(fld.sub, e[k:], by_prefix[e[:k]][k:])) for e in errors)
    own, counts = oracle._coset_counts(code, tau)
    assert own == hist.pop((0,) * r)
    normalized = {}
    for key, count in hist.items():
        unit = tuple(fld.mul(fld.inv(next(x for x in key if x)), x) for x in key)
        assert normalized.setdefault(unit, count) == count  # constant on F_Q^* orbits
    for unit, count in normalized.items():
        j = r - 1 - unit.index(1)  # the blocks of normalized keys, Q^j + t, start at (Q^j - 1)/(Q - 1)
        assert counts[(order**j - 1) // (order - 1) + pack_word(unit, order) - order**j] == count, unit
    assert int(counts.sum()) == sum(normalized.values())  # and 0 at every other key


@pytest.mark.parametrize("q,m,n,k", [(3, 3, 3, 1), (2, 3, 3, 1), (2, 4, 4, 1), (2, 4, 4, 2)])
def test_coset_counts_match_every_error_of_the_word_space(q, m, n, k):
    code = GabidulinCode(make_field(q, m), n=n, k=k)
    words = list(itertools.product(range(code.field.order), repeat=n))
    ranks = [rank_of_vector(w, code.field) for w in words]
    for tau in range(n + 1):
        _check_against_the_errors(code, tau, [w for w, rank in zip(words, ranks) if rank <= tau])


@pytest.mark.parametrize(
    "q,m,n,k", [(3, 4, 4, 1), (5, 3, 3, 1), (7, 3, 3, 1), (2, 5, 5, 1), (2, 6, 6, 2), (4, 4, 4, 1), (8, 3, 3, 1)]
)
def test_coset_counts_match_the_rank_one_errors(q, m, n, k):
    # the gather at odd p (r = 3 on F_81) and the Walsh path at q = 2, 4, 8 up to r = 4, at tau = 1:
    # the errors of rank 1 are the b c, b in F_{q^m}^*, c in F_q^n nonzero
    code = GabidulinCode(make_field(q, m), n=n, k=k)
    fld = code.field
    units = [c for c in itertools.product(range(q), repeat=n) if any(c)]
    errors = {tuple(fld.mul(b, x) for x in c) for b in range(1, fld.order) for c in units}
    _check_against_the_errors(code, 1, errors | {(0,) * n})


@pytest.mark.parametrize(
    "m,k,tau,ell,word",
    [(8, 6, 2, 10795, (0, 0, 0, 0, 0, 0, 1, 77)), (6, 3, 3, 1395, (0, 0, 0, 1, 26, 13))],
)
def test_max_list_size_closes_the_bound_gap(m, k, tau, ell, word):
    # bound1 = ell here: the pigeonhole over Gr(n, n - tau) is tight
    code = GabidulinCode(make_field(2, m), n=m, k=k)
    res = max_list_size(code, tau)
    assert (res.ell, res.word) == (ell, word)
    assert bound1_lower(CodeParams(q=2, m=m, n=m, d=code.d, k=k), tau).guarantee == ell


@pytest.mark.parametrize("m,k,ell", [(5, 3, 155), (6, 4, 651)])
def test_max_list_size_beyond_word_space_scan(m, k, ell):
    code = GabidulinCode(make_field(2, m), n=m, k=k)
    res = max_list_size(code, 2)
    params = CodeParams(q=2, m=m, n=m, d=code.d, k=k)
    assert res.ell == ell
    assert bound1_lower(params, 2).guarantee <= res.ell <= bound2_upper(params, 2).anticode_sum
    assert res.scanned == 2 ** (m * m)
    if m == 5:  # 2^15 codewords: cheap enough to recount the list at the argmax
        assert list_codewords(code, res.word, 2).size == ell


def _translates(code, res, tau):
    """The words r - c over the codewords c that ``res`` lists for ``code``, at rank distance exactly tau from r."""
    diffs = (tuple(map(code.field.sub, res.received_word, cw)) for cw in res.codewords)
    return tuple(w for w in diffs if rank_of_vector(w, code.field) == tau)


def test_list_to_crc_from_witness_list():
    # the translates of the witness list are 35 words of rank 2 at pairwise distance >= d = 3
    code = GabidulinCode(F16, n=4, k=2)
    cert = bound1_witness(code, 2)
    res = list_codewords(code, cert.received_word, 2)
    words = _translates(code, res, 2)
    assert len(words) == res.sphere_counts[2] == 35
    assert {rank_of_vector(w, F16) for w in words} == {2}
    assert matfq.min_pairwise_rank_distance(words, F16) >= 3


def test_list_to_crc_single_member():
    code = GabidulinCode(F16, n=4, k=2)
    res = list_codewords(code, code.codeword(5), 0)
    assert _translates(code, res, 0) == ((0, 0, 0, 0),)


def test_list_to_crc_recovers_existence_construction():
    # the constant-rank code lies on the sphere of radius 2 around the zero
    # word; the oracle, which lists Gabidulin codes only, refuses it
    crc = crc_theorem8(6, 6, 2, 3, 2)
    assert matfq.rank_distances((0,) * 6, crc.words, crc.field) == [crc.rank] * 16 == [2] * 16
    with pytest.raises(TypeError, match="got ConstantRankCode"):
        list_codewords(crc, (0,) * 6, 2)


def test_list_sizes_never_exceed_upper_bound():
    code = GabidulinCode(F16, n=4, k=2)
    cap = bound2_upper(CodeParams(q=2, m=4, n=4, d=3), 2).anticode_sum
    rng = random.Random(21)
    for _ in range(30):
        r = tuple(rng.randrange(16) for _ in range(4))
        assert list_codewords(code, r, 2).size <= cap


def test_ball_volume_bruteforce_values():
    assert ball_volume_bruteforce(2, 2, 2, 1) == 10
    assert ball_volume_bruteforce(3, 3, 2, 3) == 512
    assert ball_volume_bruteforce(2, 2, 2, 0) == 1


@pytest.mark.parametrize(
    "args,message",
    [
        ((2, 2, 2, 1.5), "tau must be an integer, got 1.5"),
        ((2, 2, 2, True), "tau must be an integer, got True"),
        ((2.0, 2, 2, 1), "m must be an integer, got 2.0"),
        ((2, "2", 2, 1), "n must be an integer, got '2'"),
        ((2, 2, 2.0, 1), "q must be an integer, got 2.0"),
        ((-1, 2, 2, 0), "need m >= 0 and n >= 0, got m=-1, n=2"),
        ((2, -1, 2, 0), "need m >= 0 and n >= 0, got m=2, n=-1"),
        # the refusals that came before keep their text and their order
        ((5, 5, 2, 9), "matrix space 33554432 exceeds guard 16777216"),
        ((-5, -5, 2, 0), "matrix space 33554432 exceeds guard 16777216"),
        ((2, 2, 2, 3), "need 0 <= tau <= min(m, n), got tau=3"),
        ((2, 2, 2, -1), "need 0 <= tau <= min(m, n), got tau=-1"),
    ],
)
def test_ball_volume_bruteforce_refusals(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ball_volume_bruteforce(*args)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_ball_volume_bruteforce_matches_formula(q):
    for m in range(1, 4):
        for n in range(1, 4 if q == 2 else 3):
            for tau in range(min(m, n) + 1):
                assert ball_volume_bruteforce(m, n, q, tau) == ball_volume(m, n, q, tau)


def test_oracle_batched_path_matches_scalar(force_batching, monkeypatch):
    # each path forced through both floors of matfq._batched; the enumerator of
    # the other path is removed, so a wrong choice fails instead of agreeing
    F27, F16_2 = make_field(3, 3), make_field(4, 2)
    gab42 = GabidulinCode(F16, n=4, k=2)

    def run():
        lists = [
            list_codewords(GabidulinCode(F9, n=2, k=1), (3, 7), 1),
            list_codewords(gab42, (1, 2, 3, 4), 2),
            list_codewords(GabidulinCode(F27, n=3, k=2), (0, 0, 0), 1),
            list_codewords(GabidulinCode(F27, n=3, k=1), (5, 0, 26), 2),
            list_codewords(GabidulinCode(F16_2, n=2, k=1), (5, 9), 1),
        ]
        counts = [
            distance_counts(GabidulinCode(F16, n=4, k=2), (0, 0, 0, 0)),
            distance_counts(GabidulinCode(F27, n=3, k=2), (1, 2, 3)),
        ]
        translates = _translates(gab42, lists[1], 2)
        return lists, counts, matfq.min_pairwise_rank_distance(translates, F16), acceptance._check_mrd()

    results = []
    for batched, unused in ((False, "codeword_blocks"), (True, "iter_codewords")):
        force_batching(batched)
        with monkeypatch.context() as mp:
            mp.setattr(GabidulinCode, unused, None)
            results.append(run())
    assert results[0] == results[1]
    assert results[0][3][0] is True  # criterion 6 passes on both paths
    assert results[0][1][0] == [1, 0, 0, 15 * 15, 255 - 15 * 15]  # Gab[4,2]: [4;3]*15 words of weight d = 3


@pytest.mark.parametrize("q,m,n", [(2, 5, 3), (3, 3, 3), (4, 2, 2)])
def test_list_and_count_paths_agree(q, m, n, force_batching, monkeypatch):
    # the scalar path (word tuples and lists of ranks) against the numpy one
    # (a mask and np.bincount per int64 block), over several blocks: the code
    # has more words than _BATCH_ROWS
    for module in (codes, matfq):
        monkeypatch.setattr(module, "_BATCH_ROWS", 100)
    code = GabidulinCode(make_field(q, m), n=n, k=2)
    assert code.cardinality > 2 * 100
    rng = random.Random(q)
    codewords = [(0,) * n, code.codeword(code.cardinality - 1)]
    other = tuple(rng.randrange(code.field.order) for _ in range(n))
    cases = [(r, tau) for r in [*codewords, other] for tau in (0, 1, n)]

    def run():
        return [(list_codewords(code, r, tau), distance_counts(code, r)) for r, tau in cases]

    results = []
    for batched, unused in ((False, "codeword_blocks"), (True, "iter_codewords")):
        force_batching(batched)
        with monkeypatch.context() as mp:
            mp.setattr(GabidulinCode, unused, None)  # a wrong path fails instead of agreeing
            results.append(run())
    assert results[0] == results[1]
    for (listed, counts), (r, tau) in zip(results[1], cases):
        assert sum(counts) == code.cardinality and listed.sphere_counts == tuple(counts[: tau + 1])
        assert listed.size == sum(listed.sphere_counts)
        assert (listed.size == code.cardinality) == (tau == n)
        if r in codewords:  # a codeword lists itself at distance 0
            assert counts[0] == 1 and r in listed.codewords


def test_list_paths_agree_across_full_blocks(force_batching, monkeypatch):
    # 2^14 codewords: four blocks of _BATCH_ROWS on the numpy path
    code = GabidulinCode(make_field(2, 7), n=2, k=2)
    assert code.cardinality == 4 * matfq._BATCH_ROWS
    results = []
    for batched, unused in ((False, "codeword_blocks"), (True, "iter_codewords")):
        force_batching(batched)
        with monkeypatch.context() as mp:
            mp.setattr(GabidulinCode, unused, None)
            results.append((list_codewords(code, (5, 77), 1), distance_counts(code, (5, 77))))
    assert results[0] == results[1]
    rank1 = (2**7 - 1) * (2**2 - 1)  # the code is all of F_128^2: rank-1 words are 7 x 2 rank-1 matrices
    assert results[0][1] == [1, rank1, 16384 - 1 - rank1]


@pytest.mark.parametrize("fld", [make_field(2, 4), make_field(3, 3)], ids=["F16", "F27"])
def test_batched_lists_rank_every_block_in_numpy(fld, force_batching, monkeypatch):
    # Gab[3,1] has fewer codewords than _BATCH_MIN_LOADED: with the floor at
    # the call's work, the call batches although its one block alone would
    # not, and that block must still be ranked in numpy, not by the scalar
    # loop on numpy integers
    code = GabidulinCode(fld, n=3, k=1)
    work = code.cardinality * matfq._CODEWORD_WORK
    assert code.cardinality < matfq._BATCH_MIN_LOADED
    words = [(0, 0, 0), (1, 2, 3), (fld.order - 1, 0, 5)]

    def run():
        return [list_codewords(code, r, 3) for r in words], [distance_counts(code, r) for r in words]

    with monkeypatch.context() as mp:
        mp.setattr(matfq, "_BATCH_MIN", work)
        mp.setattr(matfq, "_BATCH_MIN_LOADED", work)
        mp.setattr(GabidulinCode, "iter_codewords", None)
        batched = run()
    force_batching(False)
    monkeypatch.setattr(GabidulinCode, "codeword_blocks", None)
    assert batched == run()
    assert [res.size for res in batched[0]] == [code.cardinality] * 3


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("batched", [False, True])
def test_ball_volume_bruteforce_paths_match_formula(q, batched, force_batching, monkeypatch):
    force_batching(batched)
    monkeypatch.setattr(oracle, "_column_rank" if batched else "_space_ranks", None)  # the other path
    for m in range(1, 3 if q == 9 else 4):
        for n in range(1, 4 if q == 2 else 3):
            for tau in range(min(m, n) + 1):
                assert ball_volume_bruteforce(m, n, q, tau) == ball_volume(m, n, q, tau)


def _peak_bytes(call):
    """The peak of the memory traced while ``call()`` runs; numpy reports its
    array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_space_scans_take_a_few_bytes_per_matrix(monkeypatch):
    # an int64 array over the whole space alone takes 8 bytes per matrix
    total = 3**12
    assert _peak_bytes(lambda: matfq._space_ranks(3, 3, 4)) < 4 * total  # uint8 ranks, the last bool table
    # the coset counts hold arrays over the points of PG(r - 1, Q), about
    # bins/Q of them, never one over the bins: the odd-p gather reads
    # _CHUNK entries at a time, and the Walsh transforms at p = 2 span Q^{r-1} entries
    gather = GabidulinCode(make_field(3, 5), n=5, k=2)  # 243^3 cosets, 59 293 points
    walsh = GabidulinCode(make_field(2, 6), n=6, k=2)  # 64^4 cosets, 266 305 points
    for code in (gather, walsh):
        oracle._coset_counts(code, 1)  # field tables, outside the count
    monkeypatch.setattr(oracle, "_CHUNK", 1 << 12)
    assert _peak_bytes(lambda: oracle._coset_counts(gather, 3)) < 243**3
    assert _peak_bytes(lambda: oracle._coset_counts(walsh, 4)) < 64**4


def test_rank_tables_take_a_few_bytes_per_matrix():
    # building any largest admitted table (one more column would pass the cap)
    # peaks below 5 bytes per matrix of the cap: the uint8 ranks, the last bool
    # span table and the field-sized digit arrays
    cap = matfq._RANK_TABLE_MAX
    largest = [
        (q, m, n)
        for q in SUPPORTED_Q
        for m in range(1, 17)
        for n in range(1, 17)
        if q ** (m * n) <= cap < q ** (m * (n + 1))
    ]
    assert (2, 4, 4) in largest and (3, 5, 2) in largest and (9, 1, 5) in largest
    for q, m, n in largest:
        matfq._rank_table.cache_clear()
        assert _peak_bytes(lambda: matfq._rank_table(q, m, n)) < 5 * cap, (q, m, n)
    matfq._sum_table.cache_clear()
    assert _peak_bytes(lambda: matfq._sum_table(3, 5, -1)) < 16 * 243**2  # int64 entries, int16 digits


def test_ball_volume_bruteforce_guard():
    with pytest.raises(ValueError, match="guard"):
        ball_volume_bruteforce(5, 6, 2, 2)
