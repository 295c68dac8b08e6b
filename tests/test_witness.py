"""Adversarial witness certificates: sizes, verification, determinism."""

import dataclasses
import json
import math

import pytest

from rankmetric.bounds import CodeParams, bound1_alt_lower, bound1_lower, bound3_lower, mrd_weight_tau
from rankmetric.codes import GabidulinCode, crc_theorem8
from rankmetric.ff import SUPPORTED_Q, _undigits, make_field
from rankmetric.linpoly import LinearizedPoly, evaluate, min_subspace_poly
from rankmetric.matfq import grassmannian_enumerate, min_pairwise_rank_distance, rank_of_vector
from rankmetric.oracle import list_codewords
from rankmetric import matfq, witness
from rankmetric.witness import (
    bound1_alt_witness,
    bound1_witness,
    bound3_witness,
    certificate_from_jsonable,
    verify_certificate,
)

F16 = make_field(2, 4)


# --- bound 1 ------------------------------------------------------------------


def test_bound1_witness_full_bucket():
    code = GabidulinCode(F16, n=4, k=2)
    cert = bound1_witness(code, 2)
    assert cert.total_size == 35 == cert.claimed_size
    assert cert.meta["bucket_total"] == 1  # all polynomials share the key
    ok, checks = verify_certificate(cert)
    assert ok, checks
    # every difference received - codeword has rank exactly tau
    for cw in cert.codewords:
        diff = tuple(F16.sub(r, c) for r, c in zip(cert.received_word, cw))
        assert rank_of_vector(diff, F16) == 2
    # codewords are distinct members of the code
    assert len(set(cert.codewords)) == 35


def test_bound1_witness_pigeonhole_bucket():
    code = GabidulinCode(F16, n=4, k=1)
    cert = bound1_witness(code, 2)
    assert cert.claimed_size == math.ceil(35 / 16) == 3
    assert cert.total_size >= 3
    assert cert.meta["bucket_total"] == 16
    ok, _ = verify_certificate(cert)
    assert ok


def test_bound1_witness_tau_zero():
    code = GabidulinCode(F16, n=4, k=2)
    cert = bound1_witness(code, 0)
    assert cert.total_size == 1 == cert.claimed_size
    assert cert.codewords == ((0, 0, 0, 0),)
    ok, _ = verify_certificate(cert)
    assert ok


def test_bound1_witness_requires_square_parameters():
    fld = make_field(2, 4)
    code = GabidulinCode(fld, n=2, k=1)
    with pytest.raises(ValueError, match="n = m"):
        bound1_witness(code, 1)


def test_bound1_witness_tau_bounds():
    code = GabidulinCode(F16, n=4, k=2)
    with pytest.raises(ValueError):
        bound1_witness(code, 3)  # tau >= d


def test_bound1_witness_size_meets_bound_formula():
    code = GabidulinCode(F16, n=4, k=2)
    cert = bound1_witness(code, 2)
    params = CodeParams(q=2, m=4, n=4, d=3, k=2)
    assert cert.total_size >= bound1_lower(params, 2).guarantee
    scan = list_codewords(code, cert.received_word, 2)
    assert scan.sphere_counts[2] >= cert.total_size


def test_bound1_witness_deterministic():
    code = GabidulinCode(F16, n=4, k=1)
    a = bound1_witness(code, 2)
    b = bound1_witness(code, 2)
    assert a.to_json() == b.to_json()


def test_bound1_witness_larger_instance():
    # Gab[6,4] over F_64 at tau = 2: one bucket holding all 651 polynomials
    fld = make_field(2, 6)
    code = GabidulinCode(fld, n=6, k=4)
    cert = bound1_witness(code, 2)
    assert cert.total_size == 651 == cert.claimed_size
    ok, checks = verify_certificate(cert)
    assert ok, checks


def test_bound1_witness_odd_characteristic():
    fld = make_field(3, 3)
    code = GabidulinCode(fld, n=3, k=1)
    cert = bound1_witness(code, 2)
    assert cert.total_size == 13 == cert.claimed_size  # the 13 lines of F_3^3
    ok, checks = verify_certificate(cert)
    assert ok, checks


# --- bound 1, alternative ----------------------------------------------------------


def test_alt_witness_values():
    params = CodeParams(q=2, m=4, n=4, d=3)
    cert = bound1_alt_witness(params, 2)
    assert cert.claimed_size == 33 == math.ceil(bound1_alt_lower(params, 2))
    assert cert.total_size >= 33
    assert cert.meta["coset_total"] == 525
    assert len(cert.meta["coset_counts"]) == 16
    assert sum(cert.meta["coset_counts"]) == 525
    ok, checks = verify_certificate(cert)
    assert ok, checks


def test_alt_witness_average_argument():
    # the average coset count equals the weight total divided by |B|
    params = CodeParams(q=2, m=4, n=4, d=3)
    cert = bound1_alt_witness(params, 2)
    counts = cert.meta["coset_counts"]
    assert sum(counts) / len(counts) == 525 / 16
    assert max(counts) == cert.total_size


def test_alt_witness_members_are_codewords_at_exact_distance():
    params = CodeParams(q=2, m=4, n=4, d=3)
    cert = bound1_alt_witness(params, 2)
    code = GabidulinCode(F16, n=4, k=2)
    for cw in cert.codewords:
        assert code.contains(cw)
        diff = tuple(F16.sub(r, c) for r, c in zip(cert.received_word, cw))
        assert rank_of_vector(diff, F16) == 2


def test_alt_witness_received_word_is_in_complement_code():
    params = CodeParams(q=2, m=4, n=4, d=3)
    cert = bound1_alt_witness(params, 2)
    shift = 4 - 3 + 1
    alphas_b = tuple(F16.frobenius(a, shift) for a in GabidulinCode(F16, n=4, k=2).alphas)
    code_b = GabidulinCode(F16, n=4, k=1, alphas=alphas_b)
    assert code_b.contains(cert.received_word)


# (n, d, tau) of alt per q, B of dimension d - tau = 1 to 4
ALT_RECEIVED_SETS = {
    2: [(4, 3, 2), (5, 4, 1), (6, 6, 2)], 3: [(3, 3, 1), (4, 3, 2), (4, 4, 1)], 4: [(3, 3, 1)], 5: [(3, 3, 1)],
    7: [(2, 2, 1)], 8: [(2, 2, 1)], 9: [(2, 2, 1)],
}


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_alt_received_word_is_the_complement_codeword_of_the_best_coset(q):
    # the reference: B as a second Gabidulin code, on the Frobenius-shifted
    # points alpha_i^{q^k}, encoding the best coset's message index
    for n, d, tau in ALT_RECEIVED_SETS[q]:
        fld = make_field(q, n)
        cert = bound1_alt_witness(CodeParams(q=q, m=n, n=n, d=d), tau)
        alphas_b = tuple(fld.frobenius(a, cert.k) for a in cert.alphas)
        code_b = GabidulinCode(fld, n=n, k=d - tau, alphas=alphas_b)
        assert cert.received_word == code_b.codeword(cert.meta["best_coset_index"])


def test_alt_witness_validation():
    with pytest.raises(ValueError, match="n = m"):
        bound1_alt_witness(CodeParams(q=2, m=6, n=4, d=3), 2)
    with pytest.raises(ValueError):
        bound1_alt_witness(CodeParams(q=2, m=4, n=4, d=3), 0)


def test_alt_witness_complement_size_at_tau_d_minus_one():
    # tau = d - 1 leaves a one-dimensional complement code of q^m words
    params = CodeParams(q=2, m=4, n=4, d=4)
    cert = bound1_alt_witness(params, 3)
    assert len(cert.meta["coset_counts"]) == 16  # |B| = q^m
    ok, _ = verify_certificate(cert)
    assert ok


def test_alt_witness_deterministic():
    params = CodeParams(q=2, m=4, n=4, d=3)
    assert bound1_alt_witness(params, 2).to_json() == bound1_alt_witness(params, 2).to_json()


def _alt_reference(q, n, d, tau):
    """The alt certificate by a B x C scan: enumerate B and C, count each
    coset's rank-tau differences, take the first fullest coset and list its
    words in C-message order."""
    params = CodeParams(q=q, m=n, n=n, d=d)
    fld = make_field(q, n)
    code_c = GabidulinCode(fld, n=n, k=n - d + 1)
    alphas_b = tuple(fld.frobenius(a, n - d + 1) for a in code_c.alphas)
    b_words = list(GabidulinCode(fld, n=n, k=d - tau, alphas=alphas_b).iter_codewords())
    c_words = list(code_c.iter_codewords())

    def at_rank(b):
        return [c for c in c_words if rank_of_vector(tuple(fld.sub(x, y) for x, y in zip(b, c)), fld) == tau]

    counts = [len(at_rank(b)) for b in b_words]
    best = counts.index(max(counts))
    codewords = tuple(at_rank(b_words[best]))
    meta = {"coset_total": sum(counts), "best_coset_index": best}
    if len(counts) <= 4096:
        meta["coset_counts"] = counts
    return witness.WitnessCertificate(
        kind=witness.KIND_BOUND1_ALT,
        q=q,
        m=n,
        n=n,
        k=code_c.k,
        d=d,
        tau=tau,
        modulus=fld.modulus,
        alphas=code_c.alphas,
        received_word=b_words[best],
        codewords=codewords,
        claimed_size=max(1, math.ceil(bound1_alt_lower(params, tau))),
        total_size=len(codewords),
        truncated=False,
        meta=meta,
    )


@pytest.mark.parametrize(
    "q,n,d,tau",
    [(2, 4, 3, 1), (2, 4, 4, 2), (3, 3, 3, 1), (3, 3, 2, 1), (5, 2, 2, 1), (2, 4, 3, 2), (2, 5, 5, 4), (3, 4, 4, 3)],
)
def test_alt_witness_histogram_and_scan_agree(q, n, d, tau):
    # the witness counts cosets by a histogram of subspace-polynomial buckets;
    # the reference ranks every pair of B x C
    params = CodeParams(q=q, m=n, n=n, d=d)
    assert bound1_alt_witness(params, tau).to_json() == _alt_reference(q, n, d, tau).to_json()


def test_alt_witness_counts_small_sphere_by_histogram(monkeypatch):
    # rank-1 sphere of 338 words and 729 cosets against |B| x |C| = 19683 pairs:
    # the coset counts and the best coset's words come from the buckets, and
    # no difference of a pair is ranked
    def refuse(*args, **kwargs):
        raise AssertionError("a pair of words was ranked")

    monkeypatch.setattr(witness, "rank_distances", refuse)
    monkeypatch.setattr(witness, "min_pairwise_rank_distance", refuse)
    cert = bound1_alt_witness(CodeParams(q=3, m=3, n=3, d=3), 1)
    counts = cert.meta["coset_counts"]
    assert len(counts) == 729
    assert sum(counts) == cert.meta["coset_total"] == mrd_weight_tau(3, 3, 1, 3) == 338
    assert cert.total_size == max(counts) == counts[cert.meta["best_coset_index"]]
    assert cert.total_size >= cert.claimed_size


def test_alt_witness_coset_total_is_minimum_weight_count():
    # 2^30 cosets of C and a rank-4 sphere of 8.5e9 words, but only [6; 4] = 651
    # subspace polynomials: the cosets of C partition the rank-4 (minimum-weight)
    # words of B + C = Gab[6, 3]
    cert = bound1_alt_witness(CodeParams(q=2, m=6, n=6, d=6), 4)
    assert cert.total_size >= cert.claimed_size
    assert len(cert.meta["coset_counts"]) == 4096
    assert cert.meta["coset_total"] == mrd_weight_tau(6, 6, 4, 2)


def test_witness_guard_refuses_before_work(monkeypatch):
    # [10; 5]_2 = 109 221 651 subspaces: both Gabidulin witnesses refuse them
    # before enumerating a single orbit or computing a single polynomial
    def refuse(*args):
        raise AssertionError("the Grassmannian was enumerated")

    monkeypatch.setattr(matfq, "grassmannian_enumerate", refuse)
    monkeypatch.setattr(witness, "_singer_orbits", refuse)
    monkeypatch.setattr(witness, "min_subspace_poly", refuse)
    with pytest.raises(ValueError, match="witness guard"):
        bound1_witness(GabidulinCode(make_field(2, 10), n=10, k=2), 5)
    with pytest.raises(ValueError, match="witness guard"):
        bound1_alt_witness(CodeParams(q=2, m=10, n=10, d=6), 5)


def test_alt_witness_answers_sets_past_the_old_pair_guard():
    # |B| x |C| = 64^4 x 64 = 2^30 pairs, but [6; 2] = 651 subspaces
    cert = bound1_alt_witness(CodeParams(q=2, m=6, n=6, d=6), 2)
    assert cert.meta["coset_total"] == mrd_weight_tau(6, 6, 2, 2) == 41013
    ok, checks = verify_certificate(cert)
    assert ok, checks


# --- orbit-reduced buckets against the full walk -------------------------------------

# (q, n, k, tau) of bound1 and (q, n, d, tau) of alt: q in {2, 3, 4, 5}, subspaces
# stable under F_{q^s}, keys of k < t coefficients, and best buckets that are a
# strict subset (Gab[6,2] at tau=3, Gab[6,3] and Gab[5,2] at tau=2)
BOUND1_SETS = [
    (2, 4, 2, 2), (2, 4, 1, 2), (2, 4, 2, 0), (2, 4, 3, 1), (2, 6, 4, 2), (2, 6, 2, 3), (2, 6, 3, 2),
    (2, 5, 2, 2), (2, 6, 2, 2), (3, 4, 2, 2), (3, 3, 1, 2), (3, 4, 1, 2), (4, 3, 1, 1), (4, 2, 1, 1),
    (5, 3, 1, 1),
]
ALT_SETS = [
    (2, 4, 3, 1), (2, 4, 4, 2), (3, 3, 3, 1), (3, 3, 2, 1), (5, 2, 2, 1), (2, 4, 3, 2), (2, 5, 5, 4),
    (3, 4, 4, 3), (2, 6, 6, 4), (2, 6, 6, 2), (2, 4, 4, 3),
]
GABIDULIN_SETS = [("bound1", s) for s in BOUND1_SETS] + [("alt", s) for s in ALT_SETS]


def _gabidulin_certificate(kind, params):
    if kind == "bound1":
        q, n, k, tau = params
        return bound1_witness(GabidulinCode(make_field(q, n), n=n, k=k), tau)
    q, n, d, tau = params
    return bound1_alt_witness(CodeParams(q=q, m=n, n=n, d=d), tau)


def _full_walk_buckets(fld, n, tau, k, order=None):
    """``witness._subspace_poly_buckets`` by the full walk: one
    ``min_subspace_poly`` per U of Gr(n, n - tau), in ``grassmannian_enumerate``
    order, bucketed by the coefficients of q-degree k..n-tau-1."""
    buckets = {}
    for U in grassmannian_enumerate(n, n - tau, fld.q):
        coeffs = min_subspace_poly(U, fld).coeffs
        buckets.setdefault(coeffs[k : n - tau], []).append(coeffs)
    sizes = {key: len(v) for key, v in buckets.items()}
    top = max(sizes.values())
    best = min((key for key, size in sizes.items() if size == top), key=order)
    return sizes, best, buckets[best]


@pytest.mark.parametrize("kind,params", GABIDULIN_SETS)
def test_orbit_buckets_match_the_full_walk(kind, params, monkeypatch):
    cert = _gabidulin_certificate(kind, params)
    monkeypatch.setattr(witness, "_subspace_poly_buckets", _full_walk_buckets)
    assert cert.to_json() == _gabidulin_certificate(kind, params).to_json()


@pytest.mark.parametrize("kind,params", GABIDULIN_SETS)
def test_batched_buckets_match_the_scalar_loop(kind, params, force_batching, monkeypatch):
    # the best bucket in numpy (_rrefs, then lexsort on pivots and basis) and by
    # one row_space and grassmannian_order_key per member: the same sizes, best
    # key and ordered bucket
    q, n, k_or_d, tau = params
    fld = make_field(q, n)
    if kind == "bound1":
        args, order = (fld, n, tau, k_or_d), None
    else:
        args, order = (fld, n, tau, n - k_or_d + 1), lambda key: _undigits(key, fld.order)
    rrefs, stacks = witness._rrefs, []
    monkeypatch.setattr(witness, "_rrefs", lambda block, q: stacks.append(block.shape) or rrefs(block, q))
    results = []
    for batched in (True, False):
        force_batching(batched)
        results.append(witness._subspace_poly_buckets(*args, order=order))
    sizes, best, bucket = results[1]
    assert results[0] == results[1]
    assert stacks == [(len(bucket), n - tau, n)] and len(bucket) == sizes[best] == max(sizes.values())
    assert all(type(coeffs) is tuple and len(coeffs) == n - tau + 1 and coeffs[-1] == 1 for coeffs in bucket)


@pytest.mark.parametrize("kind,params", GABIDULIN_SETS)
def test_gabidulin_witness_words_match_polynomial_evaluation(kind, params):
    # the witnesses encode messages by row combination; here every word is the
    # evaluation of a polynomial at the points (linpoly.evaluate): for bound1
    # rep(alpha) - g(alpha) over the bucket, for alt the C-message polynomials
    # in message-index order, and b's message polynomial at the shifted points
    cert = _gabidulin_certificate(kind, params)
    fld, (q, n, k_or_d, tau) = cert.field, params
    k = k_or_d if kind == "bound1" else n - k_or_d + 1

    def at(poly, points):
        return tuple(evaluate(poly, a) for a in points)

    if kind == "bound1":
        _, _, bucket = _full_walk_buckets(fld, n, tau, k)
        received = at(LinearizedPoly(fld, min(bucket)), cert.alphas)
        words = [tuple(map(fld.sub, received, at(LinearizedPoly(fld, g), cert.alphas))) for g in bucket]
    else:
        _, best, bucket = _full_walk_buckets(fld, n, tau, k, order=lambda key: _undigits(key, fld.order))
        received = at(LinearizedPoly(fld, best + (1,)), [fld.frobenius(a, k) for a in cert.alphas])
        messages = sorted(([fld.neg(c) for c in P[:k]] for P in bucket), key=lambda f: _undigits(f, fld.order))
        words = [at(LinearizedPoly(fld, f), cert.alphas) for f in messages]
    assert not cert.truncated
    assert cert.received_word == received
    assert cert.codewords == tuple(words)


@pytest.mark.parametrize("kind,params", GABIDULIN_SETS)
def test_mrd_pairwise_verdict_agrees_with_the_pair_scan(kind, params):
    cert = _gabidulin_certificate(kind, params)
    ok, checks = verify_certificate(cert)
    assert ok and checks["pairwise_distance"] and checks["pairwise_exhaustive"], checks
    low = min_pairwise_rank_distance(cert.codewords, cert.field)
    assert low is None or low >= cert.d


def test_orbit_buckets_compute_one_polynomial_per_orbit(monkeypatch):
    # Gab[6,4]/F_64 at tau=2: the 651 subspaces of Gr(6, 4) fall into 11 orbits
    calls = []

    def counted(U, fld):
        calls.append(U)
        return min_subspace_poly(U, fld)

    monkeypatch.setattr(witness, "min_subspace_poly", counted)
    cert = bound1_witness(GabidulinCode(make_field(2, 6), n=6, k=4), 2)
    assert cert.total_size == 651
    assert len(calls) == 11


def test_certify_certificates_round_trip():
    certs = [
        bound1_witness(GabidulinCode(make_field(2, 4), n=4, k=2), 2),
        bound1_witness(GabidulinCode(make_field(2, 6), n=6, k=4), 2),
        bound1_witness(GabidulinCode(make_field(3, 4), n=4, k=2), 2),
        bound1_alt_witness(CodeParams(q=2, m=4, n=4, d=3), 2),
        bound1_alt_witness(CodeParams(q=3, m=3, n=3, d=3), 1),
        bound3_witness(6, 6, 2, 3, 2),
        bound3_witness(6, 6, 2, 3, 2, translate=0),
    ]
    for cert in certs:
        assert certificate_from_jsonable(json.loads(cert.to_json())).to_json() == cert.to_json()
        assert cert.to_json() == json.dumps(cert.to_jsonable(), indent=2, sort_keys=True)


# --- bound 3 ---------------------------------------------------------------------------


def test_bound3_witness_zero_received():
    cert = bound3_witness(6, 6, 2, 3, 2)
    assert cert.total_size == 16 == cert.claimed_size
    assert cert.received_word == (0,) * 6
    assert (0,) * 6 not in cert.codewords
    fld = cert.field
    assert all(rank_of_vector(cw, fld) == 2 for cw in cert.codewords)
    ok, checks = verify_certificate(cert)
    assert ok, checks


def test_bound3_witness_translate():
    cert = bound3_witness(6, 6, 2, 3, 2, translate=0)
    crc = crc_theorem8(6, 6, 2, 3, 2)
    assert cert.received_word == crc.words[0]
    assert (0,) * 6 in cert.codewords
    assert len(cert.codewords) == 16
    fld = cert.field
    for cw in cert.codewords:
        diff = tuple(fld.sub(r, c) for r, c in zip(cert.received_word, cw))
        assert rank_of_vector(diff, fld) == 2
    ok, checks = verify_certificate(cert)
    assert ok, checks


def test_bound3_witness_even_distance():
    cert = bound3_witness(6, 6, 2, 4, 2)
    assert cert.total_size == 16
    ok, _ = verify_certificate(cert)
    assert ok
    params = CodeParams(q=2, m=6, n=6, d=4)
    assert cert.claimed_size == bound3_lower(params, 2)


def test_bound3_witness_validation():
    with pytest.raises(ValueError):
        bound3_witness(4, 4, 3, 4, 2)  # tau > n - tau
    with pytest.raises(ValueError, match="translate"):
        bound3_witness(6, 6, 2, 3, 2, translate=99)


def test_bound3_witness_deterministic():
    assert bound3_witness(6, 6, 2, 3, 2).to_json() == bound3_witness(6, 6, 2, 3, 2).to_json()


# --- certificates ------------------------------------------------------------------------


def test_certificate_json_roundtrip():
    cert = bound3_witness(6, 6, 2, 3, 2, translate=1)
    doc = json.loads(cert.to_json())
    back = certificate_from_jsonable(doc)
    assert back == cert
    ok, _ = verify_certificate(back)
    assert ok


def test_certificate_schema_fields():
    cert = bound1_witness(GabidulinCode(F16, n=4, k=2), 2)
    doc = json.loads(cert.to_json())
    assert doc["kind"] == "bound1"
    assert "verified" not in doc  # the CLI adds verified and checks (test_cli)
    assert set(doc["params"]) >= {"q", "m", "n", "k", "d", "tau", "modulus"}
    assert doc["claimed_size"] == "35"
    assert len(doc["codewords"]) == 35
    assert all(len(w) == 4 and len(w[0]) == 4 for w in doc["codewords"])


@pytest.mark.parametrize("translate", [100, -1, 16])
def test_certificate_translate_outside_the_code_refused(translate):
    # the code has 16 words; -1 must not wrap round to the last one
    doc = json.loads(bound3_witness(6, 6, 2, 3, 2, translate=0).to_json())
    doc["meta"]["translate"] = translate
    cert = certificate_from_jsonable(doc)
    with pytest.raises(ValueError, match=f"translate index {translate} out of range"):
        verify_certificate(cert)


def test_certificate_json_refuses_what_json_cannot_write():
    np = pytest.importorskip("numpy")
    cert = bound3_witness(6, 6, 2, 3, 2)
    for meta, name in (({"translate": np.int64(0)}, "int64"), ({"translate": {0}}, "set")):
        with pytest.raises(TypeError, match=f"Object of type {name} is not JSON serializable"):
            dataclasses.replace(cert, meta=meta).to_json()


def test_tampered_certificate_fails_verification():
    cert = bound3_witness(6, 6, 2, 3, 2)
    bad = certificate_from_jsonable(json.loads(cert.to_json()))
    tampered = bad.codewords[:-1] + ((1, 0, 0, 0, 0, 0),)
    bad = dataclasses.replace(bad, codewords=tampered)
    ok, checks = verify_certificate(bad)
    assert not ok
    assert not checks["membership"]


@pytest.fixture(scope="module")
def gab64_bound1_cert():
    """The 651-word bound1 certificate of Gab[6,4]/F_64 at tau=2 (211 575 pairs)."""
    cert = bound1_witness(GabidulinCode(make_field(2, 6), n=6, k=4), 2)
    assert cert.total_size == len(cert.codewords) == 651
    return cert


def test_tampered_large_certificate_duplicate_codeword(gab64_bound1_cert):
    cert = gab64_bound1_cert
    bad = dataclasses.replace(cert, codewords=cert.codewords[:-1] + cert.codewords[:1])
    ok, checks = verify_certificate(bad)
    assert not ok
    assert not checks["pairwise_distance"]
    assert checks["membership"] and checks["sphere_distance_exact"]


def test_tampered_large_certificate_wrong_distance(gab64_bound1_cert, force_batching):
    cert = gab64_bound1_cert
    fld = cert.field
    code = GabidulinCode(fld, n=6, k=4, alphas=cert.alphas)
    listed = set(cert.codewords)
    other = next(
        c
        for c in code.iter_codewords()
        if c not in listed
        and rank_of_vector(tuple(fld.sub(r, x) for r, x in zip(cert.received_word, c)), fld) != 2
    )
    bad = dataclasses.replace(cert, codewords=cert.codewords[:-1] + (other,))
    force_batching(True)  # the sphere and membership checks run batched too
    ok, checks = verify_certificate(bad)
    assert not ok
    assert not checks["sphere_distance_exact"]
    assert checks["membership"]


@pytest.mark.parametrize("batched", [False, True])
def test_tampered_large_certificate_non_codeword(gab64_bound1_cert, force_batching, batched):
    # 100 words: at least the 64 field elements, so the batched check tabulates
    cert = gab64_bound1_cert
    fld = cert.field
    word = list(cert.codewords[99])
    word[2] = fld.add(word[2], 1)
    bad = dataclasses.replace(cert, codewords=cert.codewords[:99] + (tuple(word),))
    force_batching(batched)
    ok, checks = verify_certificate(bad)
    assert not ok
    assert not checks["membership"]


@pytest.mark.parametrize("kind", ["bound1", "alt"])
@pytest.mark.parametrize("shift", [-1, 1])
def test_tampered_certificate_wrong_k(gab64_bound1_cert, kind, shift):
    # Gab[n, k+1] holds the words of Gab[n, k] on the same points, but its
    # distance is one less; Gab[n, k-1] does not hold them
    cert = gab64_bound1_cert if kind == "bound1" else bound1_alt_witness(CodeParams(q=2, m=4, n=4, d=3), 2)
    bad = dataclasses.replace(cert, k=cert.k + shift)
    ok, checks = verify_certificate(bad)
    assert not ok
    assert not checks["pairwise_distance"]
    assert checks["membership"] == (shift == 1)


@pytest.mark.parametrize("kind", ["bound1", "alt"])
@pytest.mark.parametrize("shift", [-1, 1])
def test_tampered_certificate_wrong_d(gab64_bound1_cert, kind, shift):
    cert = gab64_bound1_cert if kind == "bound1" else bound1_alt_witness(CodeParams(q=2, m=4, n=4, d=3), 2)
    bad = dataclasses.replace(cert, d=cert.d + shift)
    ok, checks = verify_certificate(bad)
    assert not ok
    assert not checks["pairwise_distance"]
    assert checks["membership"]


def _certificate_doc():
    return json.loads(bound1_witness(GabidulinCode(F16, n=4, k=2), 2).to_json())


def test_certificate_from_jsonable_refuses_missing_params():
    doc = _certificate_doc()
    del doc["params"]
    with pytest.raises(ValueError, match="'params'"):
        certificate_from_jsonable(doc)


@pytest.mark.parametrize("name,value", [("k", 2.7), ("q", "2"), ("d", None)])
def test_certificate_from_jsonable_refuses_non_integral_params(name, value):
    doc = _certificate_doc()
    doc["params"][name] = value
    with pytest.raises(ValueError, match=f"'params.{name}' must be an integer"):
        certificate_from_jsonable(doc)


def test_certificate_from_jsonable_refuses_non_integral_words():
    doc = _certificate_doc()
    doc["codewords"][0][0][0] = 0.5
    with pytest.raises(ValueError, match="'codewords'"):
        certificate_from_jsonable(doc)
    doc = _certificate_doc()
    doc["claimed_size"] = "35.0"
    with pytest.raises(ValueError, match="'claimed_size'"):
        certificate_from_jsonable(doc)


def test_word_cap_produces_sampled_certificate(monkeypatch):
    # of the 35 bucket members only the sampled ones are encoded, and only the
    # received word is evaluated at the points
    code = GabidulinCode(F16, n=4, k=2)
    full = bound1_witness(code, 2)
    encoded, evaluated = [], []
    codeword = GabidulinCode.codeword
    monkeypatch.setattr(GabidulinCode, "codeword", lambda self, i: encoded.append(i) or codeword(self, i))
    monkeypatch.setattr(witness, "evaluate", lambda f, a: evaluated.append(a) or evaluate(f, a))
    monkeypatch.setattr(witness, "CERTIFICATE_WORD_CAP", 10)
    cert = bound1_witness(code, 2)
    assert cert.truncated and 1 <= len(cert.codewords) <= 10
    assert len(encoded) == len(cert.codewords) and len(evaluated) == code.n
    assert cert.codewords == full.codewords[::4][:10]
    assert cert.total_size == 35
    ok, checks = verify_certificate(cert)
    assert ok, checks
