"""Constructive witnesses realizing the list-size lower bounds.

Each witness is a machine-checkable certificate: a received word plus a list
of codewords, every one at rank distance exactly tau from the received word,
pairwise at distance >= d.  Certificates are deterministic (fixed
tie-breaking), so identical inputs serialize to identical JSON.

* bound1: bucket the monic subspace polynomials of q-degree n - tau over
  F_{q^n} (n = m) by their coefficients of q-degree >= k, take a maximum
  bucket P; differences of members of P encode to codewords at distance
  exactly tau from the evaluation of a representative of P.  Multiplying a
  subspace by x in F_{q^n}^* rescales the coefficients of its polynomial, so
  one polynomial per orbit gives every key, and only P is built.
* bound1_alt: the coset C + b, b in a complementary code B, holding the most
  rank-tau words of the MRD direct sum C + B = Gab[n, n - tau + 1].  Those
  words are the x P_V(alpha), x in F_{q^m}^*, so every coset count is the
  size of a bound1 bucket, with k = n - d + 1.
* bound3: the constant-rank code of crc_theorem8 viewed from the zero word
  (or from one of its own words, the ``translate`` variant).

Both Gabidulin witnesses bucket in ``_subspace_poly_buckets``.  Distances to
the received word are computed by ``matfq.rank_distances``, and the pairwise
distances of bound3 by ``matfq.min_pairwise_rank_distance``; both batch the
ranks in numpy once there are enough of them.  Gabidulin codes are MRD, so
the pairwise distances of bound1 and alt follow from membership.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Sequence

from .bounds import CodeParams, bound1_alt_lower, bound1_lower, bound3_lower, gaussian_binomial, mrd_weight_tau
from .codes import GabidulinCode, crc_theorem8
from .ff import Field, _undigits, json_bool, json_int, json_key, json_list, make_field
from .linpoly import LinearizedPoly, evaluate, min_subspace_poly
from .matfq import (
    _MEMBER_WORK,
    MatrixFq,
    _batched,
    _singer_orbits,
    grassmannian_order_key,
    min_pairwise_rank_distance,
    rank_distances,
    row_space,
)

CERTIFICATE_WORD_CAP = 1 << 16
WITNESS_GUARD = 1 << 20
PAIRWISE_CHECK_CAP = 700

KIND_BOUND1 = "bound1"
KIND_BOUND1_ALT = "bound1_alt"
KIND_BOUND3 = "bound3"


@dataclass(frozen=True)
class WitnessCertificate:
    """Adversarial receive-and-list certificate for one lower bound."""

    kind: str
    q: int
    m: int
    n: int
    k: int | None
    d: int
    tau: int
    modulus: tuple[int, ...]
    alphas: tuple[int, ...] | None
    received_word: tuple[int, ...]
    codewords: tuple[tuple[int, ...], ...]
    claimed_size: int
    total_size: int
    truncated: bool
    meta: dict = dc_field(default_factory=dict)

    @property
    def field(self) -> Field:
        return make_field(self.q, self.m, self.modulus)

    def to_jsonable(self) -> dict:
        fld = self.field
        params = {
            "q": self.q,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "tau": self.tau,
            "modulus": list(self.modulus),
        }
        if self.alphas is not None:
            params["alphas"] = fld.word_to_jsonable(self.alphas)
        return {
            "kind": self.kind,
            "params": params,
            "received_word": fld.word_to_jsonable(self.received_word),
            "claimed_size": str(self.claimed_size),
            "total_size": str(self.total_size),
            "truncated": self.truncated,
            "codewords": [fld.word_to_jsonable(w) for w in self.codewords],
            "meta": self.meta,
        }

    def to_json(self, verified: bool | None = None) -> str:
        doc = self.to_jsonable()
        if verified is not None:
            doc["verified"] = verified
        return json.dumps(doc, indent=2, sort_keys=True)


def _size(value, name: str) -> int:
    """A size, written as a decimal string by ``to_jsonable`` (or an integer)."""
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    return json_int(value, name)


def certificate_from_jsonable(data: dict) -> WitnessCertificate:
    """The certificate of ``WitnessCertificate.to_jsonable``.

    Integers and words are read by the ``ff`` codec; a missing or ill-typed
    field raises ValueError naming it.  ``k`` may be null only for bound3.
    """
    name = "certificate field {!r}".format
    kind, p = json_key(data, "kind", name("kind")), json_key(data, "params", name("params"))
    ints = {key: json_key(p, key, name(f"params.{key}"), json_int) for key in ("q", "m", "n", "d", "tau")}
    k = None if kind == KIND_BOUND3 and p.get("k") is None else json_key(p, "k", name("params.k"), json_int)
    modulus = json_key(p, "modulus", name("params.modulus"), json_list)
    fld = make_field(ints["q"], ints["m"], [json_int(c, name("params.modulus")) for c in modulus])
    words, meta = json_key(data, "codewords", name("codewords"), json_list), json_key(data, "meta", name("meta"))
    if kind == KIND_BOUND3 and json_key(meta, "translate", name("meta.translate")) is not None:
        json_int(meta["translate"], name("meta.translate"))
    return WitnessCertificate(
        kind=kind,
        **ints,
        k=k,
        modulus=fld.modulus,
        alphas=json_key(p, "alphas", name("params.alphas"), fld.word_from_jsonable) if "alphas" in p else None,
        received_word=json_key(data, "received_word", name("received_word"), fld.word_from_jsonable),
        codewords=tuple(fld.word_from_jsonable(w, name("codewords")) for w in words),
        claimed_size=json_key(data, "claimed_size", name("claimed_size"), _size),
        total_size=json_key(data, "total_size", name("total_size"), _size),
        truncated=json_key(data, "truncated", name("truncated"), json_bool),
        meta=meta,
    )


def _cap_words(words: Sequence[tuple[int, ...]], cap: int) -> tuple[tuple, bool]:
    """Deterministic evenly-strided sample of at most cap words."""
    if len(words) <= cap:
        return tuple(words), False
    stride = math.ceil(len(words) / cap)
    return tuple(words[::stride][:cap]), True


def _subspace_poly_buckets(
    fld: Field, n: int, tau: int, k: int, order: Callable[[tuple[int, ...]], Any] | None = None
) -> tuple[dict[tuple[int, ...], int], tuple[int, ...], list[LinearizedPoly]]:
    """The monic subspace polynomials P_U, U in Gr(n, t) over F_{q^n},
    t = n - tau, bucketed by their coefficients of q-degree k..t-1.

    Returns the size of every bucket by key; the best key, that of a largest
    bucket, the smallest under ``order`` on ties; and the best bucket's
    polynomials, listed as ``grassmannian_enumerate`` lists their subspaces
    (``grassmannian_order_key``).

    P_U is computed for one U per orbit of Gr(n, t) under multiplication by
    F_{q^n}^* (``_singer_orbits``).  P_{xU}(z) = x^{q^t} P_U(z / x), so
    coefficient i of P_{xU} is a_i x^{q^t - q^i}.  The orbit is the g^j U,
    g = ``fld.primitive`` and j below the orbit size, so each key coefficient
    follows from the one before by a multiplication.  Only the best bucket's
    subspaces and polynomials are built.

    Refuses, before any work, more than WITNESS_GUARD subspaces.
    """
    q, t = fld.q, n - tau
    count = gaussian_binomial(n, tau, q)
    if count > WITNESS_GUARD:
        raise ValueError(f"{count} subspaces of Gr({n}, {t}) exceed the witness guard {WITNESS_GUARD}")
    g = fld.primitive
    orbits = []  # (span, coefficients of P_U) per orbit representative U
    members: dict[tuple[int, ...], list[int]] = {}  # key -> packed (orbit, j) of each g^j U
    for o, (span, size) in enumerate(_singer_orbits(fld, t)):
        coeffs = min_subspace_poly([span[q**i] for i in range(t)], fld).coeffs
        orbits.append((span, coeffs))
        steps = [fld.pow(g, q**t - q**i) for i in range(k, t)]
        key = coeffs[k:t]
        for j in range(size):
            members.setdefault(key, []).append(o * fld.order + j)
            key = tuple(fld.mul(c, s) for c, s in zip(key, steps))
    sizes = {key: len(v) for key, v in members.items()}
    top = max(sizes.values())
    best = min((key for key, size in sizes.items() if size == top), key=order)
    bucket = []
    for packed in members[best]:
        o, j = divmod(packed, fld.order)
        span, coeffs = orbits[o]
        x = fld.pow(g, j)
        U = row_space(MatrixFq._unchecked(q, tuple(fld.coeffs(fld.mul(x, span[q**i])) for i in range(t)), n))
        poly = LinearizedPoly(fld, tuple(fld.mul(a, fld.pow(x, q**t - q**i)) for i, a in enumerate(coeffs)))
        bucket.append((grassmannian_order_key(U), poly))
    bucket.sort(key=lambda entry: entry[0])
    return sizes, best, [poly for _, poly in bucket]


def bound1_witness(code: GabidulinCode, tau: int, word_cap: int = CERTIFICATE_WORD_CAP) -> WitnessCertificate:
    """Pigeonhole witness for Gabidulin codes (requires n = m).

    Enumerates Gr(n, n-tau), forms the monic subspace polynomial of each
    subspace, buckets by the coefficient tuple (f_k, ..., f_{n-tau-1}), and
    evaluates a maximum bucket.  Certificate size is at least
    ceil([n; n-tau] / q^{m(n-tau-k)}).
    """
    fld = code.field
    n, k = code.n, code.k
    if n != fld.m:
        raise ValueError(
            "this witness evaluates subspace polynomials over the whole field and "
            f"requires n = m; got n={n}, m={fld.m} (smaller n is not supported, "
            "including divisors of m)"
        )
    d = code.d
    if not 0 <= tau < d:
        raise ValueError(f"need 0 <= tau < d, got tau={tau}, d={d}")
    sizes, best_key, bucket = _subspace_poly_buckets(fld, n, tau, k)
    rep = min(bucket, key=lambda f: f.coeffs)
    rep_evals = tuple(evaluate(rep, a) for a in code.alphas)
    codewords = []
    for g in bucket:
        g_evals = tuple(evaluate(g, a) for a in code.alphas)
        codewords.append(tuple(fld.sub(x, y) for x, y in zip(rep_evals, g_evals)))
    params = CodeParams(q=fld.q, m=fld.m, n=n, d=d, k=k)
    claimed = bound1_lower(params, tau).guarantee
    stored, truncated = _cap_words(codewords, word_cap)
    return WitnessCertificate(
        kind=KIND_BOUND1,
        q=fld.q,
        m=fld.m,
        n=n,
        k=k,
        d=d,
        tau=tau,
        modulus=fld.modulus,
        alphas=code.alphas,
        received_word=rep_evals,
        codewords=stored,
        claimed_size=claimed,
        total_size=len(codewords),
        truncated=truncated,
        meta={
            "bucket_count": sizes[best_key],
            "bucket_total": len(sizes),
            "bucket_key": fld.word_to_jsonable(best_key),
        },
    )


def bound1_alt_witness(
    params: CodeParams, tau: int, word_cap: int = CERTIFICATE_WORD_CAP
) -> WitnessCertificate:
    """Coset witness via the direct sum of two Gabidulin codes (n = m).

    C = Gab[n, n-d+1] on the default points alpha_i; B = Gab[n, d-tau] on the
    Frobenius-shifted points alpha_i^{q^{n-d+1}}.  The best translate C + b
    over b in B holds at least ceil([n; tau](q^m - 1)/q^{m(d-tau)}) words of
    rank exactly tau.  b - c evaluates the polynomial with coefficients
    -(c's message), then b's message (f_0, ..., f_{d-tau-1}); it has rank tau
    exactly when it is x P_V, x = f_{d-tau-1} != 0, with P_V in the bucket
    x^{-1} (f_0, ..., f_{d-tau-2}) for k = n-d+1.  The best coset has x = 1.
    """
    q, m, n, d = params.q, params.m, params.n, params.d
    if n != m:
        raise ValueError(f"this witness requires n = m; got n={n}, m={m}")
    if not 1 <= tau < d:
        raise ValueError(f"need 1 <= tau < d, got tau={tau}, d={d}")
    fld = make_field(q, m)
    Q = fld.order
    code_c = GabidulinCode(fld, n=n, k=n - d + 1)
    alphas_b = tuple(fld.frobenius(a, code_c.k) for a in code_c.alphas)
    code_b = GabidulinCode(fld, n=n, k=d - tau, alphas=alphas_b)
    sizes, best_key, bucket = _subspace_poly_buckets(fld, n, tau, code_c.k, order=lambda key: _undigits(key, Q))
    best_index = _undigits(best_key + (1,), Q)
    messages = sorted(_undigits([fld.neg(c) for c in P.coeffs[: code_c.k]], Q) for P in bucket)
    codewords = [code_c.codeword(i) for i in messages]
    claimed = max(1, math.ceil(bound1_alt_lower(params, tau)))
    stored, truncated = _cap_words(codewords, word_cap)
    meta: dict = {"coset_total": mrd_weight_tau(n, m, tau, q), "best_coset_index": best_index}
    if code_b.cardinality <= 4096:  # b's message digits, f_{d-tau-1} = x first, in message-index order
        meta["coset_counts"] = [
            sizes.get(tuple(fld.mul(fld.inv(x), f) for f in reversed(low)), 0) if x else 0
            for x, *low in itertools.product(range(Q), repeat=d - tau)
        ]
    return WitnessCertificate(
        kind=KIND_BOUND1_ALT,
        q=q,
        m=m,
        n=n,
        k=code_c.k,
        d=d,
        tau=tau,
        modulus=fld.modulus,
        alphas=code_c.alphas,
        received_word=code_b.codeword(best_index),
        codewords=stored,
        claimed_size=claimed,
        total_size=len(codewords),
        truncated=truncated,
        meta=meta,
    )


def bound3_witness(
    n: int,
    m: int,
    tau: int,
    d: int,
    q: int,
    translate: int | None = None,
    word_cap: int = CERTIFICATE_WORD_CAP,
) -> WitnessCertificate:
    """Existence witness: the crc_theorem8 code seen from r = 0.

    With ``translate = j`` the received word is the j-th code word a_j and
    the listed codewords are {a_j - a_i}; the zero word then enters the list
    while a_j leaves it.  Certificate size is exactly
    q^{(n-tau)(tau - floor((d-1)/2))}.
    """
    crc = crc_theorem8(n, m, tau, d, q)
    fld = crc.field
    if translate is None:
        received = (0,) * n
        codewords = list(crc.words)
    else:
        if not 0 <= translate < crc.cardinality:
            raise ValueError(f"translate index {translate} out of range")
        a_j = crc.words[translate]
        received = tuple(a_j)
        codewords = [
            tuple(fld.sub(a_j[i], a[i]) for i in range(n)) for a in crc.words
        ]
    claimed = bound3_lower(CodeParams(q=q, m=m, n=n, d=d), tau)
    stored, truncated = _cap_words(codewords, word_cap)
    return WitnessCertificate(
        kind=KIND_BOUND3,
        q=q,
        m=m,
        n=n,
        k=None,
        d=d,
        tau=tau,
        modulus=fld.modulus,
        alphas=None,
        received_word=received,
        codewords=stored,
        claimed_size=claimed,
        total_size=len(codewords),
        truncated=truncated,
        meta={"translate": translate},
    )


def verify_certificate(cert: WitnessCertificate) -> tuple[bool, dict]:
    """Independent re-verification of a certificate.

    Checks: claimed size equals the bound formula; the list is at least that
    large; every stored codeword belongs to the declared code; every stored
    codeword has rank distance exactly tau from the received word; pairwise
    rank distances are >= d.  Gab[n, k] is MRD (Gabidulin 1985): distinct
    codewords lie at rank distance >= n - k + 1.  So for bound1 and alt the
    pairwise check is decided in full, at any size, by membership, no
    repeated word and d = n - k + 1.  bound3 words are ranked pair by pair,
    exhaustively up to PAIRWISE_CHECK_CAP words and on a deterministic prefix
    beyond.  Whether the checks run in numpy is decided once, from their
    scalar work together.
    """
    fld = cert.field
    checks: dict[str, bool] = {}
    params = CodeParams(q=cert.q, m=cert.m, n=cert.n, d=cert.d)
    mrd = cert.k is not None and cert.d == cert.n - cert.k + 1  # Gab[n, k] has d = n - k + 1
    if cert.kind == KIND_BOUND1:
        formula = None  # bound1_lower refuses a k that does not match d
        if mrd:
            formula = bound1_lower(CodeParams(q=cert.q, m=cert.m, n=cert.n, d=cert.d, k=cert.k), cert.tau).guarantee
    elif cert.kind == KIND_BOUND1_ALT:
        formula = max(1, math.ceil(bound1_alt_lower(params, cert.tau)))
    elif cert.kind == KIND_BOUND3:
        formula = bound3_lower(params, cert.tau)
    else:
        raise ValueError(f"unknown certificate kind {cert.kind!r}")
    checks["claimed_matches_formula"] = cert.claimed_size == formula
    checks["size_at_least_claimed"] = cert.total_size >= cert.claimed_size
    if not cert.truncated:
        checks["stored_matches_total"] = len(cert.codewords) == cert.total_size
    gabidulin = cert.kind in (KIND_BOUND1, KIND_BOUND1_ALT)
    sample = () if gabidulin else cert.codewords[:PAIRWISE_CHECK_CAP]
    words = len(cert.codewords)
    if _batched(words * (1 + _MEMBER_WORK) + len(sample) * (len(sample) - 1) // 2, fld.order):
        import numpy  # noqa: F401  (loaded first, each check below takes its batched path)
    checks["sphere_distance_exact"] = all(
        dist == cert.tau for dist in rank_distances(cert.received_word, cert.codewords, fld)
    )
    if gabidulin:
        code = GabidulinCode(fld, n=cert.n, k=cert.k, alphas=cert.alphas)
        checks["membership"] = code.contains_all(cert.codewords)
        checks["pairwise_distance"] = checks["membership"] and len(set(cert.codewords)) == words and mrd
        checks["pairwise_exhaustive"] = True
    else:
        crc = crc_theorem8(cert.n, cert.m, cert.tau, cert.d, cert.q)
        translate = cert.meta.get("translate")
        if translate is None:
            expected = set(crc.words)
        else:
            a_j = crc.words[int(translate)]
            expected = {
                tuple(fld.sub(a_j[i], a[i]) for i in range(cert.n)) for a in crc.words
            }
        checks["membership"] = set(cert.codewords) <= expected
        checks["size_exact"] = cert.total_size == crc.cardinality == cert.claimed_size
        min_dist = min_pairwise_rank_distance(sample, fld)
        checks["pairwise_distance"] = min_dist is None or min_dist >= cert.d
        checks["pairwise_exhaustive"] = len(sample) == words
    ok = all(v for key, v in checks.items() if key != "pairwise_exhaustive")
    return ok, checks
