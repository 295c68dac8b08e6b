"""Constructive witnesses realizing the list-size lower bounds.

Each witness is a machine-checkable certificate: a received word plus a list
of codewords, every one at rank distance exactly tau from the received word,
pairwise at distance >= d.  Certificates are deterministic (fixed
tie-breaking), so identical inputs serialize to identical JSON.

* bound1: bucket the monic subspace polynomials of q-degree n - tau over
  F_{q^n} (n = m) by their coefficients of q-degree >= k, take a maximum
  bucket P; differences of members of P are the messages of codewords at
  distance exactly tau from the evaluation of a representative of P.  A
  subspace times x in F_{q^n}^* rescales the coefficients of its polynomial,
  so one polynomial per orbit gives every key, and only P is built.
* bound1_alt: the coset C + b, b in a complementary code B, holding the most
  rank-tau words of the MRD direct sum C + B = Gab[n, n - tau + 1].  Those
  words are the x P_V(alpha), x in F_{q^m}^*, so every coset count is the
  size of a bound1 bucket, with k = n - d + 1, and the best b evaluates the
  best key's polynomial x^{q^{n-tau}} + sum_i kappa_i x^{q^{k+i}}, as
  bound1 evaluates its representative.
* bound3: the constant-rank code of crc_theorem8 viewed from the zero word
  (or from one of its own words, the ``translate`` variant).

Both Gabidulin witnesses bucket in ``_subspace_poly_buckets``, which reads
the basis of one subspace per orbit (``matfq._singer_orbits``, walking the
smaller of Gr(n, t) and Gr(n, n - t)) and orders a best bucket worth numpy
by one batched RREF (``matfq._rrefs``).  They encode only the words they
store, all in one call of ``GabidulinCode.codewords`` (one table pass once
there are enough), and a certificate's text writes its words as one
``ff.Words`` leaf, from each element's cached JSON text.
Distances to the received word are computed by ``matfq.rank_distances``, and
the pairwise distances of bound3 by ``matfq.min_pairwise_rank_distance``;
both batch the ranks in numpy once there are enough of them.  Gabidulin codes
are MRD, so the pairwise distances of bound1 and alt follow from membership.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Sequence

from .bounds import CodeParams, bound1_alt_lower, bound1_lower, bound3_lower, gaussian_binomial, mrd_weight_tau
from .codes import GabidulinCode, crc_theorem8
from .ff import Field, Words, _undigits, json_bool, json_int, json_key, json_list, json_text, make_field
from .linpoly import LinearizedPoly, evaluate, min_subspace_poly
from .matfq import (
    _CODEWORD_WORK,
    MatrixFq,
    _batched,
    _digits,
    _log_arrays,
    _rrefs,
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
        return self._document(self.field.words_to_jsonable(self.codewords))

    def to_json(self) -> str:
        return json_text(self._document(Words(self.field, self.codewords)))

    def _document(self, codewords) -> dict:
        """The JSON object of the certificate, with ``codewords`` as its word
        list: lists for ``to_jsonable``, a ``Words`` leaf for ``json_text``."""
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
            "codewords": codewords,
            "meta": self.meta,
        }


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


def _cap_words(words: Sequence) -> tuple[tuple, bool]:
    """Deterministic evenly-strided sample of at most CERTIFICATE_WORD_CAP words (or messages)."""
    if len(words) <= CERTIFICATE_WORD_CAP:
        return tuple(words), False
    stride = math.ceil(len(words) / CERTIFICATE_WORD_CAP)
    return tuple(words[::stride][:CERTIFICATE_WORD_CAP]), True


def _subspace_poly_buckets(
    fld: Field, n: int, tau: int, k: int, order: Callable[[tuple[int, ...]], Any] | None = None
) -> tuple[dict[tuple[int, ...], int], tuple[int, ...], list[tuple[int, ...]]]:
    """The monic subspace polynomials P_U, U in Gr(n, t) over F_{q^n},
    t = n - tau, bucketed by their coefficients of q-degree k..t-1.

    Returns the size of every bucket by key; the best key, that of a largest
    bucket, the smallest under ``order`` on ties; and the coefficient tuples
    of the best bucket's polynomials, listed as ``grassmannian_enumerate``
    lists their subspaces (``grassmannian_order_key``).

    P_U is computed for one U per orbit of Gr(n, t) under multiplication by
    F_{q^n}^* (``_singer_orbits``).  P_{xU}(z) = x^{q^t} P_U(z / x), so
    coefficient i of P_{xU} is a_i x^{q^t - q^i}.  The orbit is the g^j U,
    g = ``fld.primitive`` and j below the orbit size, so each key coefficient
    follows from the one before by a multiplication.  Only the best bucket's
    subspaces and polynomials are built: one ``row_space`` each, or, for a
    bucket worth numpy (``_batched``), all of them at once by ``_orbit_members``.

    Refuses, before any work, more than WITNESS_GUARD subspaces.
    """
    q, t = fld.q, n - tau
    count = gaussian_binomial(n, tau, q)
    if count > WITNESS_GUARD:
        raise ValueError(f"{count} subspaces of Gr({n}, {t}) exceed the witness guard {WITNESS_GUARD}")
    g = fld.primitive
    orbits = []  # (basis, coefficients of P_U) per orbit representative U
    members: dict[tuple[int, ...], list[int]] = {}  # key -> packed (orbit, j) of each g^j U
    for o, (basis, size) in enumerate(_singer_orbits(fld, t)):
        coeffs = min_subspace_poly(basis, fld).coeffs
        orbits.append((basis, coeffs))
        steps = [fld.pow(g, q**t - q**i) for i in range(k, t)]
        key = coeffs[k:t]
        for j in range(size):
            members.setdefault(key, []).append(o * fld.order + j)
            key = tuple(fld.mul(c, s) for c, s in zip(key, steps))
    sizes = {key: len(v) for key, v in members.items()}
    top = max(sizes.values())
    best = min((key for key, size in sizes.items() if size == top), key=order)
    # each member costs the loop below one row_space, about one rank computation
    if _batched(top, fld.order) and fld._exp is not None:
        return sizes, best, _orbit_members(fld, t, orbits, members[best])
    bucket = []
    for packed in members[best]:
        o, j = divmod(packed, fld.order)
        basis, coeffs = orbits[o]
        x = fld.pow(g, j)
        U = row_space(MatrixFq._unchecked(q, tuple(fld.coeffs(fld.mul(x, b)) for b in basis), n))
        scaled = tuple(fld.mul(a, fld.pow(x, q**t - q**i)) for i, a in enumerate(coeffs))
        bucket.append((grassmannian_order_key(U), scaled))
    bucket.sort(key=lambda entry: entry[0])
    return sizes, best, [coeffs for _, coeffs in bucket]


def _orbit_members(fld: Field, t: int, orbits: list, packed: list[int]) -> list[tuple[int, ...]]:
    """The coefficient tuples of the P_{g^j U}, U the representative of orbit
    o, for the packed (o, j) of ``_subspace_poly_buckets``, in the order of
    ``grassmannian_order_key``: the scalar loop's work in numpy, with
    multiplication by g^j read from the log tables.

    The basis rows g^j u_i of all subspaces are reduced together by
    ``_rrefs`` and sorted with ``lexsort`` on (pivot columns, RREF basis).
    """
    import numpy as np

    q, n, cycle = fld.q, fld.m, fld.order - 1
    log, exp = _log_arrays(fld)
    o, j = np.divmod(np.array(packed, dtype=np.int64), fld.order)
    bases = np.array([basis for basis, _ in orbits], dtype=np.int64)
    reduced, _ = _rrefs(_digits(exp[log[bases[o]] + j[:, None]], q, n), q)
    pivots = (reduced != 0).argmax(axis=2)
    ordered = np.lexsort(np.hstack([pivots, reduced.reshape(len(packed), -1)]).T[::-1])
    # coefficient i of P_{xU} is a_i x^{q^t - q^i}, x = g^j; log 0 reads a zero
    coeffs = np.array([c for _, c in orbits], dtype=np.int64)[o[ordered]]
    shifts = np.array([(q**t - q**i) % cycle for i in range(t + 1)], dtype=np.int64)
    scaled = exp[log[coeffs] + j[ordered, None] * shifts % cycle]
    return list(map(tuple, scaled.tolist()))


def bound1_witness(code: GabidulinCode, tau: int) -> WitnessCertificate:
    """Pigeonhole witness for Gabidulin codes (requires n = m).

    Buckets the monic subspace polynomials of Gr(n, n-tau) by the coefficient
    tuple (f_k, ..., f_{n-tau-1}), takes a maximum bucket P and evaluates its
    least member rep as the received word.  Each sampled g in P gives the
    codeword of the message rep - g, of q-degree < k as rep and g agree above
    it.  Certificate size is at least ceil([n; n-tau] / q^{m(n-tau-k)}).
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
    rep = min(bucket)
    params = CodeParams(q=fld.q, m=fld.m, n=n, d=d, k=k)
    claimed = bound1_lower(params, tau).guarantee
    sample, truncated = _cap_words(bucket)
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
        received_word=tuple(evaluate(LinearizedPoly(fld, rep), a) for a in code.alphas),
        codewords=tuple(code.codewords([_undigits(map(fld.sub, rep[:k], g), fld.order) for g in sample])),
        claimed_size=claimed,
        total_size=len(bucket),
        truncated=truncated,
        meta={
            "bucket_count": sizes[best_key],
            "bucket_total": len(sizes),
            "bucket_key": fld.word_to_jsonable(best_key),
        },
    )


def bound1_alt_witness(params: CodeParams, tau: int) -> WitnessCertificate:
    """Coset witness via the direct sum of two Gabidulin codes (n = m).

    C = Gab[n, k], k = n-d+1, on the default points alpha_i; B holds the
    evaluations of sum_i f_i x^{q^{k+i}}, i < d-tau, at the same points, so
    C + B = Gab[n, n-tau+1].  The best translate C + b over b in B holds at
    least ceil([n; tau](q^m - 1)/q^{m(d-tau)}) words of rank exactly tau.
    b - c evaluates the polynomial with coefficients -(c's message), then b's
    message (f_0, ..., f_{d-tau-1}); it has rank tau exactly when it is x P_V,
    x = f_{d-tau-1} != 0, with P_V in the bucket x^{-1} (f_0, ..., f_{d-tau-2})
    for k.  The best coset has x = 1: the received word evaluates
    x^{q^{n-tau}} + sum_i kappa_i x^{q^{k+i}}, kappa the best key, and
    ``meta.best_coset_index`` is b's message index, base q^m.
    """
    q, m, n, d = params.q, params.m, params.n, params.d
    if n != m:
        raise ValueError(f"this witness requires n = m; got n={n}, m={m}")
    if not 1 <= tau < d:
        raise ValueError(f"need 1 <= tau < d, got tau={tau}, d={d}")
    fld = make_field(q, m)
    Q = fld.order
    k = n - d + 1
    code_c = GabidulinCode(fld, n=n, k=k)
    sizes, best_key, bucket = _subspace_poly_buckets(fld, n, tau, k, order=lambda key: _undigits(key, Q))
    b_best = LinearizedPoly(fld, (0,) * k + best_key + (1,))
    messages = sorted(_undigits(map(fld.neg, P[:k]), Q) for P in bucket)
    claimed = max(1, math.ceil(bound1_alt_lower(params, tau)))
    sample, truncated = _cap_words(messages)
    meta: dict = {"coset_total": mrd_weight_tau(n, m, tau, q), "best_coset_index": _undigits(best_key + (1,), Q)}
    if Q ** (d - tau) <= 4096:  # b's message digits, f_{d-tau-1} = x first, in message-index order
        meta["coset_counts"] = [
            sizes.get(tuple(fld.mul(fld.inv(x), f) for f in reversed(low)), 0) if x else 0
            for x, *low in itertools.product(range(Q), repeat=d - tau)
        ]
    return WitnessCertificate(
        kind=KIND_BOUND1_ALT,
        q=q,
        m=m,
        n=n,
        k=k,
        d=d,
        tau=tau,
        modulus=fld.modulus,
        alphas=code_c.alphas,
        received_word=tuple(evaluate(b_best, a) for a in code_c.alphas),
        codewords=tuple(code_c.codewords(sample)),
        claimed_size=claimed,
        total_size=len(messages),
        truncated=truncated,
        meta=meta,
    )


def _translated_words(crc, translate: int) -> list[tuple[int, ...]]:
    """The words a_j - a_i, a_i in the crc_theorem8 code C, j = ``translate``; j outside 0..|C|-1 raises ValueError."""
    if not 0 <= translate < crc.cardinality:
        raise ValueError(f"translate index {translate} out of range")
    return [tuple(map(crc.field.sub, crc.words[translate], a)) for a in crc.words]


def bound3_witness(n: int, m: int, tau: int, d: int, q: int, translate: int | None = None) -> WitnessCertificate:
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
        codewords = _translated_words(crc, translate)
        received = crc.words[translate]
    claimed = bound3_lower(CodeParams(q=q, m=m, n=n, d=d), tau)
    stored, truncated = _cap_words(codewords)
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
    scalar work together.  A bound3 ``meta.translate`` outside 0..|C|-1
    raises ValueError.
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
    if _batched(words * (1 + _CODEWORD_WORK) + len(sample) * (len(sample) - 1) // 2, fld.order):
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
            expected = set(_translated_words(crc, json_int(translate, "meta.translate")))
        checks["membership"] = set(cert.codewords) <= expected
        checks["size_exact"] = cert.total_size == crc.cardinality == cert.claimed_size
        min_dist = min_pairwise_rank_distance(sample, fld)
        checks["pairwise_distance"] = min_dist is None or min_dist >= cert.d
        checks["pairwise_exhaustive"] = len(sample) == words
    ok = all(v for key, v in checks.items() if key != "pairwise_exhaustive")
    return ok, checks
