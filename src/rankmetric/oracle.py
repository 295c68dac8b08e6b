"""Ground-truth brute force: exact decoding lists and exhaustive maxima.

The received-word space F_{q^m}^n is indexed big-endian (the first
coordinate is the most significant base-q^m digit), so ascending index order
is lexicographic order on word tuples.  Every maximum is exact, with the
lexicographically smallest argmax.

For a Gabidulin code the list size of r depends only on the coset r + C, so
the maximum is the fullest coset of the rank ball of radius tau, counted by
``_coset_histogram`` without enumerating received words or codewords.  Coset
counts are constant on the orbits of F_{q^m}^*, so it keys the errors of one
column space through 1 per orbit of the Singer cycle, weighted by the orbit
size; its guard counts those steps, not the ball.  Other codes are scanned
word by word (``_count_ball``), the tests' ground truth.

Decoding lists, distance counts and ``ball_volume_bruteforce`` run in numpy
once ``matfq._batched`` finds enough work: Gabidulin codewords come as
blocks from ``GabidulinCode.codeword_blocks`` (``matfq._row_tables``) and
matrices as blocks of base-q^m digits, ranked by ``matfq._column_ranks``
(XOR bit planes at q = 2, pivot counts of ``matfq._rrefs`` at q > 2).
Below that they build one tuple per word (``GabidulinCode.iter_codewords``,
``matfq._combine``) and rank it with the scalar ``matfq._column_rank`` (an
XOR basis at q = 2, pivot counts of ``matfq._gauss_jordan`` at q > 2), as
``rank_leq`` and ``_count_ball`` always do: the reference the batched paths
are tested against.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import ff
from .bounds import gaussian_binomial, sphere_volume
from .codes import ENUMERATION_GUARD, ConstantRankCode, GabidulinCode
from .ff import Field, make_field
from .matfq import (
    _BATCH_ROWS,
    _CODEWORD_WORK,
    _addends,
    _batched,
    _column_rank,
    _column_ranks,
    _digits,
    _multiples,
    _singer_orbits,
    _sub_words,
    _table_sums,
    _undigits,
    iter_rank_distances,
    min_pairwise_rank_distance,
)

EXHAUSTIVE_GUARD = 1 << 28
BRUTEFORCE_GUARD = 1 << 24
_CHUNK = 1 << 16


def pack_word(vec: Sequence[int], order: int) -> int:
    """Big-endian index of a word: ``ff._undigits`` of the reversed word."""
    return ff._undigits(reversed(vec), order)


def unpack_word(index: int, order: int, n: int) -> tuple[int, ...]:
    """Inverse of ``pack_word`` for words of length n."""
    return tuple(reversed(ff._digits(index, order, n)))


def code_field(code, field: Field | None = None) -> Field:
    owned = getattr(code, "field", None)
    if owned is not None:
        return owned
    if field is None:
        raise ValueError("a Field is required when the code is a plain word sequence")
    return field


def iter_codewords(code) -> Iterator[tuple[int, ...]]:
    """Codewords in deterministic order (message-index order for Gabidulin)."""
    if isinstance(code, (GabidulinCode, ConstantRankCode)):
        return code.iter_codewords()
    if isinstance(code, Iterable):
        return (tuple(int(x) for x in w) for w in code)
    raise TypeError(f"cannot enumerate codewords of {type(code).__name__}")


def code_size(code) -> int:
    if isinstance(code, (GabidulinCode, ConstantRankCode)):
        return code.cardinality
    return len(code)


def _code_length(code) -> int | None:
    """Word length n of the code; None for an empty plain word sequence."""
    if isinstance(code, (GabidulinCode, ConstantRankCode)):
        return code.n
    return next((len(w) for w in code), None)


def _check_tau(tau: int, n: int | None) -> None:
    if tau < 0 or (n is not None and tau > n):
        raise ValueError(f"need 0 <= tau <= n={n}, got tau={tau}")


def rank_leq(diff: Sequence[int], fld: Field, tau: int) -> bool:
    """rank(diff) <= tau; at q = 2 the rank kernel exits early once tau is exceeded."""
    return _column_rank(diff, fld.q, fld.m, tau) <= tau


@dataclass(frozen=True)
class ListResult:
    """Exact decoding list around one received word."""

    field: Field
    received_word: tuple[int, ...]
    tau: int
    codewords: tuple[tuple[int, ...], ...]
    distances: tuple[int, ...]
    sphere_counts: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.codewords)


def _enumerable_size(code) -> int:
    """code_size(code), refused above ENUMERATION_GUARD."""
    size = code_size(code)
    if size > ENUMERATION_GUARD:
        raise ValueError(f"code too large to enumerate ({size} > {ENUMERATION_GUARD})")
    return size


def _check_received(code, r: tuple[int, ...]) -> None:
    _enumerable_size(code)
    n = _code_length(code)
    if n is not None and len(r) != n:
        raise ValueError(f"received word has length {len(r)}, the code has length {n}")


def _distance_blocks(code, r: tuple[int, ...], fld: Field):
    """(words, ranks) blocks covering the code in enumeration order, with
    ranks[i] = rank(r - words[i]) in a list.

    A GabidulinCode with enough work for ``matfq._batched`` comes as int64
    blocks of ``codeword_blocks``; any other code as tuples of word tuples
    from ``iter_rank_distances``.
    """
    size = code_size(code)
    if isinstance(code, GabidulinCode) and _batched(size * _CODEWORD_WORK, fld.order):
        import numpy as np

        center = np.asarray(r, dtype=np.int64)
        for block in code.codeword_blocks():
            diffs = _sub_words(center, block, fld) if any(r) else block  # rank(0 - c) = rank(c)
            yield block, _column_ranks(diffs, fld.q, fld.m).tolist()
        return
    pairs = iter_rank_distances(r, iter_codewords(code), fld, size)
    while chunk := list(itertools.islice(pairs, _BATCH_ROWS)):
        words, ranks = zip(*chunk)
        yield words, list(ranks)


def list_codewords(code, r: Sequence[int], tau: int, field: Field | None = None) -> ListResult:
    """All codewords within rank distance tau of r, in enumeration order."""
    fld = code_field(code, field)
    r = tuple(int(x) for x in r)
    _check_received(code, r)
    _check_tau(tau, _code_length(code))
    members = []
    distances = []
    for words, ranks in _distance_blocks(code, r, fld):
        for i, dist in enumerate(ranks):
            if dist <= tau:
                members.append(tuple(map(int, words[i])))
                distances.append(dist)
    counts = tuple(distances.count(t) for t in range(tau + 1))
    return ListResult(fld, r, tau, tuple(members), tuple(distances), counts)


def distance_counts(code, r: Sequence[int], field: Field | None = None) -> list[int]:
    """counts[t] = number of codewords at rank distance t from r, t = 0..n."""
    fld = code_field(code, field)
    r = tuple(int(x) for x in r)
    _check_received(code, r)
    counts = [0] * (len(r) + 1)
    for _, ranks in _distance_blocks(code, r, fld):
        for t, count in Counter(ranks).items():
            counts[t] += count
    return counts


@dataclass(frozen=True)
class MaxListResult:
    ell: int
    word: tuple[int, ...]
    scanned: int
    exhaustive: bool


def _count_ball(r: tuple[int, ...], words, fld: Field, tau: int) -> int:
    return sum(rank_leq(tuple(fld.sub(x, y) for x, y in zip(r, cw)), fld, tau) for cw in words)


def _orbit_count(m: int, t: int, q: int) -> int:
    """Number of orbits of Gr(m, t) under multiplication by F_{q^m}^*.

    The stabilizer of U is F_{q^s}^* for the largest s such that U is an
    F_{q^s}-subspace (s divides m and t), and its orbit has (q^m - 1)/(q^s - 1)
    subspaces.  The F_{q^s}-subspaces number [m/s; t/s]_{q^s}, so those whose
    largest such s is exactly s follow by inclusion-exclusion over the
    multiples of s.
    """
    g = math.gcd(m, t)
    exact: dict[int, int] = {}
    for s in sorted((s for s in range(1, g + 1) if g % s == 0), reverse=True):
        exact[s] = gaussian_binomial(m // s, t // s, q**s) - sum(c for r, c in exact.items() if r % s == 0)
    return sum(c * (q**s - 1) for s, c in exact.items()) // (q**m - 1)


def _coset_work(code: GabidulinCode, tau: int) -> int:
    """Steps of ``_coset_histogram``: per rank t, the q^{tn} candidate
    matrices A, the [m; t]_q subspaces the orbit representatives stand for
    and the errors keyed (orbits times full-rank A); then the bins."""
    q, m, n = code.q, code.m, code.n
    steps = code.field.order ** (n - code.k)
    for t in range(1, tau + 1):
        steps += q ** (t * n) + gaussian_binomial(m, t, q) + _orbit_count(m, t, q) * sphere_volume(t, n, q, t)
    return steps


def _key_normalizer(fld: Field, width: int):
    """A function scaling each packed key of ``width`` coordinates by the
    inverse of its first nonzero coordinate (0 stays 0): the smallest key of
    its orbit under F_{q^m}^*.  Reads the log tables of ``fld``."""
    import numpy as np

    if width <= 1:
        return lambda keys: np.minimum(keys, 1)
    order, n1 = fld.order, fld.order - 1
    log = np.asarray(fld._log, dtype=np.int64)
    # two periods of the antilog table, then zeros, which the log of 0 points into
    exp = np.concatenate([fld._exp, fld._exp, np.zeros(order, dtype=np.int64)])
    log_or_zero = log.copy()
    log_or_zero[0] = 2 * n1

    def normalize(keys):
        digits = [keys // order**j % order for j in range(width)]  # last coordinate first
        lead = digits[0]
        for d in digits[1:]:
            lead = np.where(d != 0, d, lead)
        shift = n1 - log[lead]  # exp[log[d] + shift] = d / lead
        out = exp[log_or_zero[digits[0]] + shift]
        for j in range(1, width):
            out += exp[log_or_zero[digits[j]] + shift] * order**j
        return out

    return normalize


def _coset_histogram(code: GabidulinCode, tau: int, guard: int = EXHAUSTIVE_GUARD):
    """Orbit-reduced coset counts of the rank ball of radius tau.

    Returns acc, indexed by coset key: acc[0] is the number of errors e with
    rank(e) <= tau in the code itself; for a key whose first nonzero
    coordinate is 1, acc[key] is q^m - 1 times the number of such errors in
    each coset of the orbit {x key : x in F_{q^m}^*}; every other bin is 0.
    So acc sums to the ball volume, and key is the smallest of its orbit.

    The key of a coset is the packed index (``pack_word``) of its one word
    that is zero on the first k positions, the reduction of any of its words
    modulo the generator rows; for an MRD code that word is also the
    lexicographically smallest of the coset.  The key is F_{q^m}-linear, so
    key(e) is the sum over j of e_j key(u_j) (``GabidulinCode._unit_keys``),
    and key(x e) = x key(e): coset counts are constant on orbits.  Rank-t
    errors are e_j = sum_i A_ij b_i over the full-rank t x n matrices A and a
    basis b_1..b_t of their column space U; multiplying by x maps U to xU and
    keeps A.  So only one U per orbit of Gr(m, t) under F_{q^m}^* is keyed
    (``_singer_orbits``), read from one table per coordinate j by
    ``matfq._table_sums``, and each error adds its orbit size at its
    normalized key (``_key_normalizer``).

    Refuses, before any work, more than ENUMERATION_GUARD cosets or more
    than ``guard`` steps (``_coset_work``); the counts are checked against
    the closed form sphere volumes.
    """
    import numpy as np

    fld = code.field
    q, m, n, k, p = fld.q, fld.m, code.n, code.k, fld.char
    bins = fld.order ** (n - k)
    if bins > ENUMERATION_GUARD:
        raise ValueError(f"{bins} cosets exceed the coset guard {ENUMERATION_GUARD}")
    work = _coset_work(code, tau)
    if work > guard:
        raise ValueError(f"coset count of {work} steps exceeds exhaustive guard {guard}")
    # a key packs (n-k) m e base-p digits (q = p^e)
    width = (n - k) * m * fld.base.e
    # key(x u_j) = x key(u_j), packed big-endian like pack_word
    unit_keys = code._unit_keys
    normalize = _key_normalizer(fld, n - k)
    acc = np.zeros(bins, dtype=np.int64)
    acc[0] = 1
    for t in range(1, tau + 1):
        # every full-rank t x n matrix A over F_q, one per row: entry j is
        # column j of A, the integer whose base-q digit i is A_ij
        total = q ** (t * n)
        cols = np.concatenate(
            [
                block[_column_ranks(block, q, t) == t]
                for block in (
                    _digits(np.arange(lo, min(lo + _CHUNK, total)), q**t, n) for lo in range(0, total, _CHUNK)
                )
            ]
        )
        for span, size in _singer_orbits(fld, t):
            tables = [
                _addends(_undigits(_multiples(fld, span, key)[:, ::-1], fld.order), p, width) for key in unit_keys
            ]
            for start in range(0, len(cols), _CHUNK):
                keys = _table_sums(tables, cols[start : start + _CHUNK], p)
                np.add.at(acc, normalize(keys), size)
    volume = sum(sphere_volume(m, n, q, t) for t in range(tau + 1))
    if acc.sum() != volume:
        raise AssertionError(f"coset counts add up to {acc.sum()}, not the ball volume {volume}")
    return acc


def max_list_size(
    code,
    tau: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    trials: int | None = None,
    field: Field | None = None,
    guard: int | None = None,
) -> MaxListResult:
    """max over received words r of |{c in code : rank(r - c) <= tau}|.

    mode "exhaustive" returns the exact maximum with the lexicographically
    smallest argmax.  For a GabidulinCode it is the fullest coset of the rank
    ball (see ``_coset_histogram``), refused when counting it takes more than
    ``guard`` (default EXHAUSTIVE_GUARD) steps; any other code is scanned
    word by word, refused when received words times codewords exceed
    ``guard``.  mode "random" samples ``trials`` words seeded by ``seed``
    and returns a lower estimate, refused like the scan when trials times
    codewords exceed ``guard``.  ``scanned`` is the number of received
    words the maximum covers.
    """
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    guard = EXHAUSTIVE_GUARD if guard is None else guard
    fld = code_field(code, field)
    _check_tau(tau, _code_length(code))
    if mode == "exhaustive" and isinstance(code, GabidulinCode):
        acc = _coset_histogram(code, tau, guard)
        # coset 0 against the fullest orbit; the first argmax is the smallest key
        ell, key = int(acc[0]), 0
        if len(acc) > 1:
            best = 1 + int(acc[1:].argmax())
            if acc[best] // (fld.order - 1) > ell:
                ell, key = int(acc[best]) // (fld.order - 1), best
        return MaxListResult(ell, unpack_word(key, fld.order, code.n), fld.order**code.n, True)
    n, size = _code_length(code) or 0, _enumerable_size(code)
    total = fld.order**n
    if mode == "random" and (trials is None or trials < 1):
        raise ValueError("random mode requires trials >= 1")
    scanned = trials if mode == "random" else total
    if scanned * size > guard:
        raise ValueError(f"scan of {scanned} words against {size} codewords exceeds exhaustive guard {guard}")
    words = list(iter_codewords(code))
    if mode == "random":
        rng = random.Random(seed)
        indices = (rng.randrange(total) for _ in range(trials))
    else:
        indices = range(total)
    best_count, best_index = -1, -1
    for index in indices:
        count = _count_ball(unpack_word(index, fld.order, n), words, fld, tau)
        if count > best_count or (count == best_count and index < best_index):
            best_count, best_index = count, index
    return MaxListResult(best_count, unpack_word(best_index, fld.order, n), scanned, mode == "exhaustive")


def list_to_crc(
    result: ListResult,
    exact_distance: int | None = None,
    source_min_distance: int | None = None,
) -> ConstantRankCode:
    """Translate {r - c_i : rank(r - c_i) = exact_distance} into a constant-rank code.

    Cardinality equals sphere_counts[exact_distance]; all words have rank
    exactly that distance; the pairwise minimum is the exact minimum when
    the list is small enough to check, else the supplied source distance.
    """
    fld = result.field
    tau = result.tau if exact_distance is None else exact_distance
    if not 0 <= tau <= result.tau:
        raise ValueError(f"exact distance {tau} outside the scanned radius {result.tau}")
    translated = tuple(
        tuple(fld.sub(x, y) for x, y in zip(result.received_word, cw))
        for cw, dist in zip(result.codewords, result.distances)
        if dist == tau
    )
    if not translated:
        raise ValueError(f"no codewords at exact distance {tau}")
    if len(translated) <= 512:
        min_dist = min_pairwise_rank_distance(translated, fld) or 0
        exact = True
    else:
        if source_min_distance is None:
            raise ValueError("source_min_distance required for large lists")
        min_dist, exact = source_min_distance, False
    return ConstantRankCode(fld, len(result.received_word), tau, translated, min_dist, exact)


def ball_volume_bruteforce(m: int, n: int, q: int, tau: int, center: Sequence[int] | None = None) -> int:
    """Count m x n matrices over F_q within rank distance tau of the center.

    The center is a length-n word over F_{q^m}, column j of the matrix being
    the base-q digits of its entry j.  Matrices are enumerated as words over
    F_{q^m}, shifted by the center; the count is center-independent.  With
    enough of them for ``matfq._batched`` the words come as numpy blocks of
    the base-q^m digits of their indices, else one ``itertools.product``
    tuple at a time in ascending pack_word order.
    """
    total = q ** (m * n)
    if total > BRUTEFORCE_GUARD:
        raise ValueError(f"matrix space {total} exceeds guard {BRUTEFORCE_GUARD}")
    if not 0 <= tau <= min(m, n):
        raise ValueError(f"need 0 <= tau <= min(m, n), got tau={tau}")
    order = q**m
    if center is not None:
        center = [int(c) for c in center]
        if len(center) != n:
            raise ValueError(f"center has length {len(center)}, need n={n}")
        if any(not 0 <= c < order for c in center):
            raise ValueError(f"center entries must lie in 0..{order - 1}")
    fld = make_field(q, m) if center is not None and any(center) else None
    if _batched(total, order):
        import numpy as np

        shift = None if fld is None else np.asarray(center, dtype=np.int64)
        count = 0
        for lo in range(0, total, _BATCH_ROWS):
            words = _digits(np.arange(lo, min(lo + _BATCH_ROWS, total)), order, n)
            if shift is not None:
                words = _sub_words(words, shift, fld)
            count += int((_column_ranks(words, q, m) <= tau).sum())
        return count
    columns = [range(order)] * n
    if fld is not None:
        columns = [[fld.sub(a, c) for a in range(order)] for c in center]
    return sum(_column_rank(w, q, m, tau) <= tau for w in itertools.product(*columns))
