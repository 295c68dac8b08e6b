"""Ground-truth brute force on Gabidulin codes: exact decoding lists and maxima.

Every entry point takes a ``GabidulinCode``, the one code class the bounds'
oracle questions are asked of; any other object raises TypeError.  Received
words and radii follow the integer rule of ``ff.json_int``, and entries lie
in 0..q^m - 1.

The received-word space F_{q^m}^n is indexed big-endian (the first
coordinate is the most significant base-q^m digit), so ascending index order
is lexicographic order on word tuples.  Every maximum is exact, with the
lexicographically smallest argmax.

The list size of r depends only on the coset r + C, so the maximum is the
fullest coset of the rank ball of radius tau, counted by
``_coset_histogram`` without enumerating received words or codewords.  Coset
counts are constant on the orbits of F_{q^m}^*, so it keys the errors of one
column space per orbit of the Singer cycle (``matfq._singer_orbits``),
weighted by the orbit size; its guard counts those steps, not the ball.
Only ``mode="random"`` scans words, one drawn word at a time
(``_count_ball``).

Decoding lists, distance counts and ``ball_volume_bruteforce`` run in numpy
once ``matfq._batched`` finds enough work.  Decoding lists and distance
counts take Gabidulin codewords as blocks from ``GabidulinCode.codeword_blocks``
(``matfq._row_tables``), ranked by ``matfq._block_distances``, the numpy block
of ``matfq.rank_distances`` (``matfq._column_ranks``: an XOR basis of one
unsigned vector per column at q = 2, pivot counts of
``matfq._rrefs`` at q > 2); a mask keeps the words of a list and
``np.bincount`` counts the distances, so a block costs a fixed number of
numpy calls and only listed words become tuples.  Ball counts, like
the full-rank candidates of the coset histogram, rank the whole matrix space
at once with ``matfq._space_ranks``, which shares the work on the first
columns among the matrices that have them.  Below the numpy floor every path
builds one tuple per word (``GabidulinCode.iter_codewords``,
``matfq._combine``) and ranks it with the scalar ``matfq._column_rank`` (an
XOR basis at q = 2, pivot counts of ``matfq._gauss_jordan`` at q > 2), as
``_count_ball`` always does.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

from . import ff
from .bounds import gaussian_binomial, sphere_volume
from .codes import ENUMERATION_GUARD, GabidulinCode
from .ff import Field, json_int
from .matfq import (
    _BATCH_ROWS,
    _CODEWORD_WORK,
    _addends,
    _batched,
    _block_distances,
    _column_rank,
    _digits,
    _multiples,
    _singer_orbits,
    _space_ranks,
    _table_sums,
    _undigits,
    rank_distances,
)

EXHAUSTIVE_GUARD = 1 << 28
BRUTEFORCE_GUARD = 1 << 24
_CHUNK = 1 << 16


def unpack_word(index: int, order: int, n: int) -> tuple[int, ...]:
    """The word of length n with big-endian index ``index``: its last entry
    is the least significant base-``order`` digit."""
    return tuple(reversed(ff._digits(index, order, n)))


def _check_code(code) -> None:
    if not isinstance(code, GabidulinCode):
        raise TypeError(f"the oracle takes a GabidulinCode, got {type(code).__name__}")


def _read_tau(tau, n: int) -> int:
    tau = json_int(tau, "tau")
    if not 0 <= tau <= n:
        raise ValueError(f"need 0 <= tau <= n={n}, got tau={tau}")
    return tau


@dataclass(frozen=True)
class ListResult:
    """Exact decoding list around one received word."""

    received_word: tuple[int, ...]
    tau: int
    codewords: tuple[tuple[int, ...], ...]
    sphere_counts: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.codewords)


def _enumerable_size(code: GabidulinCode) -> int:
    """code.cardinality, refused above ENUMERATION_GUARD."""
    if code.cardinality > ENUMERATION_GUARD:
        raise ValueError(f"code too large to enumerate ({code.cardinality} > {ENUMERATION_GUARD})")
    return code.cardinality


def _read_received(code, r: Sequence[int]) -> tuple[int, ...]:
    """r as a tuple, refusing in this order: a code that is not a
    GabidulinCode, an entry that is not an integer (``ff.json_int``) or lies
    outside 0..q^m - 1, a code too large to enumerate and a length other than n."""
    _check_code(code)
    order = code.field.order
    r = tuple(json_int(x, f"received word entry {j}") for j, x in enumerate(r))
    for j, x in enumerate(r):
        if not 0 <= x < order:
            raise ValueError(f"received word entry {j} must lie in 0..{order - 1}, got {x}")
    _enumerable_size(code)
    if len(r) != code.n:
        raise ValueError(f"received word has length {len(r)}, the code has length {code.n}")
    return r


def _ranked(code: GabidulinCode, r: tuple[int, ...], tau: int) -> tuple[list, list[int]]:
    """(near, counts) around r: the codewords within rank distance tau of r,
    as int tuples in message-index order, and counts[t], the number of
    codewords at rank distance t from r for t = 0..n.

    With enough work for ``matfq._batched`` the int64 blocks of
    ``codeword_blocks`` are ranked by ``matfq._block_distances``: not by
    ``rank_distances``, which decides its path again and would send a small
    block of numpy integers to the scalar loop.  A mask picks the words
    within tau and ``np.bincount`` counts the ranks, so only the words kept
    become tuples.  Else lists of at most _BATCH_ROWS word tuples of
    ``iter_codewords`` are ranked by ``rank_distances``, which takes the
    scalar loop too, since a list has fewer words than the code has work.
    """
    fld, n = code.field, code.n
    near = []
    if _batched(code.cardinality * _CODEWORD_WORK, fld.order):
        import numpy as np

        center, counts = np.asarray(r, dtype=np.int64), np.zeros(n + 1, dtype=np.int64)
        for block in code.codeword_blocks():
            ranks = _block_distances(center, block, fld)
            near += map(tuple, block[ranks <= tau].tolist())
            counts += np.bincount(ranks, minlength=n + 1)
        return near, counts.tolist()
    counts = [0] * (n + 1)
    codewords = code.iter_codewords()
    while words := list(itertools.islice(codewords, _BATCH_ROWS)):
        for word, dist in zip(words, rank_distances(r, words, fld)):
            counts[dist] += 1
            if dist <= tau:
                near.append(word)
    return near, counts


def list_codewords(code: GabidulinCode, r: Sequence[int], tau: int) -> ListResult:
    """All codewords within rank distance tau of r, in message-index order."""
    r = _read_received(code, r)
    tau = _read_tau(tau, code.n)
    near, counts = _ranked(code, r, tau)
    return ListResult(r, tau, tuple(near), tuple(counts[: tau + 1]))


def distance_counts(code: GabidulinCode, r: Sequence[int]) -> list[int]:
    """counts[t] = number of codewords at rank distance t from r, t = 0..n."""
    r = _read_received(code, r)
    return _ranked(code, r, -1)[1]  # the ball of radius -1 is empty: no word becomes a tuple


@dataclass(frozen=True)
class MaxListResult:
    ell: int
    word: tuple[int, ...]
    scanned: int
    exhaustive: bool


def _count_ball(r: tuple[int, ...], words, fld: Field, tau: int) -> int:
    """|{w in words : rank(r - w) <= tau}|; at q = 2 each rank stops once it exceeds tau."""
    q, m, sub = fld.q, fld.m, fld.sub
    return sum(_column_rank(tuple(map(sub, r, cw)), q, m, tau) <= tau for cw in words)


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

    The key of a coset is the big-endian index (``unpack_word``) of its one
    word that is zero on the first k positions, the reduction of any of its
    words modulo the generator rows; for an MRD code that word is also the
    lexicographically smallest of the coset.  The key is F_{q^m}-linear, so
    key(e) is the sum over j of e_j key(u_j) (``GabidulinCode._unit_keys``),
    and key(x e) = x key(e): coset counts are constant on orbits.  Rank-t
    errors are e_j = sum_i A_ij b_i over the full-rank t x n matrices A and a
    basis b_1..b_t of their column space U; multiplying by x maps U to xU and
    keeps A.  The A are the matrices of rank t in ``matfq._space_ranks``,
    which ranks all q^{tn} of them from shared column prefixes.  So only one
    U per orbit of Gr(m, t) under F_{q^m}^* is keyed (``_singer_orbits``),
    read from one table per coordinate j by ``matfq._table_sums``, and each
    error adds its orbit size at its normalized key (``_key_normalizer``).

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
    # key(x u_j) = x key(u_j), packed big-endian as unpack_word reads it
    unit_keys = code._unit_keys
    normalize = _key_normalizer(fld, n - k)
    acc = np.zeros(bins, dtype=np.int64)
    acc[0] = 1
    for t in range(1, tau + 1):
        # every full-rank t x n matrix A over F_q, one per row: entry j is
        # column j of A, the integer whose base-q digit i is A_ij
        full = _space_ranks(q, t, n) == t
        # filled in place: a list of blocks and their concatenation would hold every row twice
        cols = np.empty((np.count_nonzero(full), n), dtype=np.min_scalar_type(q**t - 1))
        end = 0
        for lo in range(0, len(full), _CHUNK):
            block = _digits(lo + np.flatnonzero(full[lo : lo + _CHUNK]), q**t, n)
            cols[end : end + len(block)] = block
            end += len(block)
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
    code: GabidulinCode,
    tau: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    trials: int | None = None,
    guard: int | None = None,
) -> MaxListResult:
    """max over received words r of |{c in code : rank(r - c) <= tau}|.

    mode "exhaustive" returns the exact maximum with the lexicographically
    smallest argmax: the fullest coset of the rank ball (see
    ``_coset_histogram``), refused when counting it takes more than
    ``guard`` (default EXHAUSTIVE_GUARD) steps.  mode "random" draws
    ``trials`` big-endian word indices from ``random.Random(seed)``, counts
    the codewords around each word and returns the largest count, with the
    smallest index drawn that reaches it: a lower estimate, refused when
    trials times codewords exceed ``guard``.  ``scanned`` is the number of
    received words the maximum covers.
    """
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    guard = EXHAUSTIVE_GUARD if guard is None else guard
    _check_code(code)
    tau = _read_tau(tau, code.n)
    fld, n = code.field, code.n
    if mode == "exhaustive":
        acc = _coset_histogram(code, tau, guard)
        # coset 0 against the fullest orbit; the first argmax is the smallest key
        ell, key = int(acc[0]), 0
        if len(acc) > 1:
            best = 1 + int(acc[1:].argmax())
            if acc[best] // (fld.order - 1) > ell:
                ell, key = int(acc[best]) // (fld.order - 1), best
        return MaxListResult(ell, unpack_word(key, fld.order, n), fld.order**n, True)
    size = _enumerable_size(code)
    if trials is None or trials < 1:
        raise ValueError("random mode requires trials >= 1")
    if trials * size > guard:
        raise ValueError(f"scan of {trials} words against {size} codewords exceeds exhaustive guard {guard}")
    words, total = list(code.iter_codewords()), fld.order**n
    rng = random.Random(seed)
    best_count, best_index = -1, -1
    for _ in range(trials):
        index = rng.randrange(total)
        count = _count_ball(unpack_word(index, fld.order, n), words, fld, tau)
        if count > best_count or (count == best_count and index < best_index):
            best_count, best_index = count, index
    return MaxListResult(best_count, unpack_word(best_index, fld.order, n), trials, False)


def ball_volume_bruteforce(m: int, n: int, q: int, tau: int) -> int:
    """Count the m x n matrices over F_q of rank at most tau.

    With enough of them for ``matfq._batched`` every matrix is ranked at
    once by ``matfq._space_ranks``; else they come one ``itertools.product``
    tuple of column values at a time, ranked by ``matfq._column_rank``.
    The arguments follow the integer rule of ``ff.json_int``.
    """
    m, n, q, tau = (json_int(v, name) for v, name in ((m, "m"), (n, "n"), (q, "q"), (tau, "tau")))
    total = q ** (m * n)
    if total > BRUTEFORCE_GUARD:
        raise ValueError(f"matrix space {total} exceeds guard {BRUTEFORCE_GUARD}")
    if m < 0 or n < 0:
        raise ValueError(f"need m >= 0 and n >= 0, got m={m}, n={n}")
    if not 0 <= tau <= min(m, n):
        raise ValueError(f"need 0 <= tau <= min(m, n), got tau={tau}")
    if _batched(total, q**m):
        import numpy as np

        return int(np.count_nonzero(_space_ranks(q, m, n) <= tau))
    return sum(_column_rank(w, q, m, tau) <= tau for w in itertools.product(range(q**m), repeat=n))
