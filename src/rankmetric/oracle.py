"""Ground-truth brute force: exact decoding lists and exhaustive maxima.

The received-word space F_{q^m}^n is indexed big-endian (the first
coordinate is the most significant base-q^m digit), so ascending index order
is lexicographic order on word tuples.  All scans are deterministic,
including under ``jobs > 1``: the word space is split into contiguous index
blocks and the reduction keeps the maximum count with the smallest argmax
index.

For q = 2 the packed index of a difference of two words is the XOR of their
packed indices, which enables a precomputed rank-ball lookup table; the
generic path performs exact eliminations per pair.  Both paths return
identical values.  Every rank here is computed by ``matfq._column_rank``.
"""

from __future__ import annotations

import itertools
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .codes import ENUMERATION_GUARD, ConstantRankCode, GabidulinCode
from .ff import Field, make_field
from .matfq import _column_rank, rank_of_vector

EXHAUSTIVE_GUARD = 1 << 28
BRUTEFORCE_GUARD = 1 << 24
_TABLE_LIMIT = 1 << 20


def pack_word(vec: Sequence[int], order: int) -> int:
    v = 0
    for x in vec:
        v = v * order + x
    return v


def unpack_word(index: int, order: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(index % order)
        index //= order
    return tuple(reversed(out))


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
    """rank(diff) <= tau, with early exit once tau is exceeded."""
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


def list_codewords(code, r: Sequence[int], tau: int, field: Field | None = None) -> ListResult:
    """All codewords within rank distance tau of r, in enumeration order."""
    fld = code_field(code, field)
    size = code_size(code)
    if size > ENUMERATION_GUARD:
        raise ValueError(f"code too large to enumerate ({size} > {ENUMERATION_GUARD})")
    r = tuple(int(x) for x in r)
    n = _code_length(code)
    if n is not None and len(r) != n:
        raise ValueError(f"received word has length {len(r)}, the code has length {n}")
    _check_tau(tau, n)
    members = []
    distances = []
    counts = [0] * (tau + 1)
    for cw in iter_codewords(code):
        diff = tuple(fld.sub(x, y) for x, y in zip(r, cw))
        dist = rank_of_vector(diff, fld)
        if dist <= tau:
            members.append(cw)
            distances.append(dist)
            counts[dist] += 1
    return ListResult(fld, r, tau, tuple(members), tuple(distances), tuple(counts))


@dataclass(frozen=True)
class MaxListResult:
    ell: int
    word: tuple[int, ...]
    scanned: int
    exhaustive: bool


def _gf2_ball_table(m: int, n: int, tau: int) -> bytes:
    """flags[v] = 1 iff the packed length-n word v has rank <= tau (q = 2)."""
    words = itertools.product(range(1 << m), repeat=n)  # ascending pack_word order
    return bytes(_column_rank(w, 2, m, tau) <= tau for w in words)


def _gf2_block_scan(flags: bytes, packed_words: Sequence[int], start: int, stop: int) -> tuple[int, int]:
    """(best_count, smallest argmax index) over word indices [start, stop)."""
    import numpy as np

    flags_np = np.frombuffer(flags, dtype=np.uint8)
    cw = np.asarray(packed_words, dtype=np.int64)
    chunk = max(1, min(1 << 15, (1 << 22) // max(1, len(packed_words))))
    best_count, best_index = -1, -1
    for a in range(start, stop, chunk):
        b = min(stop, a + chunk)
        idx = np.arange(a, b, dtype=np.int64)
        counts = flags_np[np.bitwise_xor(idx[:, None], cw[None, :])].sum(axis=1)
        pos = int(counts.argmax())
        c = int(counts[pos])
        if c > best_count:
            best_count, best_index = c, a + pos
    return best_count, best_index


def _gf2_block_worker(args) -> tuple[int, int]:
    return _gf2_block_scan(*args)


def _generic_block_scan(
    q: int, m: int, modulus: tuple[int, ...], words: Sequence[tuple[int, ...]],
    n: int, tau: int, start: int, stop: int,
) -> tuple[int, int]:
    fld = make_field(q, m, modulus)
    best_count, best_index = -1, -1
    for index in range(start, stop):
        count = _count_ball(unpack_word(index, fld.order, n), words, fld, tau)
        if count > best_count:
            best_count, best_index = count, index
    return best_count, best_index


def _generic_block_worker(args) -> tuple[int, int]:
    return _generic_block_scan(*args)


def _reduce_blocks(results: Iterable[tuple[int, int]]) -> tuple[int, int]:
    best_count, best_index = -1, -1
    for count, index in results:
        if count > best_count or (count == best_count and index < best_index):
            best_count, best_index = count, index
    return best_count, best_index


def _count_ball(r: tuple[int, ...], words, fld: Field, tau: int) -> int:
    count = 0
    for cw in words:
        diff = tuple(fld.sub(x, y) for x, y in zip(r, cw))
        if rank_leq(diff, fld, tau):
            count += 1
    return count


def max_list_size(
    code,
    tau: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    trials: int | None = None,
    jobs: int = 1,
    field: Field | None = None,
    guard: int | None = None,
) -> MaxListResult:
    """max over received words r of |{c in code : rank(r - c) <= tau}|.

    mode "exhaustive" scans the full word space (guarded at 2^28 words,
    overridable via ``guard``) and returns the exact maximum with the
    lexicographically smallest argmax; mode "random" samples ``trials``
    words seeded by ``seed`` and returns a lower estimate.  ``jobs``
    (capped at the CPU count) parallelizes the exhaustive scan over
    contiguous index blocks with a deterministic reduction.
    """
    exhaustive_guard = EXHAUSTIVE_GUARD if guard is None else guard
    fld = code_field(code, field)
    if code_size(code) > ENUMERATION_GUARD:
        raise ValueError("code too large to enumerate")
    _check_tau(tau, _code_length(code))
    words = list(iter_codewords(code))
    n = len(words[0]) if words else 0
    total = fld.order**n
    if mode == "random":
        if trials is None or trials < 1:
            raise ValueError("random mode requires trials >= 1")
        rng = random.Random(seed)
        best_count, best_index = -1, -1
        for _ in range(trials):
            index = rng.randrange(total)
            r = unpack_word(index, fld.order, n)
            count = _count_ball(r, words, fld, tau)
            if count > best_count or (count == best_count and index < best_index):
                best_count, best_index = count, index
        return MaxListResult(best_count, unpack_word(best_index, fld.order, n), trials, False)
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    if total > exhaustive_guard:
        raise ValueError(f"word space {total} exceeds exhaustive guard {exhaustive_guard}")
    jobs = max(1, min(jobs, os.cpu_count() or 1))
    blocks = _split_range(total, jobs * 4 if jobs > 1 else 1)
    if fld.q == 2 and total <= _TABLE_LIMIT:
        flags = _gf2_ball_table(fld.m, n, tau)
        packed = [pack_word(w, fld.order) for w in words]
        tasks = [(flags, packed, a, b) for a, b in blocks]
        if jobs == 1:
            results = [_gf2_block_worker(t) for t in tasks]
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_gf2_block_worker, tasks))
    else:
        word_tuples = [tuple(w) for w in words]
        tasks = [
            (fld.q, fld.m, fld.modulus, word_tuples, n, tau, a, b) for a, b in blocks
        ]
        if jobs == 1:
            results = [_generic_block_worker(t) for t in tasks]
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_generic_block_worker, tasks))
    best_count, best_index = _reduce_blocks(results)
    return MaxListResult(best_count, unpack_word(best_index, fld.order, n), total, True)


def _split_range(total: int, parts: int) -> list[tuple[int, int]]:
    parts = min(parts, total) or 1
    step, rem = divmod(total, parts)
    blocks = []
    a = 0
    for i in range(parts):
        b = a + step + (1 if i < rem else 0)
        blocks.append((a, b))
        a = b
    return blocks


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
        pairwise = [
            rank_of_vector(tuple(fld.sub(a, b) for a, b in zip(u, v)), fld)
            for i, u in enumerate(translated)
            for v in translated[i + 1 :]
        ]
        min_dist = min(pairwise) if pairwise else 0
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
    F_{q^m} in ascending pack_word order, shifted by the center; the count
    is center-independent.
    """
    total = q ** (m * n)
    if total > BRUTEFORCE_GUARD:
        raise ValueError(f"matrix space {total} exceeds guard {BRUTEFORCE_GUARD}")
    if not 0 <= tau <= min(m, n):
        raise ValueError(f"need 0 <= tau <= min(m, n), got tau={tau}")
    order = q**m
    columns = [range(order)] * n
    if center is not None:
        center = [int(c) for c in center]
        if len(center) != n:
            raise ValueError(f"center has length {len(center)}, need n={n}")
        if any(not 0 <= c < order for c in center):
            raise ValueError(f"center entries must lie in 0..{order - 1}")
        fld = make_field(q, m)
        columns = [[fld.sub(a, c) for a in range(order)] for c in center]
    return sum(_column_rank(w, q, m, tau) <= tau for w in itertools.product(*columns))
