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
fullest coset of the rank ball of radius tau, counted by ``_coset_counts``
without enumerating received words, codewords or errors: by the MacWilliams
transform of the bilinear forms scheme, every coset count follows from one
F_q-rank per point of PG(n - k - 1, q^m) and one point-hyperplane incidence
sum (``_hyperplane_sums``), a Walsh-Hadamard transform at characteristic 2
and a gather at odd characteristic.  Neither depends on tau.  Only
``sampled_max_list_size`` scans words, one drawn word at a time, always in
numpy on the codeword blocks of the decoding lists, so ``oracle max`` loads
numpy in both modes.

Decoding lists, distance counts and ``ball_volume_bruteforce`` run in numpy
once ``matfq._batched`` finds enough work.  Decoding lists, distance
counts and random mode take Gabidulin codewords as blocks from
``GabidulinCode.codeword_blocks`` (outer sums of ``matfq._row_tables``),
ranked by ``matfq._block_distances``, the numpy block of
``matfq.rank_distances``; in ``_scan_blocks`` a mask keeps the words of a
list and ``np.bincount`` counts the distances, so a block costs a fixed
number of numpy calls and only listed words become tuples.  Every numpy
rank, here and in the rank pass of ``_coset_counts``, goes through
``matfq._column_ranks``: while the word space has q^{mn} <= 2^16 matrices,
one gather from the cached rank table of the whole space
(``matfq._rank_table``), else an XOR basis of one unsigned vector per column at q = 2 and pivot counts of
``matfq._rrefs`` at q > 2.  Every numpy sum or difference of words is
``matfq._word_sums``: at odd characteristic one read of a cached Q x Q
table per term while Q^2 <= 2^16, Q = q^m.  Ball counts read the same
rank tables, and ``matfq._space_ranks`` directly for spaces above 2^16
matrices.  Below the numpy floor decoding lists and distance counts build one tuple per codeword
(``GabidulinCode.iter_codewords``, ``matfq._combine``) and ball counts one
per matrix, each ranked by the scalar ``matfq._column_rank`` (an XOR basis
at q = 2, pivot counts of ``matfq._gauss_jordan`` at q > 2).
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import Sequence

from . import ff
from .bounds import rank_krawtchouk
from .codes import GabidulinCode
from .ff import Field, json_int
from .matfq import (
    _CODEWORD_WORK,
    ENUMERATION_GUARD,
    _RANK_TABLE_MAX,
    _batched,
    _block_distances,
    _column_rank,
    _column_ranks,
    _digits,
    _products,
    _rank_table,
    _row_tables,
    _space_ranks,
    _table_sums,
    _word_sums,
    rank_distances,
)

EXHAUSTIVE_GUARD = 1 << 28
_CHUNK = 1 << 16  # points ranked, or entries gathered, per numpy block of ``_coset_counts``


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


def _scan_blocks(r: tuple[int, ...], blocks, fld: Field, tau: int) -> tuple[list, list[int]]:
    """(near, counts) of ``_ranked`` over the int64 codeword ``blocks``:
    each block is ranked by ``matfq._block_distances``, a mask keeps the
    words within tau and ``np.bincount`` counts the ranks, so a block costs
    a fixed number of numpy calls and only the words kept become tuples."""
    import numpy as np

    center, counts, near = np.asarray(r, dtype=np.int64), np.zeros(len(r) + 1, dtype=np.int64), []
    for block in blocks:
        ranks = _block_distances(center, block, fld)
        near += map(tuple, block[ranks <= tau].tolist())
        counts += np.bincount(ranks, minlength=len(r) + 1)
    return near, counts.tolist()


def _ranked(code: GabidulinCode, r: tuple[int, ...], tau: int) -> tuple[list, list[int]]:
    """(near, counts) around r: the codewords within rank distance tau of r,
    as int tuples in message-index order, and counts[t], the number of
    codewords at rank distance t from r for t = 0..n.

    With enough work for ``matfq._batched`` the blocks of ``codeword_blocks``
    go through ``_scan_blocks``: not through ``rank_distances``, which
    decides its path again and would send a small block of numpy integers to
    the scalar loop.  Else the word tuples of ``iter_codewords`` are ranked
    by one ``rank_distances`` call, which takes the scalar loop too, since
    the code has fewer words than work.
    """
    fld = code.field
    if _batched(code.cardinality * _CODEWORD_WORK, fld.order):
        return _scan_blocks(r, code.codeword_blocks(), fld, tau)
    words = list(code.iter_codewords())
    dists = rank_distances(r, words, fld)
    return [word for word, dist in zip(words, dists) if dist <= tau], [dists.count(t) for t in range(code.n + 1)]


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


def _points(order: int, r: int):
    """The points of PG(r - 1, Q), Q = ``order``, one vector per F_Q^* line,
    as rows in chart order: row i Q + x is (x, z') for row i = z' of the
    chart of PG(r - 2, Q), and the last row is e_1 = (1, 0, ..., 0)."""
    import numpy as np

    if r == 0:
        return np.zeros((0, 0), dtype=np.min_scalar_type(order - 1))
    lower = _points(order, r - 1)
    first = np.tile(np.arange(order, dtype=lower.dtype), len(lower))[:, None]
    return np.vstack([np.hstack([first, np.repeat(lower, order, axis=0)]), np.eye(1, r, dtype=lower.dtype)])


def _walsh(values):
    """Walsh-Hadamard transform along the last axis (a power of 2) in place:
    entry u becomes the sum over w of values[w] (-1)^{popcount(u & w)}."""
    size, half = values.shape[-1], 1
    while half < size:
        pairs = values.reshape(*values.shape[:-1], -1, 2, half)
        low, high = pairs[..., 0, :], pairs[..., 1, :]
        diff = low - high
        low += high
        high[...] = diff
        half *= 2
    return values


@functools.lru_cache(maxsize=64)
def _trace_masks(fld: Field):
    """A read-only array, per field of order Q = 2^b: bit k of masks[x] is
    Tr(x 2^k), Tr the absolute trace to F_2 (``matfq._trace`` is the trace to
    F_q), so Tr(x y) is the parity of masks[x] & y."""
    import numpy as np

    b = fld.order.bit_length() - 1
    ones = sum(functools.reduce(operator.xor, (fld.pow(1 << k, 1 << i) for i in range(b))) << k for k in range(b))
    parity, bits = np.zeros(1, dtype=np.int64), np.arange(b)
    for _ in range(b):
        parity = np.concatenate([parity, parity ^ 1])  # parity[y] = popcount(y) mod 2
    masks = (parity[_products(fld, np.arange(fld.order)[:, None], 1 << bits) & ones] << bits).sum(axis=1)
    masks.flags.writeable = False
    return masks


def _walsh_sums(fld: Field, table, lower):
    """Q H(1, a) for every a in F_Q^w ascending, at p = 2: H(1, a) sums
    table[z', <a, z'>] over the rows z' of ``lower``, a chart of PG(w - 1, Q).
    With chi(u) = (-1)^{Tr u}, Q H(1, a) = sum over b, z' of ghat_z'(b)
    chi(<a, b z'>), ghat_z' the Walsh transform of table[z'] read at the
    masks of b (``_trace_masks``), and b z' meets each nonzero w once: so a
    Walsh transform of G[b z'] = ghat_z'(b), G[0] = the table's sum.
    """
    import numpy as np

    order, width = fld.order, lower.shape[1]
    masks, spectra = _trace_masks(fld), _walsh(table.copy())
    sums = np.empty(order**width, dtype=table.dtype)
    sums[0] = spectra[:, 0].sum()
    scaled = sum(_products(fld, lower[:, i, None], np.arange(1, order)) * order ** (width - 1 - i) for i in range(width))
    sums[scaled] = spectra[:, masks[1:]]
    at = masks
    for _ in range(width - 1):
        at = (at[:, None] * order + masks).reshape(-1)
    return _walsh(sums)[at]


def _gather_sums(fld: Field, table, lower):
    """Q H(1, a) for every a in F_Q^w ascending, at odd p: the sum of
    table[z', -<a, z'>] over the rows z' of ``lower``, _CHUNK reads at a
    time, from a Q x (rows) product table per coordinate, the first negated,
    subtracted by ``matfq._word_sums`` (a table read for w > 1, where the
    coset guard keeps Q^3 <= 2^24)."""
    import numpy as np

    order, (count, width) = fld.order, lower.shape
    values = np.arange(order)
    products = [_products(fld, values[:, None], lower[:, i]) for i in range(width)]
    products[0] = _word_sums(fld, (0, products[0]), -1)
    flat, offsets = table.reshape(-1), np.arange(count) * order
    sums = np.empty(order**width, dtype=table.dtype)
    step = max(1, _CHUNK // count)
    for lo in range(0, order**width, step):
        a = _digits(np.arange(lo, min(lo + step, order**width)), order, width)  # a_1 is the last digit
        neg = _word_sums(fld, (products[i][a[:, -1 - i]] for i in range(width)), -1)  # -<a, z'>
        sums[lo : lo + step] = flat[offsets + neg].sum(axis=1)
    return order * sums


def _hyperplane_sums(fld: Field, f, points):
    """Q H(s) for the s != 0 of F_Q^r with first nonzero coordinate 1, in
    ascending key order, H(s) the sum of f over the ``points`` P (chart
    order) with <s, P> = 0.  The hyperplane of (0, s') holds e_1 and every
    (x, z') with z' on the hyperplane of s', so those recurse on the sums of
    table[z', x] = f(x, z') over x; that of (1, a) holds the (-<a, z'>, z')."""
    import numpy as np

    order, r = fld.order, points.shape[1]
    if r <= 1:
        return np.zeros(r, dtype=f.dtype)  # the one point of PG(0, Q) lies on no hyperplane
    table, lower = f[:-1].reshape(-1, order), points[:-1:order, 1:]
    first = _hyperplane_sums(fld, table.sum(axis=1), lower) + order * f[-1:]
    return np.concatenate([first, (_walsh_sums if fld.char == 2 else _gather_sums)(fld, table, lower)])


def _coset_counts(code: GabidulinCode, tau: int):
    """(N(0), N): the number of errors e with rank(e) <= tau in the code, and
    in the coset of key s for each s != 0 with first nonzero coordinate 1,
    ascending (the keys x s, x in F_Q^*, count alike).  The key of a coset is
    the big-endian index (``unpack_word``) of its word that is zero on the
    first k positions, and the key of e is eK, K the n x r matrix of
    ``_unit_keys``, r = n - k, Q = q^m.

    By the MacWilliams transform of the bilinear forms scheme (Delsarte,
    JCTA 1978; Gadouleau and Yan, 2008), with f(z) = Lambda(rank Kz),
    Lambda(x) the sum of the ``rank_krawtchouk`` P_i(x) over i <= tau, V =
    Lambda(0), F the sum of f over PG(r - 1, Q) and H(s) over its points on
    <s, z> = 0: N(0) = (V + (Q - 1) F) / Q^r and N(s) = (V - F + Q H(s)) / Q^r.
    Only sums and integer multiples, so int64 gives each numerator, which
    lies in [0, Q^r V], mod 2^64: exactly while Q^r V < 2^63, else Python
    ints serve.  Every run checks that the counts are nonnegative integers
    adding up to V.  Refuses, before any work, more than ENUMERATION_GUARD
    cosets.
    """
    import numpy as np

    fld = code.field
    q, m, n, order, r = fld.q, fld.m, code.n, fld.order, code.n - code.k
    if (scale := order**r) > ENUMERATION_GUARD:
        raise ValueError(f"{scale} cosets exceed the coset guard {ENUMERATION_GUARD}")
    lam = [sum(column) for column in zip(*rank_krawtchouk(m, n, q)[: tau + 1])]
    points, columns = _points(order, r), list(zip(*code._unit_keys))
    if r == 1:  # Kz is K's one column; the field may have no log tables
        ranks = np.array(rank_distances((0,) * n, columns, fld))
    else:
        tables, ranks = _row_tables(fld, columns), np.empty(len(points), dtype=np.uint8)
        for lo in range(0, len(points), _CHUNK):
            ranks[lo : lo + _CHUNK] = _column_ranks(_table_sums(tables, points[lo : lo + _CHUNK], fld), q, m)
    f = np.array(lam, dtype=np.int64 if scale * lam[0] < 1 << 63 else object)[ranks]
    total = int(f.sum())
    own, rest = divmod(lam[0] + (order - 1) * total, scale)
    sums = _hyperplane_sums(fld, f, points) + (lam[0] - total)
    counts = sums // scale
    if rest or (sums % scale).any() or own < 0 or (counts < 0).any():
        raise AssertionError("the transform gave a coset count that is not a nonnegative integer")
    if (added := own + (order - 1) * int(counts.sum())) != lam[0]:
        raise AssertionError(f"coset counts add up to {added}, not the ball volume {lam[0]}")
    return own, counts


def max_list_size(code: GabidulinCode, tau: int) -> MaxListResult:
    """max over received words r of |{c in code : rank(r - c) <= tau}|,
    exact, with the lexicographically smallest argmax: the fullest coset of
    the rank ball (see ``_coset_counts``), refused for more than
    ENUMERATION_GUARD cosets.  ``scanned`` is the number of received words
    the maximum covers, all of F_{q^m}^n.
    """
    _check_code(code)
    tau = _read_tau(tau, code.n)
    order, n = code.field.order, code.n
    own, counts = _coset_counts(code, tau)
    # the code's own coset against the fullest other one; the first argmax is the smallest key
    ell, key = own, 0
    if len(counts):
        best = int(counts.argmax())
        if counts[best] > own:
            j = 0  # the keys ascend in blocks Q^j + t, t < Q^j, from index (Q^j - 1)/(Q - 1)
            while (order ** (j + 1) - 1) // (order - 1) <= best:
                j += 1
            ell, key = int(counts[best]), order**j + best - (order**j - 1) // (order - 1)
    return MaxListResult(ell, unpack_word(key, order, n), order**n, True)


def sampled_max_list_size(
    code: GabidulinCode, tau: int, trials: int, seed: int | None = None, guard: int | None = None
) -> MaxListResult:
    """A lower estimate of ``max_list_size``: draws ``trials`` big-endian word
    indices from ``random.Random(seed)``, counts the codewords around each
    word and returns the largest count, with the smallest index drawn that
    reaches it.  Refused, before any word is drawn, when trials times
    codewords exceed ``guard`` (default EXHAUSTIVE_GUARD).  The codeword
    blocks are built once and every word is counted on them by
    ``_scan_blocks``, in numpy, as ``_coset_counts`` always runs.
    """
    guard = EXHAUSTIVE_GUARD if guard is None else guard
    _check_code(code)
    tau = _read_tau(tau, code.n)
    fld, n = code.field, code.n
    size = _enumerable_size(code)
    if trials is None or trials < 1:
        raise ValueError("random mode requires trials >= 1")
    if trials * size > guard:
        raise ValueError(f"scan of {trials} words against {size} codewords exceeds exhaustive guard {guard}")
    blocks, total = list(code.codeword_blocks()), fld.order**n
    rng = random.Random(seed)
    best_count, best_index = -1, -1
    for _ in range(trials):
        index = rng.randrange(total)
        # the ball of radius -1 is empty: no word becomes a tuple
        count = sum(_scan_blocks(unpack_word(index, fld.order, n), blocks, fld, -1)[1][: tau + 1])
        if count > best_count or (count == best_count and index < best_index):
            best_count, best_index = count, index
    return MaxListResult(best_count, unpack_word(best_index, fld.order, n), trials, False)


def ball_volume_bruteforce(m: int, n: int, q: int, tau: int) -> int:
    """Count the m x n matrices over F_q of rank at most tau.

    With enough of them for ``matfq._batched`` every matrix is ranked at
    once by ``matfq._space_ranks``, read from the cached ``matfq._rank_table``
    for spaces of at most _RANK_TABLE_MAX matrices; else they come one
    ``itertools.product`` tuple of column values at a time, ranked by
    ``matfq._column_rank``.
    The arguments follow the integer rule of ``ff.json_int``.
    """
    m, n, q, tau = (json_int(v, name) for v, name in ((m, "m"), (n, "n"), (q, "q"), (tau, "tau")))
    total = q ** (m * n)
    if total > ENUMERATION_GUARD:
        raise ValueError(f"matrix space {total} exceeds guard {ENUMERATION_GUARD}")
    if m < 0 or n < 0:
        raise ValueError(f"need m >= 0 and n >= 0, got m={m}, n={n}")
    if not 0 <= tau <= min(m, n):
        raise ValueError(f"need 0 <= tau <= min(m, n), got tau={tau}")
    if _batched(total, q**m):
        import numpy as np

        ranks = _rank_table(q, m, n) if total <= _RANK_TABLE_MAX else _space_ranks(q, m, n)
        return int(np.count_nonzero(ranks <= tau))
    return sum(_column_rank(w, q, m, tau) <= tau for w in itertools.product(range(q**m), repeat=n))
