"""Exact arithmetic for small finite fields F_q and their extensions F_{q^m}.

Elements of F_{q^m} are represented as integers in ``range(q**m)`` whose
base-q digits are the coordinates in the polynomial basis 1, x, ..., x^{m-1}
of the defining modulus (digit i = coefficient of x^i).  The base field F_q
(q in 2, 3, 4, 5, 7, 8, 9) uses the same convention over F_p: for q = p^e
with e > 1 its add/mul tables and modulus are those of ``make_field(p, e)``,
so F_4, F_8 and F_9 are built by the one construction of F_{p^e}.

Moduli are monic irreducible polynomials given as coefficient lists
low-degree-first, e.g. x^4 + x + 1 <-> [1, 1, 0, 0, 1].  When no modulus is
supplied, the lexicographically smallest monic irreducible of the right
degree is chosen (coefficient lists compared elementwise by their integer
encoding), so every run of the library sees the same field.  For reference,
the defaults include:

    q=2: m=2: x^2+x+1  m=3: x^3+x+1    m=4: x^4+x+1  m=5: x^5+x^2+1
         m=6: x^6+x+1  m=8: x^8+x^4+x^3+x+1
    q=3: m=2: x^2+1    m=3: x^3+2x+1   m=4: x^4+x+2
    q=4: m=2: x^2+x+a  (a = the generator of F_4, encoded 2)

Multiplication uses log/antilog tables when q^m <= 2^16 and falls back to
coefficient-vector arithmetic otherwise.  Fields are immutable after
construction and all operations are pure.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, Sequence

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)

_LOG_TABLE_LIMIT = 1 << 16


# q -> (p, e) with q = p^e, for q in SUPPORTED_Q
_PRIME_POWER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


class BaseField:
    """F_q for q <= 9, fully tabulated.

    Elements are integers 0..q-1; for q = p^e they are the elements of
    ``make_field(p, e)``, base-p digit vectors over its default modulus.
    Besides the add/mul/neg/inv tables there is one row-operation table,
    ``_axpy[c][x][y] = x - c y``, which every F_q elimination and matrix
    sum or product reads.
    """

    def __init__(self, q: int):
        if q not in SUPPORTED_Q:
            raise ValueError(f"unsupported base field size q={q}; supported: {SUPPORTED_Q}")
        p, e = _PRIME_POWER[q]
        self.q = q
        self.p = p
        self.e = e
        if e == 1:
            self.modulus: tuple[int, ...] = (0, 1)
            add = [[(a + b) % p for b in range(p)] for a in range(p)]
            mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            ext = make_field(p, e)
            self.modulus = ext.modulus
            add = [[ext.add(a, b) for b in range(q)] for a in range(q)]
            mul = [[ext.mul(a, b) for b in range(q)] for a in range(q)]
        self._add = tuple(tuple(r) for r in add)
        self._mul = tuple(tuple(r) for r in mul)
        self._neg = tuple(next(b for b in range(q) if self._add[a][b] == 0) for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            inv[a] = next(b for b in range(1, q) if self._mul[a][b] == 1)
        self._inv = tuple(inv)
        self._axpy = tuple(
            tuple(tuple(self._add[x][self._neg[cy]] for cy in self._mul[c]) for x in range(q)) for c in range(q)
        )

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._inv[a]

    def scale_row(self, c: int, xs: Sequence[int]) -> tuple[int, ...]:
        """(c x for x in xs)."""
        table = self._mul[c]
        return tuple([table[x] for x in xs])

    def axpy_row(self, c: int, xs: Sequence[int], ys: Sequence[int]) -> tuple[int, ...]:
        """(x - c y for x, y in zip(xs, ys)), one ``_axpy`` lookup per entry."""
        table = self._axpy[c]
        return tuple([table[x][y] for x, y in zip(xs, ys)])

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:
        return f"BaseField(q={self.q})"


@lru_cache(maxsize=None)
def base_field(q: int) -> BaseField:
    return BaseField(q)


def _digits(v: int, base: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(v % base)
        v //= base
    return out


def _undigits(digits: Iterable[int], base: int) -> int:
    v = 0
    for d in reversed(list(digits)):
        v = v * base + d
    return v


def json_int(value, name: str) -> int:
    """The one rule for integers read from JSON: ``operator.index`` with booleans refused."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def json_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def json_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def json_key(doc, key: str, name: str, read=None):
    """``doc[key]``, passed through ``read(value, name)`` when given; a missing
    key, or a ``doc`` that is not a JSON object, raises ValueError naming ``name``."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{name} is missing")
    return doc[key] if read is None else read(doc[key], name)


# --- polynomial helpers over a BaseField (coefficient lists, low-degree-first) ---


def _ptrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(F: BaseField, f: Sequence[int], g: Sequence[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
    return _ptrim(out)


def _pmod(F: BaseField, f: Sequence[int], g: Sequence[int]) -> list[int]:
    f = _ptrim(list(f))
    g = _ptrim(list(g))
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = F.inv(g[-1])
    while len(f) >= len(g):
        c = F.mul(f[-1], lead_inv)
        shift = len(f) - len(g)
        for i, b in enumerate(g):
            f[shift + i] = F.sub(f[shift + i], F.mul(c, b))
        _ptrim(f)
    return f


def _pgcd(F: BaseField, f: Sequence[int], g: Sequence[int]) -> list[int]:
    a, b = _ptrim(list(f)), _ptrim(list(g))
    while b:
        a, b = b, _pmod(F, a, b)
    return a


def _ppow_mod(F: BaseField, f: Sequence[int], exp: int, mod: Sequence[int]) -> list[int]:
    result = [1]
    base = _pmod(F, f, mod)
    while exp:
        if exp & 1:
            result = _pmod(F, _pmul(F, result, base), mod)
        base = _pmod(F, _pmul(F, base, base), mod)
        exp >>= 1
    return result


def is_irreducible(coeffs: Sequence[int], q: int) -> bool:
    """Irreducibility of a monic polynomial over F_q.

    Uses the standard test gcd(x^{q^i} - x, f) = 1 for i <= deg/2.
    """
    F = base_field(q)
    f = _ptrim(list(coeffs))
    if len(f) < 2:
        return False
    m = len(f) - 1
    if m == 1:
        return True
    h = [0, 1]
    for _ in range(m // 2):
        h = _ppow_mod(F, h, q, f)
        diff = list(h) + [0] * (2 - len(h))
        diff[1] = F.sub(diff[1], 1)
        if len(_pgcd(F, diff, f)) > 1:
            return False
    return True


def default_modulus(q: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over F_q."""
    if m == 1:
        return (0, 1)
    for enc in range(q**m):
        coeffs = _digits(enc, q, m) + [1]
        if coeffs[0] != 0 and is_irreducible(coeffs, q):
            return tuple(coeffs)
    raise AssertionError(f"no irreducible polynomial of degree {m} over F_{q}")


class Field:
    """Arithmetic context for F_{q^m}; build via :func:`make_field`."""

    def __init__(self, q: int, m: int, modulus: Sequence[int] | None = None):
        if q not in SUPPORTED_Q:
            raise ValueError(f"unsupported base field size q={q}; supported: {SUPPORTED_Q}")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        self.base = base_field(q)
        self.q = q
        self.m = m
        self.char = self.base.p
        self.order = q**m
        if modulus is None:
            self.modulus = default_modulus(q, m)
        else:
            mod = [int(c) for c in modulus]
            if len(mod) != m + 1 or mod[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {m} (got {mod})")
            if any(not 0 <= c < q for c in mod):
                raise ValueError("modulus coefficients must be F_q elements")
            if not is_irreducible(mod, q):
                raise ValueError(f"modulus {mod} is reducible over F_{q}")
            self.modulus = tuple(mod)
        self._char2 = self.char == 2
        # set here, not on first use, so every Field keeps one attribute layout
        self._primitive: int | None = None
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if self.order <= _LOG_TABLE_LIMIT:
            self._build_tables()

    # -- representation --------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coordinate vector of a in the basis 1, x, ..., x^{m-1}."""
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element of a field of order {self.order}")
        return tuple(_digits(a, self.q, self.m))

    def from_coeffs(self, coords: Sequence[int]) -> int:
        coords = list(coords)
        if len(coords) > self.m:
            raise ValueError(f"coordinate vector longer than extension degree {self.m}")
        if any(not 0 <= c < self.q for c in coords):
            raise ValueError("coordinates must be F_q elements")
        return _undigits(coords + [0] * (self.m - len(coords)), self.q)

    def word_to_jsonable(self, word: Iterable[int]) -> list[list[int]]:
        """The JSON form of a word over F_{q^m}: one list of m coordinates per element."""
        return [list(self.coeffs(x)) for x in word]

    def word_from_jsonable(self, data, name: str) -> tuple[int, ...]:
        """The word of ``word_to_jsonable``: a list of lists of exactly m
        integer coordinates in 0..q-1; anything else raises ValueError naming ``name``."""
        shape = f"{name} must be a list of lists of integer coordinates"
        if not isinstance(data, list) or not all(isinstance(coords, list) for coords in data):
            raise ValueError(f"{shape}, got {data!r}")
        for i, coords in enumerate(data):
            if len(coords) != self.m:
                raise ValueError(f"{name} entry {i} has {len(coords)} coordinates, need m={self.m}")
            if not all(0 <= json_int(c, f"{shape}; a coordinate of entry {i}") < self.q for c in coords):
                raise ValueError(f"{name} entry {i} has a coordinate outside 0..{self.q - 1}: {coords}")
        return tuple(_undigits(map(operator.index, coords), self.q) for coords in data)

    def basis_element(self, i: int) -> int:
        """The element x^i for 0 <= i < m."""
        if not 0 <= i < self.m:
            raise ValueError(f"basis index {i} out of range for m={self.m}")
        return self.q**i

    def polynomial_basis(self, n: int | None = None) -> tuple[int, ...]:
        n = self.m if n is None else n
        if n > self.m:
            raise ValueError(f"requested {n} basis elements from a degree-{self.m} extension")
        return tuple(self.q**i for i in range(n))

    def elements(self) -> range:
        return range(self.order)

    # -- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._char2:
            return a ^ b
        F, q = self.base, self.q
        out, mult = 0, 1
        while a or b:
            out += F.add(a % q, b % q) * mult
            a //= q
            b //= q
            mult *= q
        return out

    def neg(self, a: int) -> int:
        if self._char2:
            return a
        F, q = self.base, self.q
        out, mult = 0, 1
        while a:
            out += F.neg(a % q) * mult
            a //= q
            mult *= q
        return out

    def sub(self, a: int, b: int) -> int:
        if self._char2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._mul_poly(a, b)

    def _mul_poly(self, a: int, b: int) -> int:
        F, q, m = self.base, self.q, self.m
        da, db = _digits(a, q, m), _digits(b, q, m)
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    if y:
                        conv[i + j] = F.add(conv[i + j], F.mul(x, y))
        for i in range(2 * m - 2, m - 1, -1):
            c = conv[i]
            if c:
                conv[i] = 0
                for j in range(m):
                    mj = self.modulus[j]
                    if mj:
                        conv[i - m + j] = F.sub(conv[i - m + j], F.mul(c, mj))
        return _undigits(conv[:m], q)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self._exp is not None:
            return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def scale_row(self, c: int, xs: Sequence[int]) -> list[int]:
        """[c x for x in xs], the row operation ``BaseField.scale_row`` tabulates."""
        return [self.mul(c, x) for x in xs]

    def axpy_row(self, c: int, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        """[x - c y for x, y in zip(xs, ys)], the row operation ``BaseField.axpy_row`` tabulates."""
        return [self.sub(x, self.mul(c, y)) for x, y in zip(xs, ys)]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a: int, i: int = 1) -> int:
        """a^{q^i}; i is reduced mod m since x^{q^m} = x on F_{q^m}."""
        i %= self.m
        if i == 0 or a == 0 or a == 1:
            return a
        return self.pow(a, self.q**i)

    @property
    def primitive(self) -> int:
        """The smallest generator of the multiplicative group F_{q^m}^*, the
        base of the log tables (1 in F_2); found on first use."""
        if self._primitive is None:
            n1 = self.order - 1
            primes = _prime_factors(n1)
            self._primitive = next(
                g for g in range(1, self.order) if all(self.pow(g, n1 // p) != 1 for p in primes)
            )
        return self._primitive

    def _build_tables(self) -> None:
        n1, g = self.order - 1, self.primitive
        exp = [1] * n1
        for i in range(1, n1):
            exp[i] = self._mul_poly(exp[i - 1], g)
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = exp, log

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and (self.q, self.m, self.modulus) == (other.q, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.q, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"Field(q={self.q}, m={self.m}, modulus={list(self.modulus)})"


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _cached_field(q: int, m: int, modulus: tuple[int, ...] | None) -> Field:
    return Field(q, m, modulus)


def make_field(q: int, m: int, modulus: Sequence[int] | None = None) -> Field:
    """Construct (or fetch a cached copy of) F_{q^m}.

    ``modulus`` is a monic irreducible of degree m over F_q as a
    low-degree-first coefficient list; when omitted the built-in default
    (lexicographically smallest irreducible) is used.
    """
    key = tuple(int(c) for c in modulus) if modulus is not None else None
    return _cached_field(q, m, key)


def expand_to_matrix(vec: Sequence[int], field: Field):
    """m x n matrix over F_q whose column j holds the coordinates of vec[j].

    The map is F_q-linear and injective; rank of the result is the rank
    of the vector.
    """
    from .matfq import MatrixFq

    cols = [field.coeffs(v) for v in vec]
    rows = tuple(tuple(col[i] for col in cols) for i in range(field.m))
    return MatrixFq(field.q, rows, ncols=len(cols))


def vector_from_matrix(mat, field: Field) -> tuple[int, ...]:
    """Inverse of :func:`expand_to_matrix`: columns back to field elements."""
    if mat.nrows != field.m or mat.q != field.q:
        raise ValueError("matrix shape does not match the field")
    return tuple(
        field.from_coeffs([mat.rows[i][j] for i in range(field.m)]) for j in range(mat.ncols)
    )
