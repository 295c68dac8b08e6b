"""Field arithmetic: construction, axioms, Frobenius, matrix expansion; the JSON writer."""

import itertools
import json
import random
import sys

import pytest
from hypothesis import given, strategies as st

from rankmetric.ff import (
    _DIGIT_TABLE_MAX,
    SUPPORTED_Q,
    Words,
    base_field,
    default_modulus,
    is_irreducible,
    json_text,
    make_field,
)
from rankmetric.matfq import rank
from reference import expand_to_matrix, vector_from_matrix


def test_prime_field_f2():
    F = make_field(2, 1)
    assert F.order == 2
    assert F.add(1, 1) == 0
    assert F.mul(1, 1) == 1
    assert F.inv(1) == 1


def test_f16_default_modulus_and_generator_order():
    F = make_field(2, 4, modulus=[1, 1, 0, 0, 1])
    assert F.modulus == (1, 1, 0, 0, 1)
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)
    # multiplicative order of x: exhaust its powers
    seen = set()
    cur = 1
    for _ in range(15):
        cur = F.mul(cur, 2)
        seen.add(cur)
    assert cur == 1 and len(seen) == 15


@pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (2, 4), (3, 3), (4, 2), (9, 2), (2, 8)])
def test_primitive_is_the_smallest_generator(q, m):
    F = make_field(q, m)

    def multiplicative_order(x):  # by repeated multiplication, not the log tables
        cur, k = x, 1
        while cur != 1:
            cur, k = F._mul_poly(cur, x), k + 1
        return k

    orders = [multiplicative_order(x) for x in range(1, F.primitive + 1)]
    assert orders[-1] == F.order - 1 and max(orders[:-1], default=0) < F.order - 1
    powers = [1]  # primitive^i by repeated _mul_poly products
    for _ in range(F.order - 2):
        powers.append(F._mul_poly(powers[-1], F.primitive))
    assert F._exp == powers


@pytest.mark.parametrize("q, p, e, modulus", [(4, 2, 2, (1, 1, 1)), (8, 2, 3, (1, 1, 0, 1)), (9, 3, 2, (1, 0, 1))])
def test_base_field_tabulates_the_extension_of_its_prime_field(q, p, e, modulus):
    F, ext = base_field(q), make_field(p, e)
    assert (F.p, F.e) == (p, e) and F.modulus == ext.modulus == modulus
    # of degree 2 or 3, so irreducible iff it has no root in F_p
    assert all(sum(c * x**i for i, c in enumerate(modulus)) % p for x in range(p))
    elems = range(q)
    assert F._add == tuple(tuple(ext.add(a, b) for b in elems) for a in elems)
    assert F._mul == tuple(tuple(ext.mul(a, b) for b in elems) for a in elems)
    digits = lambda a: [a // p**i % p for i in range(e)]  # noqa: E731
    for a, b in itertools.product(elems, repeat=2):
        assert digits(F.add(a, b)) == [(x + y) % p for x, y in zip(digits(a), digits(b))]
        assert F.mul(a, b) == F.mul(b, a) and F.add(a, F.neg(a)) == 0 and F.mul(a, 1) == a
    assert all(F.mul(a, F.inv(a)) == 1 for a in range(1, q))
    for a, b, c in itertools.product(elems, repeat=3):
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_primitive_without_log_tables():
    F = make_field(2, 17)  # 2^17 - 1 is prime: every element but 0 and 1 generates
    assert F._exp is None and F.primitive == 2


def test_reducible_modulus_rejected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 over F_2
    with pytest.raises(ValueError, match="reducible"):
        make_field(2, 4, modulus=[1, 0, 1, 0, 1])


def test_modulus_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="monic of degree"):
        make_field(2, 4, modulus=[1, 1, 1])
    with pytest.raises(ValueError, match="monic of degree"):
        make_field(2, 2, modulus=[1, 1, 0])  # not monic


def test_unsupported_q_rejected():
    for q in (1, 6, 10, 11):
        with pytest.raises(ValueError, match="unsupported"):
            make_field(q, 2)


@given(p=st.sampled_from([2, 3, 5, 7]), m=st.integers(1, 5), data=st.data())
def test_default_modulus_and_irreducibility_agree_with_sympy(p, m, data):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def sympy_irreducible(coeffs):  # sympy lists coefficients high degree first
        return galoistools.gf_irreducible_p([int(c) for c in reversed(coeffs)], p, ZZ)

    modulus = default_modulus(p, m)
    assert modulus[-1] == 1 and sympy_irreducible(modulus)
    if m > 1:  # the smallest: every candidate encoded below it with a nonzero constant is reducible
        for enc in range(sum(c * p**i for i, c in enumerate(modulus[:-1]))):
            lower = [enc // p**i % p for i in range(m)] + [1]
            assert not lower[0] or not sympy_irreducible(lower)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)) + [1]
    assert is_irreducible(coeffs, p) == sympy_irreducible(coeffs)


def test_is_irreducible_known_cases():
    assert is_irreducible([1, 1, 0, 0, 1], 2)  # x^4+x+1
    assert not is_irreducible([1, 0, 1, 0, 1], 2)  # (x^2+x+1)^2
    assert is_irreducible([1, 0, 1], 3)  # x^2+1 over F_3
    assert not is_irreducible([1, 0, 1], 2)  # (x+1)^2


@pytest.mark.parametrize("q,m", [(2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (5, 2), (7, 1), (8, 1), (9, 1)])
def test_field_axioms_exhaustive_triples(q, m):
    F = make_field(q, m)
    if F.order > 32:
        pytest.skip("triples only for small orders")
    elems = list(range(F.order))
    for a, b, c in itertools.product(elems, repeat=3):
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q,m", [(2, 4), (2, 8), (3, 2), (4, 2), (5, 2), (7, 2), (9, 1)])
def test_field_axioms_pairs_and_inverses(q, m):
    F = make_field(q, m)
    elems = list(range(F.order))
    for a, b in itertools.product(elems, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a in elems:
        assert F.add(a, F.neg(a)) == 0
        assert F.sub(a, a) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    rng = random.Random(0)
    for _ in range(2000):
        a, b, c = (rng.randrange(F.order) for _ in range(3))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_zero_inverse_raises():
    F = make_field(2, 4)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("q,m", [(2, 4), (2, 8), (3, 2), (4, 2), (8, 2), (9, 2)])
def test_frobenius_is_a_field_automorphism(q, m):
    F = make_field(q, m)
    for a, b in itertools.product(range(F.order), repeat=2):
        assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
        assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
    for a in range(F.order):
        assert F.frobenius(a, m) == a
        assert F.frobenius(a, 0) == a
        # negative exponents reduce mod m
        assert F.frobenius(a, -1) == F.frobenius(a, m - 1)


def test_frobenius_fixes_zero_and_base_field():
    F = make_field(2, 4)
    for i in range(8):
        assert F.frobenius(0, i) == 0
        assert F.frobenius(1, i) == 1
    F9 = make_field(3, 2)
    # base field elements embed as constants and are fixed by x -> x^q
    for c in range(3):
        assert F9.frobenius(c, 1) == c


def test_frobenius_f4_example():
    F4 = make_field(2, 2)
    alpha = 2  # the residue of x; alpha^2 + alpha + 1 = 0
    assert F4.frobenius(alpha, 1) == F4.mul(alpha, alpha) == 3  # alpha + 1


def test_frobenius_matches_repeated_powering():
    F = make_field(3, 3)
    for a in range(F.order):
        cur = a
        for i in range(1, 4):
            cur = F.pow(cur, 3)
            assert F.frobenius(a, i) == cur


def test_coeffs_roundtrip_and_basis():
    F = make_field(3, 4)
    for a in (0, 1, 5, 26, F.order - 1):
        assert F.from_coeffs(F.coeffs(a)) == a
    assert F.basis_element(0) == 1
    assert F.basis_element(2) == 9
    assert F.polynomial_basis(3) == (1, 3, 9)
    with pytest.raises(ValueError):
        F.basis_element(4)
    with pytest.raises(ValueError):
        F.from_coeffs([3, 0, 0, 0])  # coordinate out of range


def test_expand_to_matrix_examples():
    F4 = make_field(2, 2)
    zero = expand_to_matrix((0, 0, 0), F4)
    assert zero.rows == ((0, 0, 0), (0, 0, 0))
    m1 = expand_to_matrix((1, 2), F4)  # (1, alpha)
    assert m1.rows == ((1, 0), (0, 1))
    assert rank(m1) == 2
    m2 = expand_to_matrix((1, 1), F4)
    assert m2.rows == ((1, 1), (0, 0))
    assert rank(m2) == 1


def test_expand_roundtrip():
    F = make_field(3, 3)
    rng = random.Random(3)
    for _ in range(50):
        vec = tuple(rng.randrange(F.order) for _ in range(4))
        assert vector_from_matrix(expand_to_matrix(vec, F), F) == vec


@given(st.integers(0, 3**3 - 1), st.integers(0, 3**3 - 1), st.integers(0, 2))
def test_expand_is_linear(a, b, c):
    F = make_field(3, 3)
    x = (a, b)
    y = (b, a)
    mx, my = expand_to_matrix(x, F), expand_to_matrix(y, F)
    s = expand_to_matrix(tuple(F.add(u, v) for u, v in zip(x, y)), F)
    assert s.rows == tuple(tuple(map(F.base.add, rx, ry)) for rx, ry in zip(mx.rows, my.rows))
    scaled = expand_to_matrix(tuple(F.mul(c, u) for u in x), F)
    assert scaled.rows == tuple(tuple(F.base.mul(c, v) for v in row) for row in mx.rows)


def test_every_supported_q_constructs():
    for q in SUPPORTED_Q:
        F = make_field(q, 2)
        assert F.order == q * q
        nonzero = [a for a in range(F.order) if a]
        # spot-check inverses on the larger fields
        for a in nonzero[:10]:
            assert F.mul(a, F.inv(a)) == 1


def test_large_field_without_log_tables():
    # q^m > 2^16 forces coefficient-vector arithmetic
    F = make_field(2, 17)
    assert F._exp is None
    a = F.from_coeffs([1, 1] + [0] * 15)
    b = F.from_coeffs([0, 1, 1] + [0] * 14)
    assert F.mul(a, F.inv(a)) == 1
    assert F.mul(a, b) == F.mul(b, a)
    assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
    assert F.frobenius(a, 17) == a


def test_field_equality_and_cache():
    assert make_field(2, 4) is make_field(2, 4)
    assert make_field(2, 4) == make_field(2, 4, [1, 1, 0, 0, 1])
    assert make_field(2, 4) != make_field(2, 4, [1, 1, 1, 1, 1])


def test_word_to_jsonable_names_the_first_element_outside_the_field():
    F = make_field(3, 2)
    assert F.word_to_jsonable((0, 5, 8)) == [[0, 0], [2, 1], [2, 2]]
    assert F.word_to_jsonable(()) == []
    for word, bad in (((1, 9, -1), 9), ((1, -1, 9), -1)):
        with pytest.raises(ValueError, match=f"^{bad} is not an element of a field of order 9$"):
            F.word_to_jsonable(word)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_words_to_jsonable_matches_the_word_form(q, force_batching, monkeypatch):
    import rankmetric.ff as ff

    F = make_field(q, 2)
    rng = random.Random(q)
    words = [tuple(rng.randrange(F.order) for _ in range(3)) for _ in range(20)] + [(0, F.order - 1, 1)]
    expected = [[ff._digits(x, q, 2) for x in w] for w in words]
    # the digit table, then, above its limit, one numpy call and the scalar loop
    for path in ("table", "numpy", "scalar"):
        force_batching(path == "numpy")
        with monkeypatch.context() as mp:
            if path != "table":
                mp.setattr(ff, "_DIGIT_TABLE_MAX", F.order - 1)
            with monkeypatch.context() as no_digits:
                if path != "scalar":
                    no_digits.setattr(ff, "_digits", None)  # the digits come from the table or one numpy call
                got = F.words_to_jsonable(words)
            assert got == expected and all(type(c) is int for w in got for x in w for c in x)
            assert F.words_to_jsonable([]) == [] and F.words_to_jsonable([(), ()]) == [[], []]
            assert F.words_to_jsonable(words[:2] + [words[2][:1]]) == expected[:2] + [expected[2][:1]]
            # -1 would read the table's last row; alone in its word, or before a larger one
            for bad, after in itertools.product((F.order, -1), (0, F.order + 7)):
                broken = words[:5] + [(1, bad, after)] + words[5:]
                with pytest.raises(ValueError, match=f"^{bad} is not an element of a field of order {F.order}$"):
                    F.words_to_jsonable(broken)
                with pytest.raises(ValueError, match=f"^{bad} is not an element of a field of order {F.order}$"):
                    F.word_to_jsonable(broken[5])
        got[0][0][0] += 1  # every element's list is its own
        assert F.words_to_jsonable(words) == expected
        assert [F.word_to_jsonable(w) for w in words] == expected


def test_digit_table_limit():
    import rankmetric.ff as ff

    # the largest field that has a table, and its first row and last rows
    q, m = 2, ff._DIGIT_TABLE_MAX.bit_length() - 1
    table = ff._digit_table(q, m)
    assert len(table) == ff._DIGIT_TABLE_MAX and table[0] == (0,) * m and table[-1] == (1,) * m
    assert [list(row) for row in table[:: 97]] == [ff._digits(x, q, m) for x in range(0, q**m, 97)]
    # its element texts at indent 2 take the 0.8 MB the docstring states
    texts = ff._element_texts(q, m, 2)
    assert len(texts) == len(table) and sum(map(sys.getsizeof, texts)) + sys.getsizeof(texts) < 0.81e6
    ff._digit_table.cache_clear()
    ff._element_texts.cache_clear()
    F = make_field(2, m + 1)  # one step above: no table is built
    assert F.words_to_jsonable([(F.order - 1, 1)]) == [[[1] * (m + 1), [1] + [0] * m]]
    assert json_text([Words(F, [(F.order - 1, 1)])]) == _dumps([[[[1] * (m + 1), [1] + [0] * m]]])
    assert ff._digit_table.cache_info().currsize == ff._element_texts.cache_info().currsize == 0


# per q, the smallest degree whose field is above ff._DIGIT_TABLE_MAX, so it has no element texts
_ABOVE_TABLES = {q: next(m for m in itertools.count(1) if q**m > _DIGIT_TABLE_MAX) for q in SUPPORTED_Q}


@pytest.mark.parametrize("q", SUPPORTED_Q)
@given(data=st.data())
def test_words_leaf_is_json_dumps_of_words_to_jsonable(q, data):
    # on both sides of the element-text tables, at the top level, in dicts
    # and in lists, for empty lists, zero-length words and ragged lists
    F = make_field(q, data.draw(st.sampled_from([1, 2, 3, _ABOVE_TABLES[q]])))
    elements = st.integers(0, F.order - 1)
    length = data.draw(st.integers(0, 3))
    words = data.draw(
        st.lists(st.lists(elements, min_size=length, max_size=length), max_size=5)
        | st.lists(st.lists(elements, max_size=3), max_size=5)
    )
    words = [tuple(w) for w in words] if data.draw(st.booleans()) else words
    place = data.draw(
        st.sampled_from([lambda w: w, lambda w: {"words": w, "b": [1, {"c": w}]}, lambda w: [0, [w, [w]], w]])
    )
    assert json_text(place(Words(F, words))) == _dumps(place(F.words_to_jsonable(words)))


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_words_leaf_names_the_first_element_outside_the_field(q):
    for m in (2, _ABOVE_TABLES[q]):
        F = make_field(q, m)
        for bad, after in itertools.product((F.order, -1, F.order + 3), (0, F.order + 7)):
            # in a list of one length, and in a ragged one
            for words in ([(1, 2), (3, 0), (1, bad), (after, 0)], [(1, 2), (), (3, 0, 1), (bad, after)]):
                with pytest.raises(ValueError) as data:
                    F.words_to_jsonable(words)
                with pytest.raises(ValueError) as text:
                    json_text({"codewords": Words(F, words)})
                assert str(text.value) == str(data.value) == f"{bad} is not an element of a field of order {F.order}"


def test_words_leaf_writes_from_element_texts(monkeypatch):
    import rankmetric.ff as ff

    F, words = make_field(3, 2), [(0, 1, 8), (4, 4, 2)]
    data = [[[0, 0], [1, 0], [2, 2]], [[1, 1], [1, 1], [2, 0]]]
    assert F.words_to_jsonable(words) == data
    ff._element_texts.cache_clear()
    # no digit lists: one table per (q, m, indent), built on first use
    monkeypatch.setattr(ff.Field, "words_to_jsonable", None)
    assert json_text({"w": Words(F, words)}) == _dumps({"w": data})
    assert json_text([1, Words(F, words[::-1])]) == _dumps([1, data[::-1]])
    assert ff._element_texts.cache_info()[:2] == (1, 1)  # hits, misses
    assert json_text(Words(F, words)) == _dumps(data)
    assert ff._element_texts.cache_info()[:2] == (1, 2)
    texts = ff._element_texts(3, 2, 2)
    assert texts[5] == "[\n        2,\n        1\n      ]" and len(texts) == 9


def test_field_degree_limit_refuses_before_the_modulus_search(monkeypatch):
    import rankmetric.ff as ff

    monkeypatch.setattr(ff, "default_modulus", lambda q, m: pytest.fail("modulus search ran"))
    monkeypatch.setattr(ff, "is_irreducible", lambda f, q: pytest.fail("irreducibility test ran"))
    m = ff.MAX_DEGREE + 1
    for q, modulus in ((2, None), (9, None), (2, [1] + [0] * (m - 1) + [1])):
        with pytest.raises(ValueError, match=f"^extension degree {m} is above the limit of {ff.MAX_DEGREE}$"):
            make_field(q, m, modulus)
    with pytest.raises(ValueError, match="extension degree 1000000000 is above the limit"):
        make_field(2, 10**9)


# --- the JSON writer -------------------------------------------------------------

_TRICKY_TEXT = st.text(st.sampled_from('ab"\\[]{},: /\n\t\x00\x1f\x7fé \U0001f600') | st.characters(), max_size=6)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    _TRICKY_TEXT,
)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(min_value=-(2**70), max_value=2**70) | st.booleans(), max_size=5),
        st.lists(st.integers(min_value=0, max_value=8), max_size=5).map(tuple),
        st.dictionaries(_TRICKY_TEXT, children, max_size=4),
        # int, float and bool keys sort together; None sorts only alone
        st.dictionaries(st.integers() | st.floats() | st.booleans(), children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1),
    ),
    max_leaves=30,
)


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


@given(_JSON_TREES)
def test_json_text_is_json_dumps_with_sorted_keys_and_indent_2(doc):
    assert json_text(doc) == _dumps(doc)


_GRID_INTS = st.integers(min_value=-(2**70), max_value=2**70)


@st.composite
def _int_grids(draw):
    """A rectangular nest of depth 1-4 of lists and tuples, mixed at random, of exact ints."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))

    def build(depth):
        if depth == len(shape):
            return draw(_GRID_INTS)
        items = [build(depth + 1) for _ in range(shape[depth])]
        return items if draw(st.booleans()) else tuple(items)

    return build(0)


def _replaced(node, path, value):
    """``node`` with the item at ``path`` (a list of indices) replaced by ``value``."""
    if not path:
        return value
    items = list(node)
    items[path[0]] = _replaced(items[path[0]], path[1:], value)
    return type(node)(items)


@given(_int_grids())
def test_json_text_writes_integer_grids_as_json_dumps(grid):
    assert json_text(grid) == _dumps(grid)
    doc = {"grid": grid, "rows": [grid, grid]}
    assert json_text(doc) == _dumps(doc)


@given(_int_grids(), st.data())
def test_json_text_writes_spoiled_grids_as_json_dumps(grid, data):
    # one bool, numpy integer, empty list or ragged row anywhere in a grid:
    # the same text as json.dumps, or its TypeError
    np = pytest.importorskip("numpy")
    path, node = [], grid
    while isinstance(node, (list, tuple)) and (not path or data.draw(st.booleans())):
        path.append(data.draw(st.integers(0, len(node) - 1)))
        node = node[path[-1]]
    spoiler = data.draw(st.sampled_from(["bool", "int64", "empty", "ragged"]))
    if spoiler == "ragged":  # a row one item longer, or a row where a leaf was
        value = [*node, 0] if isinstance(node, (list, tuple)) else [node]
    else:
        value = {"bool": True, "int64": np.int64(3), "empty": []}[spoiler]
    doc = _replaced(grid, path, value)
    try:
        expected = _dumps(doc)
    except TypeError:
        assert _type_error(json_text, doc) == _type_error(_dumps, doc)
    else:
        assert json_text(doc) == expected


def test_json_text_layout():
    doc = {"b": [[0, -1], (), True], "a": {}, "c": {2.5: "é\"", 1: None}}
    assert json_text(doc) == _dumps(doc) == (
        '{\n  "a": {},\n  "b": [\n    [\n      0,\n      -1\n    ],\n    [],\n    true\n  ],\n'
        '  "c": {\n    "1": null,\n    "2.5": "\\u00e9\\""\n  }\n}'
    )
    assert json_text([]) == "[]" and json_text("x") == '"x"' and json_text(float("nan")) == "NaN"


def _type_error(write, doc) -> str:
    with pytest.raises(TypeError) as exc:
        write(doc)
    return str(exc.value)


@pytest.mark.parametrize(
    "doc",
    [{1, 2}, {"a": [1, {3}]}, {"a": frozenset()}, {(1, 2): 0}, {"k": object}, [1, "x", b"y"], {1: 0, "1": 0}],
    ids=["set", "nested set", "frozenset", "tuple key", "class", "bytes", "mixed keys"],
)
def test_json_text_raises_the_type_error_of_json_dumps(doc):
    assert _type_error(json_text, doc) == _type_error(_dumps, doc)


def test_json_text_refuses_numpy_integers_as_json_dumps_does():
    np = pytest.importorskip("numpy")
    for doc in ([np.int64(3)], [1, np.int64(3)], {"a": np.int64(3)}, np.int64(3)):
        assert _type_error(json_text, doc) == _type_error(_dumps, doc)
        assert "int64" in _type_error(json_text, doc)
