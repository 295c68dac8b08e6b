"""Linearized polynomial algebra: evaluation, composition, subspace polynomials."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from rankmetric.bounds import gaussian_binomial
from rankmetric.ff import make_field
from rankmetric.linpoly import LinearizedPoly, evaluate, min_subspace_poly, root_space
from rankmetric.matfq import Subspace, grassmannian_enumerate
from reference import poly_sum, symbolic_product

F16 = make_field(2, 4)
F4 = make_field(2, 2)


def test_normalization_and_q_degree():
    p = LinearizedPoly(F16, (1, 0, 3, 0, 0))
    assert p.coeffs == (1, 0, 3)
    assert p.q_degree == 2
    z = LinearizedPoly(F16, ())
    assert z.q_degree == -1 and z.is_zero


def test_identity_evaluates_to_argument():
    ident = LinearizedPoly.identity(F16)
    for a in range(F16.order):
        assert evaluate(ident, a) == a


def test_zero_polynomial_evaluates_to_zero():
    z = LinearizedPoly(F16, ())
    for a in (0, 1, 7, 15):
        assert evaluate(z, a) == 0


def test_frobenius_monomial_example():
    f = LinearizedPoly(F4, (0, 1))  # x^[1]
    assert evaluate(f, 2) == 3  # alpha^2 = alpha + 1


def test_evaluation_matches_naive_power_sum():
    rng = random.Random(9)
    for _ in range(50):
        coeffs = tuple(rng.randrange(16) for _ in range(rng.randint(0, 4)))
        p = LinearizedPoly(F16, coeffs)
        a = rng.randrange(16)
        expected = 0
        for i, c in enumerate(coeffs):
            expected = F16.add(expected, F16.mul(c, F16.pow(a, 2**i)))
        assert evaluate(p, a) == expected


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 1), st.integers(0, 1))
def test_evaluation_is_fq_linear(a, b, c1, c2):
    p = LinearizedPoly(F16, (3, 7, 1))
    lhs = evaluate(p, F16.add(F16.mul(c1, a), F16.mul(c2, b)))
    rhs = F16.add(F16.mul(c1, evaluate(p, a)), F16.mul(c2, evaluate(p, b)))
    assert lhs == rhs


@pytest.mark.parametrize("fld,coeffs", [(F4, (2, 3)), (F16, (3, 7, 1))])
def test_linearity_exhaustive_small_fields(fld, coeffs):
    # exhaustive over all argument pairs and all base-field scalars
    p = LinearizedPoly(fld, coeffs)
    for a, b in itertools.product(range(fld.order), repeat=2):
        for c1, c2 in itertools.product(range(fld.q), repeat=2):
            lhs = evaluate(p, fld.add(fld.mul(c1, a), fld.mul(c2, b)))
            rhs = fld.add(fld.mul(c1, evaluate(p, a)), fld.mul(c2, evaluate(p, b)))
            assert lhs == rhs


def test_symbolic_product_identity_and_degrees():
    g = LinearizedPoly(F16, (5, 0, 2))
    ident = LinearizedPoly.identity(F16)
    assert symbolic_product(ident, g) == g
    assert symbolic_product(g, ident) == g
    f = LinearizedPoly(F16, (0, 0, 1))
    h = LinearizedPoly(F16, (0, 0, 0, 4))
    assert symbolic_product(f, h).q_degree == 5


def test_symbolic_product_noncommutative_witness():
    f = LinearizedPoly(F4, (0, 1))
    g = LinearizedPoly(F4, (2,))  # alpha x
    assert symbolic_product(f, g).coeffs == (0, 3)  # alpha^2 x^[1]
    assert symbolic_product(g, f).coeffs == (0, 2)  # alpha x^[1]


def test_symbolic_product_is_composition():
    rng = random.Random(4)
    for _ in range(30):
        f = LinearizedPoly(F16, tuple(rng.randrange(16) for _ in range(rng.randint(1, 3))))
        g = LinearizedPoly(F16, tuple(rng.randrange(16) for _ in range(rng.randint(1, 3))))
        fg = symbolic_product(f, g)
        for a in range(F16.order):
            assert evaluate(fg, a) == evaluate(f, evaluate(g, a))


@given(st.integers(0, 2**30 - 1))
def test_ring_axioms_random_triples(seed):
    rng = random.Random(seed)
    polys = [
        LinearizedPoly(F16, tuple(rng.randrange(16) for _ in range(rng.randint(0, 3))))
        for _ in range(3)
    ]
    f, g, h = polys
    assert symbolic_product(symbolic_product(f, g), h) == symbolic_product(f, symbolic_product(g, h))
    assert symbolic_product(f, poly_sum(g, h)) == poly_sum(symbolic_product(f, g), symbolic_product(f, h))
    assert symbolic_product(poly_sum(f, g), h) == poly_sum(symbolic_product(f, h), symbolic_product(g, h))


def test_min_subspace_poly_zero_space():
    poly = min_subspace_poly(Subspace(2, 4, ()), F16)
    assert poly.coeffs == (1,)  # the identity x


def test_min_subspace_poly_one_dim_roots():
    # span{b}: x^[1] - b^{q-1} x vanishes exactly on the q multiples of b
    for b in range(1, 16):
        poly = min_subspace_poly([b], F16)
        assert poly.q_degree == 1 and poly.is_monic
        roots = {a for a in range(F16.order) if evaluate(poly, a) == 0}
        assert roots == {0, b}


def test_min_subspace_poly_roots_equal_subspace():
    for U in grassmannian_enumerate(4, 2, 2):
        poly = min_subspace_poly(U, F16)
        roots = {a for a in range(F16.order) if evaluate(poly, a) == 0}
        members = {F16.from_coeffs(c) for c in _subspace_elements(U)}
        assert roots == members


def _subspace_elements(U):
    out = []
    for coefs in itertools.product(range(U.q), repeat=U.dim):
        acc = [0] * U.ambient_dim
        for c, row in zip(coefs, U.basis):
            if c:
                acc = [(x + c * y) % U.q for x, y in zip(acc, row)]
        out.append(tuple(acc))
    return out


def test_min_subspace_poly_is_basis_independent():
    U = Subspace.from_vectors(2, 4, [(1, 0, 1, 0), (0, 1, 1, 0)])
    p1 = min_subspace_poly(U, F16)
    b1, b2 = (F16.from_coeffs(r) for r in U.basis)
    p2 = min_subspace_poly([b2, b1], F16)
    p3 = min_subspace_poly([b1, F16.add(b1, b2)], F16)
    assert p1 == p2 == p3


def test_min_subspace_poly_rejects_dependent_basis():
    with pytest.raises(ValueError, match="independent"):
        min_subspace_poly([1, 1], F16)
    with pytest.raises(ValueError, match="independent"):
        min_subspace_poly([0], F16)


def test_root_space_examples():
    assert root_space(LinearizedPoly.identity(F16), F16).dim == 0
    # x^[1] - x has the embedded prime field as root space
    fix = LinearizedPoly(F16, (F16.neg(1), 1))
    rs = root_space(fix, F16)
    assert rs.dim == 1 and rs.basis == ((1, 0, 0, 0),)
    with pytest.raises(ValueError):
        root_space(LinearizedPoly(F16, ()), F16)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_root_space_roundtrip_exhaustive(m):
    fld = make_field(2, m)
    for r in range(m + 1):
        for U in grassmannian_enumerate(m, r, 2):
            poly = min_subspace_poly(U, fld)
            assert poly.q_degree == r and poly.is_monic
            assert root_space(poly, fld) == U


def test_root_space_dim_at_most_q_degree():
    rng = random.Random(12)
    for _ in range(60):
        coeffs = [rng.randrange(16) for _ in range(rng.randint(1, 4))]
        if not any(coeffs):
            coeffs[-1] = 1
        poly = LinearizedPoly(F16, tuple(coeffs))
        assert root_space(poly, F16).dim <= poly.q_degree


def test_subspace_polynomial_count_matches_grassmannian():
    polys = {min_subspace_poly(U, F16).coeffs for U in grassmannian_enumerate(4, 2, 2)}
    assert len(polys) == gaussian_binomial(4, 2, 2) == 35


def test_poly_serialization_roundtrip():
    # a polynomial is written as the field word of its coefficients
    p = LinearizedPoly(F16, (3, 0, 9))
    doc = F16.word_to_jsonable(p.coeffs)
    assert doc == [[1, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]
    assert LinearizedPoly(F16, F16.word_from_jsonable(doc, "coefficients")) == p
