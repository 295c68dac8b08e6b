"""Linearized polynomials over F_{q^m}.

A linearized polynomial sum_i f_i x^{q^i} acts F_q-linearly on F_{q^m}.
Coefficient index i is written [i] below, so x^{[i]} = x^{q^i}.  Addition and
composition (the symbolic product) make these a non-commutative ring with
identity x^{[0]} = x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .ff import Field
from .matfq import MatrixFq, Subspace, right_kernel


@dataclass(frozen=True)
class LinearizedPoly:
    """Coefficients low-index-first; normalized so the last entry is nonzero."""

    field: Field
    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if any(not 0 <= c < self.field.order for c in coeffs):
            raise ValueError("coefficients must be elements of the field")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, field: Field) -> "LinearizedPoly":
        return cls(field, ())

    @classmethod
    def identity(cls, field: Field) -> "LinearizedPoly":
        """x^{[0]} = x."""
        return cls(field, (1,))

    @classmethod
    def monomial(cls, field: Field, i: int, coeff: int = 1) -> "LinearizedPoly":
        """coeff * x^{[i]}."""
        return cls(field, (0,) * i + (coeff,))

    @property
    def q_degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return LinearizedPoly(F, tuple(F.add(self.coeff(i), other.coeff(i)) for i in range(n)))

    def __sub__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return LinearizedPoly(F, tuple(F.sub(self.coeff(i), other.coeff(i)) for i in range(n)))

    def scale(self, c: int) -> "LinearizedPoly":
        F = self.field
        return LinearizedPoly(F, tuple(F.mul(c, x) for x in self.coeffs))

    def __call__(self, a: int) -> int:
        return evaluate(self, a)

    def to_jsonable(self) -> list[list[int]]:
        return self.field.word_to_jsonable(self.coeffs)


def evaluate(f: LinearizedPoly, a: int) -> int:
    """f(a) = sum_i f_i a^{q^i}, accumulated one Frobenius step at a time."""
    F = f.field
    acc = 0
    cur = a
    for c in f.coeffs:
        if c:
            acc = F.add(acc, F.mul(c, cur))
        cur = F.frobenius(cur)
    return acc


def symbolic_product(f: LinearizedPoly, g: LinearizedPoly) -> LinearizedPoly:
    """Composition f(g(x)); q-degrees add, the product is not commutative."""
    if f.field != g.field:
        raise ValueError("operands live in different fields")
    F = f.field
    if f.is_zero or g.is_zero:
        return LinearizedPoly.zero(F)
    out = [0] * (f.q_degree + g.q_degree + 1)
    for i, fi in enumerate(f.coeffs):
        if not fi:
            continue
        for j, gj in enumerate(g.coeffs):
            if gj:
                out[i + j] = F.add(out[i + j], F.mul(fi, F.frobenius(gj, i)))
    return LinearizedPoly(F, tuple(out))


def _subspace_basis_elements(U: Subspace | Sequence[int], field: Field) -> list[int]:
    if isinstance(U, Subspace):
        if U.q != field.q or U.ambient_dim != field.m:
            raise ValueError("subspace does not match the field (need ambient dim m over F_q)")
        return [field.from_coeffs(row) for row in U.basis]
    return [int(b) for b in U]


def min_subspace_poly(U: Subspace | Sequence[int], field: Field) -> LinearizedPoly:
    """Monic linearized polynomial of q-degree dim(U) vanishing exactly on U.

    Built iteratively: M_0 = x, M_{i+1}(x) = M_i(x)^q - M_i(b_{i+1})^{q-1} M_i(x)
    for a basis b_1, ..., b_r of U.  The result does not depend on the basis
    (it is the unique such polynomial).
    """
    F = field
    basis = _subspace_basis_elements(U, field)
    poly = LinearizedPoly.identity(F)
    for b in basis:
        val = evaluate(poly, b)
        if val == 0:
            raise ValueError("basis is not F_q-linearly independent")
        shifted = LinearizedPoly(F, (0,) + tuple(F.frobenius(c) for c in poly.coeffs))
        poly = shifted - poly.scale(F.pow(val, F.q - 1))
    return poly


def root_space(f: LinearizedPoly, field: Field) -> Subspace:
    """The F_q-subspace {a in F_{q^m} : f(a) = 0} via the kernel of a ↦ f(a)."""
    if f.is_zero:
        raise ValueError("zero polynomial has the whole field as root space")
    images = [field.coeffs(evaluate(f, field.basis_element(j))) for j in range(field.m)]
    mat = MatrixFq(
        field.q,
        tuple(tuple(images[j][i] for j in range(field.m)) for i in range(field.m)),
        ncols=field.m,
    )
    kernel = right_kernel(mat)
    return Subspace.from_vectors(field.q, field.m, kernel)


def poly_from_jsonable(field: Field, data: Sequence[Sequence[int]]) -> LinearizedPoly:
    return LinearizedPoly(field, field.word_from_jsonable(data, "linearized polynomial coefficients"))
