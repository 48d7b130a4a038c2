"""Twisted operator families attached to a Jordan algebra.

Every operator is a Jordan expression in the generic element q = sum_i z_i b_i.
For a generator x on the multiplication side (``p+``) the operator is
multiplication by the linear form tr(x o q); for a generator y on the
derivative side (``p-``) it is the second-order operator

    pi^y = - sum_ij tr({b^i, y, b^j} o q) d_i d_j  -  2 m L d^y
         = - sum_ij {y, b^j, q}_i d_i d_j  -  2 m L d^y,

with the twist parameter L kept formal (a LambdaPoly).  The two forms agree
because the trace form satisfies tr({a, b, c} o d) = tr(a o {b, c, d}), which
follows from tr((a o b) o c) = tr(a o (b o c)) and commutativity; so the
coefficient of d_i d_j is the i-th coordinate of {y, b^j, q}.  On the
opposite patch the same generators act by vector fields: -d^x for x on the
plus side, and for y the quadratic field p -> {p, y, p} plus the function
2 m L tr(y o p).  The algebraic Fourier transform carries one family onto
the other, which the identity suite checks exactly.

The remaining symmetry directions are not written down from a formula:
they are generated as commutators [pi^x, pi^y] and their span is
extracted by exact linear algebra at a specialized rational twist.  The
span reads ``SuperFn`` and ``ZPoly`` coefficients alike, so the same
commutators may be taken between the vector fields instead.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from math import lcm
from typing import NamedTuple

from .jordan import JElem, JordanAlgebra, _collect
from .report import per_algebra
from .ring import _POSINT, FIELD_MASK, LAMBDA, DegreeError, LambdaPoly, RationalLike, Scalar, SuperFn, ZPoly, ONE, ZERO, _unit
from . import weyl
from .weyl import DiffOp, PolyOpPlus

# default rational twist used for span/rank computations; any value off
# the critical set works, this one is documented and overridable
GENERIC_TWIST = Fraction(5, 7)


class GGenerator(NamedTuple):
    """A symmetry generator: a side tag ('plus' | 'minus') and an element."""

    side: str
    element: JElem


def generator_from_selector(J: JordanAlgebra, selector: str) -> GGenerator:
    """Parse ``p+:i``, ``p-:j`` (1-based basis index) or ``idem``."""
    if selector == "idem":
        return GGenerator("minus", J.idempotent_elem())
    side, _, idx = selector.partition(":")
    if side not in ("p+", "p-") or not re.fullmatch(_POSINT, idx):
        raise ValueError(f"bad generator selector {selector!r}")
    i = int(idx) - 1
    if i >= J.n:
        raise ValueError(f"basis index out of range in {selector!r}")
    return GGenerator("plus" if side == "p+" else "minus", J.basis_element(i))


# ---------------------------------------------------------------------------
# The operators on the z-side
# ---------------------------------------------------------------------------

def _add_rows(op: DiffOp | PolyOpPlus, row, y: JElem, lift) -> DiffOp | PolyOpPlus:
    """op + sum_k y_k row(k), ``row(k)`` asked for a nonzero y_k only;
    ``lift`` turns a ZPoly y_k into the rows' coefficient type."""
    for k, yk in enumerate(y.coords):
        if yk.is_zero():
            continue
        rk = row(k)
        if isinstance(yk, ZPoly):
            fk = lift(yk)
            op = op + type(op)(op.alg, {beta: c * fk for beta, c in rk.terms.items()})
        else:
            op = op + (rk if yk == ONE else rk.scale(yk))
    return op


def pi_plus(J: JordanAlgebra, x: JElem) -> DiffOp:
    """Multiplication by the linear form q -> tr(x o q); twist-free."""
    form = J.linear_form(x)
    return DiffOp.mult(J, SuperFn.from_zpoly(J.ring, form))


def critical_pair(J: JordanAlgebra) -> tuple[Fraction, Fraction]:
    """The two distinguished twists 1/2 -+ 1/(4m)."""
    shift = Fraction(1, 4) / J.m
    return (Fraction(1, 2) - shift, Fraction(1, 2) + shift)


def _twist(lam: LambdaPoly | RationalLike | None) -> LambdaPoly:
    """The twist as a LambdaPoly: formal L by default, else the given value."""
    if lam is None:
        return LAMBDA
    if isinstance(lam, LambdaPoly):
        return lam
    return LambdaPoly.from_rational(lam)


@per_algebra
def _row_tables(J: JordanAlgebra) -> tuple:
    """What every second-order row reads, and the rows built so far.

    With the integer structure table ``J._table`` over D and the dual basis
    b^j = sum_a G^{-1}_ja b_a as ints over the lcm g of its denominators:
    the products b_c o b^j and b^j o b_l over D g, as their nonzero
    (coordinate, int) pairs; the slot of beta = e_i + e_j per cell (j, i),
    in first-seen order; and the packed monomial of each z_l (read off
    the form of q).
    """
    den, cells, n = J._table
    g = lcm(*(x.denominator for row in J.gram_inv for x in row))
    duals = [[(a, x.numerator * (g // x.denominator)) for a, x in enumerate(row) if x] for row in J.gram_inv]

    def vector(pairs) -> tuple:
        out: dict = {}
        for cell, x in pairs:
            for i, s in cell:
                out[i] = out.get(i, 0) + x * s
        return tuple((i, v) for i, v in out.items() if v)

    left = [[vector((cells[c][a], x) for a, x in duals[j]) for j in range(n)] for c in range(n)]
    right = [[vector((cells[a][l], x) for a, x in duals[j]) for l in range(n)] for j in range(n)]
    slots: dict[tuple, int] = {}
    beta = lambda i, j: tuple(int(t == i) + int(t == j) for t in range(n))
    cell_slots = [[slots.setdefault(beta(i, j), len(slots)) for i in range(n)] for j in range(n)]
    keys = [terms[0][0] for terms in J._form(J.generic_elem())[1]]
    return den * den * g, left, right, tuple(slots), cell_slots, keys, {}


def _second_order_row(J: JordanAlgebra, k: int) -> DiffOp:
    """- sum_ij {b_k, b^j, q}_i d_i d_j, built on first use and kept per algebra.

    {b_k, b^j, q} = sum_l z_l {b_k, b^j, b_l}, the trilinear form
    ((b_k o b^j) o b_l + b_k o (b^j o b_l) - (b_k o b_l) o b^j)_i read off
    the integer tables with each product's left operand on the left, so a
    non-commutative structure is not symmetrised.  The terms are ints over
    one denominator, summed per slot and z_l; each coefficient becomes a
    ZPoly once, and a nonzero one a SuperFn once.
    """
    den, left, right, slots, cell_slots, keys, rows = _row_tables(J)
    if k in rows:
        return rows[k]
    cells, n = J._table[1], J.n
    acc = [[0] * n for _ in slots]
    for j, to_slot in enumerate(cell_slots):
        for c, x in left[k][j]:  # (b_k o b^j) o b_l
            for l, cell in enumerate(cells[c]):
                for i, s in cell:
                    acc[to_slot[i]][l] += x * s
        for l, bjl in enumerate(right[j]):  # b_k o (b^j o b_l)
            for c, x in bjl:
                for i, s in cells[k][c]:
                    acc[to_slot[i]][l] += x * s
        for l, cell in enumerate(cells[k]):  # (b_k o b_l) o b^j
            for c, s in cell:
                for i, x in left[c][j]:
                    acc[to_slot[i]][l] -= s * x
    re = [{key: -v for key, v in zip(keys, vals) if v} for vals in acc]
    coeffs = J._result(_collect(den, re, [{} for _ in slots], True)).coords
    rows[k] = DiffOp(J, {beta: SuperFn.from_zpoly(J.ring, c) for beta, c in zip(slots, coeffs) if not c.is_zero()})
    return rows[k]


def _second_order_rows(J: JordanAlgebra) -> tuple:
    """Every row of :func:`_second_order_row`, in basis order."""
    return tuple(_second_order_row(J, k) for k in range(J.n))


def pi_minus(J: JordanAlgebra, y: JElem, lam: LambdaPoly | RationalLike | None = None) -> DiffOp:
    """- sum_ij {y, b^j, q}_i d_i d_j - 2 m L d^y at the generic element q.

    {y, b^j, q}_i = tr({b^i, y, b^j} o q) by tr({a, b, c} o d) =
    tr(a o {b, c, d}); summing over every pair (i, j) gives the off-diagonal
    factor 2.  The second-order part is linear in y, so it is
    sum_k y_k row_k over the nonzero y_k only; row k, the operator of b_k,
    is built off the integer structure table and dual basis the first time
    a pi^y with y_k != 0 is formed.  ``lam`` defaults to the formal
    parameter; pass an int, a Fraction or a LambdaPoly to specialize.  A
    coordinate y_k may be a ZPoly, as in J.triple; it multiplies the
    row's coefficients.
    """
    op = DiffOp.directional(J, y).scale(_twist(lam).scale(Scalar(-2 * J.m)))
    return _add_rows(op, partial(_second_order_row, J), y, lambda yk: SuperFn.from_zpoly(J.ring, yk))


# ---------------------------------------------------------------------------
# The vector fields on the u-side
# ---------------------------------------------------------------------------

def eta_plus(J: JordanAlgebra, x: JElem) -> PolyOpPlus:
    """The constant field -d^x."""
    return PolyOpPlus(J, {_unit(J.n, i): ZPoly.const(J.n, -xi) for i, xi in enumerate(J._coords(x))})


@per_algebra
def _quadratic_rows(J: JordanAlgebra) -> tuple:
    """The fields p -> {p, b_k, p}, one ``PolyOpPlus`` row per k, built
    once per algebra as integer forms with p o p formed once."""
    n = J.n
    p = J._form(J.generic_elem())
    pp = J._product_form(p, p)
    rows = []
    for k in range(n):
        field = J._result(J._triple_form(p, J._form(J.basis_element(k)), p, fac=pp))
        rows.append(PolyOpPlus(J, {_unit(n, i): c for i, c in enumerate(field.coords)}))
    return tuple(rows)


def eta_minus(J: JordanAlgebra, y: JElem, lam: LambdaPoly | RationalLike | None = None) -> PolyOpPlus:
    """Quadratic field p -> {p, y, p} plus the function 2 m L tr(y o p).

    The field is linear in y, so it is sum_k y_k row_k with the fields of
    the basis elements b_k, built once per algebra.  A coordinate y_k may
    be a ZPoly, as in J.triple; it multiplies the row's coefficients.
    """
    op = PolyOpPlus.mult(J, J.linear_form(y).scale(_twist(lam).scale(Scalar(2 * J.m))))
    return _add_rows(op, _quadratic_rows(J).__getitem__, y, lambda yk: yk)


# ---------------------------------------------------------------------------
# Generated symmetry span at a specialized twist
# ---------------------------------------------------------------------------

def _polynomial_parts(c: SuperFn | ZPoly):
    """The (part, polynomial) pairs of a coefficient: a ZPoly is its own
    even part; a SuperFn's two parts must have no power of F."""
    if isinstance(c, ZPoly):
        yield "ev", c
        return
    for part_tag, loc in (("ev", c.ev), ("od", c.od)):
        if loc.k != 0:
            raise ValueError("span computation expects polynomial coefficients")
        yield part_tag, loc.num


def _op_vector(op: DiffOp | PolyOpPlus, columns: dict) -> dict:
    """Flatten an operator into rational coordinates for rank computations.

    Coefficients must be polynomial and twist-free (specialize first):
    ``SuperFn`` ones on the z-side, ``ZPoly`` ones on the u-side.
    ``columns`` assigns stable integer ids to (multi-index, packed
    z-monomial, part) triples across calls.
    """
    vec = {}
    for beta, c in op.terms.items():
        for part_tag, num in _polynomial_parts(c):
            for mono, s in num.packed.items():
                if mono & FIELD_MASK:  # the lowest field is the power of L
                    raise DegreeError("not a constant in L")
                key = (beta, mono, part_tag)
                col = columns.setdefault(key, len(columns))
                vec[col] = s
    return vec


class SpanBasis:
    """Exact row-reduced span of operator coefficient vectors, ``ops`` first;
    the operators are all ``DiffOp`` or all ``PolyOpPlus``."""

    def __init__(self, ops=()):
        self.columns: dict = {}
        self.rows: list[dict] = []   # reduced rows, pivot -> 1
        self.pivots: list[int] = []
        self.members: list = []
        for op in ops:
            self.add(op)

    def _reduce(self, vec: dict) -> dict:
        for pivot, row in zip(self.pivots, self.rows):
            c = vec.get(pivot)
            if c is None or c.is_zero():
                continue
            for col, val in row.items():
                acc = vec.get(col, ZERO) - c * val
                if acc.is_zero():
                    vec.pop(col, None)
                else:
                    vec[col] = acc
        return {k: v for k, v in vec.items() if not v.is_zero()}

    def contains(self, op: DiffOp | PolyOpPlus) -> bool:
        return not self._reduce(_op_vector(op, self.columns))

    def add(self, op: DiffOp | PolyOpPlus) -> bool:
        """Insert op; returns True when it enlarged the span."""
        vec = self._reduce(_op_vector(op, self.columns))
        if not vec:
            return False
        pivot = min(vec)
        inv = vec[pivot].inv()
        row = {k: v * inv for k, v in vec.items()}
        self.rows.append(row)
        self.pivots.append(pivot)
        self.members.append(op)
        return True

    @property
    def dimension(self) -> int:
        return len(self.rows)


def k_span(J: JordanAlgebra, lam_value: Fraction = GENERIC_TWIST) -> tuple[list[DiffOp], int]:
    """Basis and dimension of span{[pi^{b_i}, pi^{b_j}]} at a rational twist."""
    minus_ops = [pi_minus(J, J.basis_element(j), lam_value) for j in range(J.n)]
    plus_ops = [pi_plus(J, J.basis_element(i)) for i in range(J.n)]
    basis = SpanBasis(p.commutator(m) for p in plus_ops for m in minus_ops)
    return basis.members, basis.dimension


def expected_k_dimension(J: JordanAlgebra) -> int:
    """Dimension of the symmetry block fixed by the grading element.

    sym:r -> r^2, full:r -> 2 r^2 - 1, spin:p -> 1 + p(p-1)/2.
    """
    if J.kind == "sym":
        return J.r * J.r
    if J.kind == "full":
        return 2 * J.r * J.r - 1
    if J.kind == "spin":
        p = J.n
        return 1 + p * (p - 1) // 2
    raise ValueError(f"unknown kind {J.kind!r}")


# ---------------------------------------------------------------------------
# The polynomial module generated by 1 and w
# ---------------------------------------------------------------------------

def act_on_H(A: DiffOp, h: SuperFn) -> tuple[SuperFn, bool]:
    """Apply A and report whether the image stays in the module."""
    out = A.apply(h)
    return out, out.is_polynomial()


# ---------------------------------------------------------------------------
# Distinguished vectors built from the norm derivative operator
# ---------------------------------------------------------------------------

def norm_derivative_op(J: JordanAlgebra) -> DiffOp:
    """The constant-coefficient operator obtained from F by replacing the
    i-th coordinate with the derivative along the i-th dual basis vector:
    the Fourier image of multiplication by F."""
    return weyl.fourier(PolyOpPlus.mult(J, J.normF))


def semi_invariant_w_dF(J: JordanAlgebra) -> DiffOp:
    """w . (norm derivative operator): annihilated by every [pi^y, .]
    at the lower critical twist."""
    return DiffOp.mult_w(J).compose(norm_derivative_op(J))


def semi_invariant_dF_w(J: JordanAlgebra) -> DiffOp:
    """(norm derivative operator) . w: the mirror vector at the upper twist."""
    return norm_derivative_op(J).compose(DiffOp.mult_w(J))

