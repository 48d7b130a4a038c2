"""Normal-ordered differential operators with coefficients in the cover ring.

A :class:`DiffOp` is a finite sum  sum_beta  c_beta * d^beta  where the
coefficients c_beta are :class:`~twistedops.ring.SuperFn` values (so they
may involve w and inverse powers of the norm F) and d^beta is a monomial
in the coordinate derivatives.  Coefficients always stand to the left of
the derivatives; composition re-establishes that normal order through
the Leibniz rule, which is where the chain rule for w enters.  A
commutator sums only the Leibniz terms in which a derivative falls on a
coefficient: the coefficient ring is commutative, so the others cancel.

:class:`PolyOpPlus` is the analogous polynomial-coefficient operator
algebra on the opposite coordinate patch (coordinates ``u1..un``); the
algebraic Fourier transform maps it anti-multiplicatively onto the
polynomial part of the cover algebra, exchanging multiplication by the
i-th coordinate with the derivative along the i-th dual basis vector.

Two filtrations are exposed: the usual operator ``order`` and the
``sharp_degree`` given by the Euler grade of the normal-ordered
coefficients (derivatives count zero).
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import product
from math import comb, inf, prod
from operator import add, or_
from typing import Mapping

from .jordan import JordanAlgebra, JElem
from .report import per_algebra
from .ring import (
    ContextMismatchError,
    FIELD,
    FIELD_MASK,
    Frozen,
    IUNIT,
    LambdaPoly,
    LocFn,
    NEG_INF,
    ONE,
    Scalar,
    SuperFn,
    ZPoly,
    _merged,
    _unit,
    _zpoly,
    grade_components,
    parse_terms,
    sum_terms,
    superfn_terms,
    z_degree,
    _poly_terms,
    _mono_str,
)

MultiIndex = tuple  # tuple[int, ...] of length n


def grlex_key(idx: MultiIndex) -> tuple:
    """Graded lexicographic order on multi-indices."""
    return (sum(idx), idx)


def _check_alg(a: JordanAlgebra, b: JordanAlgebra) -> None:
    if a is not b and not a.ring.compatible(b.ring):
        raise ContextMismatchError("operators over different algebras")


def _sub_indices(beta: MultiIndex):
    """All delta with 0 <= delta <= beta componentwise, first coordinate fastest."""
    return (delta[::-1] for delta in product(*(range(b + 1) for b in reversed(beta))))


@cache
def _leibniz(beta: MultiIndex) -> tuple:
    """The Leibniz table of d^beta: one ``(delta, C(beta, delta), beta - delta)``
    per ``delta`` of ``_sub_indices(beta)``, lowest total degree first, so
    row 0 is ``((0,)*n, None, beta)``.

    The binomial is a Scalar, or None when it is 1.  Keyed on beta alone,
    the table stays as small as the set of derivative orders in use.
    """
    table = []
    for delta in sorted(_sub_indices(beta), key=sum):
        coeff = prod(comb(b, d) for b, d in zip(beta, delta))
        rest = tuple(b - d for b, d in zip(beta, delta))
        table.append((delta, None if coeff == 1 else Scalar(coeff), rest))
    return tuple(table)


def _partial(cache: dict, idx: MultiIndex):
    """d^idx of the function stored at the zero index of ``cache``, or None
    when that partial is zero.

    Each missing partial is one derivative of the partial with the first
    nonzero exponent lowered by one; every result is kept in ``cache``,
    a zero one as None, so no derivative is ever taken of a zero partial.
    """
    try:
        return cache[idx]
    except KeyError:
        pass
    i = next(k for k, e in enumerate(idx) if e)
    lower = _partial(cache, idx[:i] + (idx[i] - 1,) + idx[i + 1:])
    val = None
    if lower is not None:
        val = lower.derivative(i)
        if val.is_zero():
            val = None
    cache[idx] = val
    return val


def _reach(c) -> tuple[float, int]:
    """Which partials of ``c`` can be nonzero: its z-degree, as every
    partial of higher order is zero, and the bit set of the z-variables it
    involves, bit i for z_(i+1) (the fields of the OR of its packed keys),
    as a partial along any other variable is zero.  Both are read when
    ``c`` is a polynomial: a ZPoly, or a SuperFn with no w and no F in its
    denominator.  For any other coefficient, infinity and every bit (-1),
    since w and F involve every variable."""
    if isinstance(c, SuperFn):
        if c.od._num.packed or c.ev._k:
            return inf, -1
        c = c.ev._num
    n, keys = c.n, reduce(or_, c.packed, 0)
    return (max((z_degree(n, key) for key in c.packed), default=0),
            sum(1 << i for i in range(n) if keys >> (FIELD * (n - i)) & FIELD_MASK))


class _OperatorSlots:
    """The slots of an operator, open to plain stores; see :func:`_operator`."""

    __slots__ = ("alg", "terms", "_by_delta", "_partials")


def _operator(cls: type, alg: JordanAlgebra, terms: dict):
    """The ``cls`` operator over ``alg`` with already-pruned terms, filled
    with plain stores and then retyped."""
    op = object.__new__(_OperatorSlots)
    op.alg = alg
    op.terms = terms
    op._by_delta = None
    op._partials = None
    op.__class__ = cls
    return op


class _NormalOrdered(_OperatorSlots, Frozen):
    """Finite sum  sum_beta c_beta * d^beta  with coefficients to the left.

    The coefficient type (``SuperFn`` or ``ZPoly``) only has to provide
    ``derivative``, ``*``, ``scale``, ``+``, ``-`` and ``is_zero``.

    Two private slots hold what compositions with this operator reuse;
    each is None until first needed:

    * ``_by_delta``, once the operator is composed on the left of another:
      its Leibniz rows grouped by delta, a tuple of
      ``(delta, (order, bits, ((c_beta, C(beta, delta), beta - delta), ...)))``
      over its own terms, delta = 0 first, where ``order`` is |delta| and
      ``bits`` the bit set of the variables delta differentiates.
    * ``_partials``, once the operator is composed on the right of
      another: per index gamma, the degree bound and the support of
      c_gamma (see :func:`_reach`) and the partials d^delta c_gamma of
      its own coefficients that Leibniz rows have asked for (``{gamma:
      (bound, support, {delta: partial or None})}``, None for a zero
      partial).

    Both depend on the terms alone, the operator is immutable, and the
    slots live and die with their operator, so a fresh operator, even
    one equal to this one, starts with empty slots.
    """

    __slots__ = ()

    def __new__(cls, alg: JordanAlgebra, terms: Mapping | None = None):
        return _operator(cls, alg, {idx: c for idx, c in (terms or {}).items() if not c.is_zero()})

    def _with(self, terms: dict):
        """An operator of the same type and algebra with already-pruned terms."""
        return _operator(type(self), self.alg, terms)

    @classmethod
    def zero(cls, alg: JordanAlgebra):
        return cls(alg)

    @classmethod
    def mult(cls, alg: JordanAlgebra, c):
        return cls(alg, {(0,) * alg.n: c})

    # -- linear structure ----------------------------------------------------
    def __add__(self, other):
        _check_alg(self.alg, other.alg)
        return self._with(_merged(self.terms, other.terms))

    def __neg__(self):
        return self._with({idx: -c for idx, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Scalar | LambdaPoly):
        return type(self)(self.alg, {idx: f.scale(c) for idx, f in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    # -- composition ----------------------------------------------------------
    def _delta_rows(self) -> tuple:
        """The ``_by_delta`` index of this operator, built on first use."""
        rows = self._by_delta
        if rows is None:
            groups: dict = {}
            for beta, a in self.terms.items():
                for delta, coeff, rest in _leibniz(beta):
                    groups.setdefault(delta, []).append((a, coeff, rest))
            rows = tuple((delta, (sum(delta), sum(1 << i for i, e in enumerate(delta) if e), tuple(group)))
                         for delta, group in groups.items())
            _OperatorSlots._by_delta.__set__(self, rows)
        return rows

    def _leibniz_sum(self, other, first: int) -> dict:
        """The terms of self . other, from entry ``first`` of the delta index on.

        Leibniz rule: d^beta . b = sum_{delta <= beta} C(beta, delta)
        (d^delta b) d^(beta - delta).  The loop runs gamma -> delta -> the
        rows of self's ``_by_delta`` index for that delta, so each partial
        d^delta b_gamma, kept on ``other``, is looked up once per
        (gamma, delta), and a zero one skips all of its rows at once.  A
        delta of order above the degree bound of b_gamma, or along a
        variable outside its support (both read once, by :func:`_reach`),
        is skipped without a lookup.
        Entry 0 of the index is delta = 0, since every table of
        ``_leibniz`` starts there.
        """
        cache = other._partials
        if cache is None:
            cache = {}
            _OperatorSlots._partials.__set__(other, cache)
        rows = self._delta_rows()[first:]
        out: dict = {}
        for gamma, b in other.terms.items():
            entry = cache.get(gamma)
            if entry is None:
                entry = cache[gamma] = (*_reach(b), {(0,) * len(gamma): b})
            bound, support, partials = entry
            absent = ~support
            for delta, (order, bits, group) in rows:
                if order > bound or bits & absent:
                    continue
                db = _partial(partials, delta)
                if db is None:
                    continue
                for a, coeff, rest in group:
                    term = a * db
                    if coeff is not None:
                        term = term.scale(coeff)
                    idx = tuple(map(add, rest, gamma))
                    acc = out.get(idx)
                    s = term if acc is None else acc + term
                    if s.is_zero():
                        out.pop(idx, None)
                    else:
                        out[idx] = s
        return out

    def compose(self, other):
        """Normal-ordered product self . other (apply ``other`` first)."""
        _check_alg(self.alg, other.alg)
        return self._with(self._leibniz_sum(other, 0))

    def commutator(self, other):
        """[self, other] = self . other - other . self.

        Entry 0 of the delta index is delta = 0, the terms a_beta b_gamma
        d^(beta + gamma).  The coefficient ring is commutative, so the
        same terms b_gamma a_beta d^(gamma + beta) come out of
        other . self and the two cancel exactly; only the entries with
        delta != 0, where a derivative falls on a coefficient, are summed.
        """
        _check_alg(self.alg, other.alg)
        return self._with(self._leibniz_sum(other, 1)) - other._with(other._leibniz_sum(self, 1))

    # -- comparison -------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.alg.ring.compatible(other.alg.ring)
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class DiffOp(_NormalOrdered):
    """Normal-ordered differential operator on the square-root cover."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------
    @staticmethod
    def identity(alg: JordanAlgebra) -> "DiffOp":
        return DiffOp(alg, {(0,) * alg.n: SuperFn.one(alg.ring)})

    @staticmethod
    @per_algebra
    def mult_w(alg: JordanAlgebra) -> "DiffOp":
        """Multiplication by w.  Each algebra has one (see
        :func:`~twistedops.report.per_algebra`), so its partials d^delta w
        are derived once for the life of the algebra."""
        return DiffOp.mult(alg, SuperFn.w(alg.ring))

    @staticmethod
    @per_algebra
    def mult_w_inv(alg: JordanAlgebra) -> "DiffOp":
        """Multiplication by w^-1 = w/F, one per algebra like :meth:`mult_w`."""
        return DiffOp.mult(alg, SuperFn.w_inv(alg.ring))

    @staticmethod
    def partial(alg: JordanAlgebra, i: int) -> "DiffOp":
        return DiffOp(alg, {_unit(alg.n, i): SuperFn.one(alg.ring)})

    @staticmethod
    def directional(alg: JordanAlgebra, y: JElem) -> "DiffOp":
        """The derivative along y: sum_i y_i d_i over the nonzero y_i, each
        lifted to a coefficient once; a coordinate y_i may be a ZPoly."""
        lift = lambda c: (SuperFn.from_zpoly if isinstance(c, ZPoly) else SuperFn.const)(alg.ring, c)
        return DiffOp(alg, {_unit(alg.n, i): lift(c) for i, c in enumerate(alg._coords(y)) if not c.is_zero()})

    def apply(self, f: SuperFn) -> SuperFn:
        """Apply the operator to a function of the cover ring."""
        out = SuperFn.zero(self.alg.ring)
        partials = {(0,) * self.alg.n: None if f.is_zero() else f}
        for beta, c in self.terms.items():
            df = _partial(partials, beta)
            if df is not None:
                out = out + c * df
        return out

    # -- structural maps --------------------------------------------------------
    def subst_lambda(self, value: LambdaPoly | Scalar) -> "DiffOp":
        if isinstance(value, Scalar):
            value = LambdaPoly.const(value)
        return DiffOp(self.alg, {idx: c.subst_lambda(value) for idx, c in self.terms.items()})

    def delta_map(self) -> "DiffOp":
        """The anti-automorphism with z_i -> -z_i, d_i -> d_i, w -> i^r w.

        Extended anti-multiplicatively; the twist parameter is left as is,
        so pair with a substitution when comparing twisted families.
        delta(c d^beta) = d^beta . delta(c) is re-normal-ordered in one
        Leibniz pass into one dict, skipping what :func:`_reach` rules out.
        """
        iw = IUNIT ** self.alg.r
        out: dict = {}
        for beta, c in self.terms.items():
            f = _flip_superfn(c, iw)
            bound, support = _reach(f)
            partials = {(0,) * len(beta): f}
            for delta, coeff, rest in _leibniz(beta):
                if sum(delta) > bound or any(e and not support >> i & 1 for i, e in enumerate(delta)):
                    continue
                df = _partial(partials, delta)
                if df is None:
                    continue
                term = df if coeff is None else df.scale(coeff)
                out[rest] = out[rest] + term if rest in out else term
        return DiffOp(self.alg, out)

    def conjugate_by_w(self) -> "DiffOp":
        """w . self . w^{-1} (multiplication operators are fixed)."""
        alg = self.alg
        return DiffOp.mult_w(alg).compose(self).compose(DiffOp.mult_w_inv(alg))

    # -- filtrations ----------------------------------------------------------
    def order(self):
        if not self.terms:
            return NEG_INF
        return max(sum(beta) for beta in self.terms)

    def sharp_degree(self):
        """Max Euler grade of the normal-ordered coefficients."""
        best = NEG_INF
        for c in self.terms.values():
            for g in grade_components(c):
                if g > best:
                    best = g
        return best

    def __str__(self) -> str:
        return diffop_str(self)


def _flip_superfn(c: SuperFn, iw: Scalar) -> SuperFn:
    """Coefficient image under z -> -z, w -> iw * w."""
    ctx = c.ctx
    r = ctx.r

    def flip_loc(p: LocFn, extra: Scalar) -> LocFn:
        even = Scalar(-1) ** (r * p.k) * extra
        odd = -even
        n = ctx.n
        num = {mono: coef * (odd if z_degree(n, mono) % 2 else even) for mono, coef in p.num.packed.items()}
        return LocFn(ctx, _zpoly(n, num), p.k)

    return SuperFn(ctx, flip_loc(c.ev, ONE), flip_loc(c.od, iw))


# ---------------------------------------------------------------------------
# Polynomial operators on the opposite patch and the Fourier transform
# ---------------------------------------------------------------------------

class PolyOpPlus(_NormalOrdered):
    """Operator with polynomial coefficients in coordinates u1..un."""

    __slots__ = ()

    @staticmethod
    def partial(alg: JordanAlgebra, i: int) -> "PolyOpPlus":
        return PolyOpPlus(alg, {_unit(alg.n, i): ZPoly.one(alg.n)})

    def __str__(self) -> str:
        return polyop_str(self)


@per_algebra
def _fourier_images(alg: JordanAlgebra) -> tuple:
    """The forms ell_i = tr(b_i o q) and the derivatives D_i along the dual
    basis vectors b^i, as linear ZPolys in d_1..d_n, once per algebra."""
    n = alg.n
    ell = tuple(alg.linear_form(alg.basis_element(i)) for i in range(n))
    dual = tuple(ZPoly(n, {_unit(n, j) + (0,): c for j, c in enumerate(alg._coords(alg.dual_basis_element(i)))})
                 for i in range(n))
    return ell, dual


def fourier(A: PolyOpPlus) -> DiffOp:
    """Algebraic Fourier transform: the anti-isomorphism onto z-operators.

    A ring map on symbols: multiplication by u_i maps to the derivative D_i
    along the i-th dual basis vector, and d/du_i to multiplication by the
    linear form ell_i = tr(b_i o q).  D_i is a ZPoly whose variables stand
    for d_1..d_n, so the image of ``c(u, L) d^beta`` is ell^beta times the
    ZPoly c(D, L) = sum_gamma lam_gamma(L) d^gamma: the normal-ordered
    sum_gamma (lam_gamma ell^beta) d^gamma.  No operator is composed.
    """
    alg = A.alg
    n = alg.n
    ell, dual = _fourier_images(alg)
    one = ZPoly.one(n)
    power = lambda forms, idx: prod((f for f, e in zip(forms, idx) for _ in range(e)), start=one)
    d_power = cache(lambda alpha: power(dual, alpha))
    out: dict = {}
    for beta, coeff in A.terms.items():
        mult = power(ell, beta)
        symbol = sum((d_power(alpha).scale(lam) for alpha, lam in coeff.sorted_terms()), ZPoly.zero(n))
        for gamma, lam in symbol.sorted_terms():
            term = mult.scale(lam)
            out[gamma] = out[gamma] + term if gamma in out else term
    return DiffOp(alg, {gamma: SuperFn.from_zpoly(alg.ring, c) for gamma, c in out.items()})


# ---------------------------------------------------------------------------
# Text format: <SuperFn-term> * d1^e1*...*dn^en
# ---------------------------------------------------------------------------

def _op_str(A: DiffOp | PolyOpPlus, terms) -> str:
    """``terms(c, tail)`` for each coefficient c of ``A``, its d-monomial the tail."""
    parts = []
    for beta, c in A.sorted_terms():
        ds = _mono_str("d", beta)
        parts += terms(c, f" * {ds}" if ds else "")
    return " + ".join(parts) if parts else "0"


def polyop_str(A: PolyOpPlus) -> str:
    """Text form of a u-side operator, e.g. ``(1)*u1^2 * d1 + (2)(L)*u1``."""
    return _op_str(A, lambda c, tail: _poly_terms(c, "u", tail))


def diffop_str(A: DiffOp) -> str:
    return _op_str(A, superfn_terms)


def parse_diffop(text: str, alg: JordanAlgebra) -> DiffOp:
    return DiffOp(alg, sum_terms(parse_terms(text, alg.ring), alg.ring))
