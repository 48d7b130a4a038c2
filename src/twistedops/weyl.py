"""Normal-ordered differential operators with coefficients in the cover ring.

A :class:`DiffOp` is a finite sum  sum_beta  c_beta * d^beta  where the
coefficients c_beta are :class:`~twistedops.ring.SuperFn` values (so they
may involve w and inverse powers of the norm F) and d^beta is a monomial
in the coordinate derivatives.  Coefficients always stand to the left of
the derivatives; composition re-establishes that normal order through
the Leibniz rule, which is where the chain rule for w enters.

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

from math import comb
from typing import Mapping

from .jordan import JordanAlgebra, JElem
from .ring import (
    ContextMismatchError,
    IUNIT,
    LambdaPoly,
    LocFn,
    NEG_INF,
    ONE,
    Scalar,
    SuperFn,
    ZPoly,
    grade_components,
    grlex_key,
    parse_term,
    superfn_terms,
    _coeff_groups,
    _mono_str,
    _split_terms,
)

MultiIndex = tuple  # tuple[int, ...] of length n


def _check_alg(a: JordanAlgebra, b: JordanAlgebra) -> None:
    if a is not b and not a.ring.compatible(b.ring):
        raise ContextMismatchError("operators over different algebras")


def _multi_binom(beta: MultiIndex, delta: MultiIndex) -> int:
    out = 1
    for b, d in zip(beta, delta):
        out *= comb(b, d)
    return out


def _sub_indices(beta: MultiIndex):
    """All delta with 0 <= delta <= beta componentwise."""
    if not beta:
        yield ()
        return
    head = beta[0]
    for rest in _sub_indices(beta[1:]):
        for d in range(head + 1):
            yield (d,) + rest


def _partial(cache: dict, idx: MultiIndex):
    """d^idx of the function stored at the zero index of ``cache``.

    Each missing partial is one derivative of the partial with the first
    nonzero exponent lowered by one; every result is kept in ``cache``.
    """
    val = cache.get(idx)
    if val is None:
        i = next(k for k, e in enumerate(idx) if e)
        val = _partial(cache, idx[:i] + (idx[i] - 1,) + idx[i + 1:]).derivative(i)
        cache[idx] = val
    return val


class _NormalOrdered:
    """Finite sum  sum_beta c_beta * d^beta  with coefficients to the left.

    The coefficient type (``SuperFn`` or ``ZPoly``) only has to provide
    ``derivative``, ``*``, ``scale``, ``+``, ``-`` and ``is_zero``.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: JordanAlgebra, terms: Mapping | None = None):
        clean = {}
        if terms:
            for idx, c in terms.items():
                if not c.is_zero():
                    clean[idx] = c
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _with(self, terms: dict):
        """An operator over the same algebra with already-pruned terms."""
        op = object.__new__(type(self))
        object.__setattr__(op, "alg", self.alg)
        object.__setattr__(op, "terms", terms)
        return op

    @classmethod
    def zero(cls, alg: JordanAlgebra):
        return cls(alg)

    @classmethod
    def mult(cls, alg: JordanAlgebra, c):
        return cls(alg, {(0,) * alg.n: c})

    # -- linear structure ----------------------------------------------------
    def __add__(self, other):
        _check_alg(self.alg, other.alg)
        out = dict(self.terms)
        for idx, c in other.terms.items():
            acc = out.get(idx)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
        return self._with(out)

    def __neg__(self):
        return self._with({idx: -c for idx, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Scalar | LambdaPoly):
        return type(self)(self.alg, {idx: f.scale(c) for idx, f in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    # -- composition ----------------------------------------------------------
    def compose(self, other):
        """Normal-ordered product self . other (apply ``other`` first).

        Leibniz rule: d^beta . b = sum_{delta <= beta} C(beta, delta)
        (d^delta b) d^(beta - delta).
        """
        _check_alg(self.alg, other.alg)
        out: dict = {}
        for gamma, b in other.terms.items():
            partials = {(0,) * len(gamma): b}
            for beta, a in self.terms.items():
                for delta in sorted(_sub_indices(beta), key=sum):
                    db = _partial(partials, delta)
                    if db.is_zero():
                        continue
                    coeff = _multi_binom(beta, delta)
                    term = a * db
                    if coeff != 1:
                        term = term.scale(Scalar(coeff))
                    idx = tuple(bb - dd + gg for bb, dd, gg in zip(beta, delta, gamma))
                    acc = out.get(idx)
                    s = term if acc is None else acc + term
                    if s.is_zero():
                        out.pop(idx, None)
                    else:
                        out[idx] = s
        return self._with(out)

    def commutator(self, other):
        return self.compose(other) - other.compose(self)

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
    def mult_w(alg: JordanAlgebra) -> "DiffOp":
        return DiffOp.mult(alg, SuperFn.w(alg.ring))

    @staticmethod
    def mult_w_inv(alg: JordanAlgebra) -> "DiffOp":
        return DiffOp.mult(alg, SuperFn.w_inv(alg.ring))

    @staticmethod
    def partial(alg: JordanAlgebra, i: int) -> "DiffOp":
        idx = tuple(1 if j == i else 0 for j in range(alg.n))
        return DiffOp(alg, {idx: SuperFn.one(alg.ring)})

    @staticmethod
    def directional(alg: JordanAlgebra, y: JElem) -> "DiffOp":
        """The derivative along y: sum_i y_i d_i."""
        terms = {}
        for i, c in enumerate(y.coords):
            if c.is_zero():
                continue
            idx = tuple(1 if j == i else 0 for j in range(alg.n))
            terms[idx] = SuperFn.const(alg.ring, c)
        return DiffOp(alg, terms)

    def apply(self, f: SuperFn) -> SuperFn:
        """Apply the operator to a function of the cover ring."""
        out = SuperFn.zero(self.alg.ring)
        partials = {(0,) * self.alg.n: f}
        for beta, c in sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0])):
            out = out + c * _partial(partials, beta)
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
        """
        alg = self.alg
        r = alg.r
        iw = IUNIT ** r
        out = DiffOp.zero(alg)
        for beta, c in self.terms.items():
            flipped = _flip_superfn(c, iw)
            # delta(c d^beta) = d^beta . delta(c): re-normal-order
            dop = DiffOp(alg, {beta: SuperFn.one(alg.ring)})
            out = out + dop.compose(DiffOp.mult(alg, flipped))
        return out

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
        sign_k = Scalar(-1) ** (r * p.k)
        terms = {}
        for mono, coef in p.num.terms.items():
            s = Scalar(-1) ** (sum(mono) % 2)
            terms[mono] = coef.scale(s * sign_k * extra)
        return LocFn(ctx, ZPoly(ctx.n, terms), p.k)

    return SuperFn(ctx, flip_loc(c.ev, ONE), flip_loc(c.od, iw))


# ---------------------------------------------------------------------------
# Polynomial operators on the opposite patch and the Fourier transform
# ---------------------------------------------------------------------------

class PolyOpPlus(_NormalOrdered):
    """Operator with polynomial coefficients in coordinates u1..un."""

    __slots__ = ()

    @staticmethod
    def partial(alg: JordanAlgebra, i: int) -> "PolyOpPlus":
        idx = tuple(1 if j == i else 0 for j in range(alg.n))
        return PolyOpPlus(alg, {idx: ZPoly.one(alg.n)})

    def __str__(self) -> str:
        return polyop_str(self)


def fourier(A: PolyOpPlus) -> DiffOp:
    """Algebraic Fourier transform: the anti-isomorphism onto z-operators.

    Multiplication by the coordinate u_i maps to the derivative along the
    i-th dual basis vector, and d/du_i maps to multiplication by the
    linear form tr(b_i o q).  The image of ``u^alpha d^beta`` is
    (image of d^beta) . (image of u^alpha), which is already normal
    ordered because the first factor is a multiplication operator.
    """
    alg = A.alg
    n = alg.n
    out = DiffOp.zero(alg)
    # linear forms tr(b_i o q) and dual-direction derivatives
    ell = [alg.linear_form(alg.basis_element(i)) for i in range(n)]
    for beta, coeff in A.terms.items():
        # multiplication part: product over i of ell_i^beta_i
        mult_poly = ZPoly.one(n)
        for i, e in enumerate(beta):
            for _ in range(e):
                mult_poly = mult_poly * ell[i]
        for alpha, lam_coeff in coeff.terms.items():
            # derivative part: product over i of (d along dual basis b^i)^alpha_i
            dop = DiffOp.identity(alg)
            for i, e in enumerate(alpha):
                if not e:
                    continue
                di = DiffOp.directional(alg, alg.dual_basis_element(i))
                for _ in range(e):
                    dop = dop.compose(di)
            piece = dop.scale(lam_coeff)
            piece = DiffOp.mult(alg, SuperFn.from_zpoly(alg.ring, mult_poly)).compose(piece)
            out = out + piece
    return out


# ---------------------------------------------------------------------------
# Text format: <SuperFn-term> * d1^e1*...*dn^en
# ---------------------------------------------------------------------------

def polyop_str(A: PolyOpPlus) -> str:
    """Text form of a u-side operator, e.g. ``(1)*u1^2 * d1 + (2*L)*u1``."""
    parts = []
    for beta, c in A.sorted_terms():
        ds = _mono_str("d", beta)
        for mono, lp in c.sorted_terms():
            us = _mono_str("u", mono)
            term = _coeff_groups(lp) + (f"*{us}" if us else "")
            if ds:
                term += f" * {ds}"
            parts.append(term)
    return " + ".join(parts) if parts else "0"


def diffop_str(A: DiffOp) -> str:
    parts = []
    for beta, c in A.sorted_terms():
        ds = _mono_str("d", beta)
        for term in superfn_terms(c):
            parts.append(term + (f" * {ds}" if ds else ""))
    return " + ".join(parts) if parts else "0"


def parse_diffop(text: str, alg: JordanAlgebra) -> DiffOp:
    text = text.strip()
    if text == "0":
        return DiffOp.zero(alg)
    ctx = alg.ring
    out = DiffOp.zero(alg)
    for termtext in _split_terms(text):
        coeff, zmono, odd, k, dmono = parse_term(termtext, ctx.n)
        frac = LocFn(ctx, ZPoly.monomial(ctx.n, zmono, coeff), k)
        fn = SuperFn.from_locfn(LocFn.zero(ctx), frac) if odd else SuperFn.from_locfn(frac)
        out = out + DiffOp(alg, {dmono: fn})
    return out
