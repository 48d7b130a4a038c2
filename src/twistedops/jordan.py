"""Concrete simple complex Jordan algebras and their norm calculus.

Three families are provided, each over exact rationals:

* ``sym:r``  -- symmetric r x r matrices under A o B = (AB + BA)/2,
* ``full:r`` -- all r x r matrices under the same product,
* ``spin:p`` -- the rank-2 spin factor C + C^(p-1) with
  (a,u) o (b,v) = (ab + <u,v>, av + bu).

Each algebra carries its unit, trace form, Gram matrix with exact
inverse (defining the dual basis), the norm polynomial F of degree equal
to the rank, and the adjugate map q -> adj(q) satisfying
q o adj(q) = F(q) * e.  The generic element q = sum_i z_i b_i lives in
the polynomial ring of :mod:`twistedops.ring`, and the derivative
identities relating F, w = sqrt(F), traces and triple products can be
verified either symbolically or at random rational points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations

from .report import CheckResult, timed_check
from .ring import (
    LocFn,
    RingContext,
    Scalar,
    SuperFn,
    ZPoly,
    ZERO,
    ONE,
    RingError,
)


class JordanError(RingError):
    """Base class for Jordan-algebra specific failures."""


class NotInvertibleError(JordanError):
    """The norm vanished where an inverse was requested."""


class PrimitiveIdempotentError(JordanError):
    """An element failed the y o y = y, tr(y) = 1 guard."""


class DimensionMismatchError(JordanError):
    """Coordinate vector length does not match the algebra dimension."""


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class JElem:
    """Coordinate vector of length n, over Scalar (points) or ZPoly."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(coords))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("JElem is immutable")

    @staticmethod
    def from_rationals(values) -> "JElem":
        return JElem(tuple(Scalar(Fraction(v)) for v in values))

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, JElem) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __repr__(self) -> str:
        return f"JElem({', '.join(map(str, self.coords))})"


def _entry_mul(a, b):
    """Product of two coordinate entries (Scalar or ZPoly, mixed allowed)."""
    if isinstance(a, ZPoly):
        if isinstance(b, ZPoly):
            return a * b
        return a.scale(b)
    if isinstance(b, ZPoly):
        return b.scale(a)
    return a * b


def _entry_scale(c: Fraction, x):
    s = Scalar(c)
    if isinstance(x, ZPoly):
        return x.scale(s)
    return x * s


# ---------------------------------------------------------------------------
# The algebra container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class JordanAlgebra:
    kind: str                 # "sym" | "full" | "spin"
    selector: str             # e.g. "full:2"
    r: int                    # rank (= degree of F)
    n: int                    # dimension
    m: Fraction               # n / r
    labels: tuple             # basis labels, e.g. ("E11", "E22", "E12+E21")
    prod: tuple               # structure constants c[i][j][k] as Fraction
    unit: tuple               # coordinates of the identity e
    trace_vec: tuple          # tr(b_i)
    gram: tuple               # G[i][j] = tr(b_i o b_j)
    gram_inv: tuple           # exact inverse of the Gram matrix
    normF: ZPoly              # the norm polynomial, F(e) = 1, deg = r
    adjugate: tuple           # coordinates of adj(q) as ZPoly in z
    idempotent: tuple         # canonical primitive idempotent coordinates
    ring: RingContext

    # -- basis helpers ------------------------------------------------------
    def basis_element(self, i: int) -> JElem:
        return JElem(tuple(ONE if j == i else ZERO for j in range(self.n)))

    def dual_basis_element(self, i: int) -> JElem:
        return JElem(tuple(Scalar(self.gram_inv[i][j]) for j in range(self.n)))

    def unit_elem(self) -> JElem:
        return JElem(tuple(Scalar(c) for c in self.unit))

    def idempotent_elem(self) -> JElem:
        return JElem(tuple(Scalar(c) for c in self.idempotent))

    def generic_elem(self) -> JElem:
        return JElem(tuple(ZPoly.coord(self.n, i) for i in range(self.n)))

    def zero_elem(self) -> JElem:
        return JElem((ZERO,) * self.n)

    # -- products -----------------------------------------------------------
    def product(self, a: JElem, b: JElem) -> JElem:
        if len(a) != self.n or len(b) != self.n:
            raise DimensionMismatchError(f"expected {self.n} coordinates")
        out = [None] * self.n
        for i, ai in enumerate(a.coords):
            if ai.is_zero():
                continue
            row = self.prod[i]
            for j, bj in enumerate(b.coords):
                if bj.is_zero():
                    continue
                ab = _entry_mul(ai, bj)
                for k, c in enumerate(row[j]):
                    if not c:
                        continue
                    term = _entry_scale(c, ab)
                    out[k] = term if out[k] is None else out[k] + term
        zero = self._zero_like(a, b)
        return JElem(tuple(zero if x is None else x for x in out))

    def _zero_like(self, *elems: JElem):
        for e in elems:
            for c in e.coords:
                if isinstance(c, ZPoly):
                    return ZPoly.zero(self.n)
        return ZERO

    def triple(self, a: JElem, b: JElem, c: JElem) -> JElem:
        """Triple product {a,b,c} = (a o b) o c + a o (b o c) - (a o c) o b.

        Outer slots a, c are symmetric; for matrix kinds this is
        (abc + cba)/2 in ordinary matrix notation.
        """
        ab_c = self.product(self.product(a, b), c)
        a_bc = self.product(a, self.product(b, c))
        ac_b = self.product(self.product(a, c), b)
        return JElem(
            tuple(
                x + y + _entry_scale(Fraction(-1), z)
                for x, y, z in zip(ab_c.coords, a_bc.coords, ac_b.coords)
            )
        )

    def trace(self, a: JElem):
        out = None
        for ti, ai in zip(self.trace_vec, a.coords):
            if not ti or ai.is_zero():
                continue
            term = _entry_scale(ti, ai)
            out = term if out is None else out + term
        if out is None:
            return self._zero_like(a)
        return out

    def trace_form(self, a: JElem, b: JElem):
        return self.trace(self.product(a, b))

    def scale_elem(self, c: Fraction, a: JElem) -> JElem:
        return JElem(tuple(_entry_scale(c, x) for x in a.coords))

    def add_elem(self, a: JElem, b: JElem) -> JElem:
        return JElem(tuple(x + y for x, y in zip(a.coords, b.coords)))

    # -- norm, adjugate, inverse ---------------------------------------------
    def norm_at(self, q: JElem) -> Scalar:
        return self.normF.evaluate(list(q.coords))

    def adjugate_at(self, q: JElem) -> JElem:
        point = list(q.coords)
        return JElem(tuple(p.evaluate(point) for p in self.adjugate))

    def inverse_at(self, q: JElem) -> JElem:
        f = self.norm_at(q)
        if f.is_zero():
            raise NotInvertibleError("norm vanishes at the given point")
        finv = f.inv()
        adj = self.adjugate_at(q)
        return JElem(tuple(x * finv for x in adj.coords))

    def adjugate_elem(self) -> JElem:
        """adj(q) at the generic point, with ZPoly coordinates."""
        return JElem(self.adjugate)

    # -- linear forms ---------------------------------------------------------
    def linear_form(self, x: JElem) -> ZPoly:
        """The function q -> tr(x o q) as a polynomial in z."""
        out = ZPoly.zero(self.n)
        for k in range(self.n):
            c = ZERO
            for i, xi in enumerate(x.coords):
                g = self.gram[i][k]
                if g and not xi.is_zero():
                    c = c + xi * Scalar(g)
            if not c.is_zero():
                out = out + ZPoly.monomial(self.n, tuple(1 if j == k else 0 for j in range(self.n)), c)
        return out

    def tr_v_qinv(self, v: JElem) -> LocFn:
        """The function q -> tr(v o q^{-1}) = tr(v o adj q) / F."""
        num = self.trace(self.product(v, self.adjugate_elem()))
        if isinstance(num, Scalar):
            num = ZPoly.const(self.n, num)
        return LocFn(self.ring, num, 1)

    # -- guards ---------------------------------------------------------------
    def check_primitive_idempotent(self, y: JElem) -> None:
        if len(y) != self.n:
            raise DimensionMismatchError(f"expected {self.n} coordinates")
        if self.product(y, y) != y:
            raise PrimitiveIdempotentError("element is not idempotent")
        if self.trace(y) != ONE:
            raise PrimitiveIdempotentError("idempotent is not primitive (trace != 1)")

    def __repr__(self) -> str:
        return f"JordanAlgebra({self.selector}, n={self.n}, r={self.r}, m={self.m})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _gauss_inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(mat)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _mat_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, k), va in a.items():
        for (k2, j), vb in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v}


def _mat_jordan(a: dict, b: dict) -> dict:
    ab = _mat_mul(a, b)
    ba = _mat_mul(b, a)
    out = dict(ab)
    for k, v in ba.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v / 2 for k, v in out.items() if v}


def _det_zpoly(n_coords: int, entries: list[list[ZPoly]]) -> ZPoly:
    """Determinant by Leibniz expansion over exact polynomial entries."""
    size = len(entries)
    out = ZPoly.zero(n_coords)
    for perm in permutations(range(size)):
        sign = 1
        seen = list(perm)
        for i in range(size):
            for j in range(i + 1, size):
                if seen[i] > seen[j]:
                    sign = -sign
        term = ZPoly.const(n_coords, Scalar(sign))
        for i in range(size):
            term = term * entries[i][perm[i]]
        out = out + term
    return out


def _minor(entries: list[list[ZPoly]], row: int, col: int) -> list[list[ZPoly]]:
    return [
        [e for j, e in enumerate(rw) if j != col]
        for i, rw in enumerate(entries) if i != row
    ]


def _adjugate_entries(n_coords: int, entries: list[list[ZPoly]]) -> list[list[ZPoly]]:
    size = len(entries)
    if size == 1:
        return [[ZPoly.one(n_coords)]]
    adj = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            sub = _det_zpoly(n_coords, _minor(entries, j, i))
            if (i + j) % 2:
                sub = -sub
            adj[i][j] = sub
    return adj


def _finish(kind: str, r: int, n: int, labels, prod, unit, trace_vec,
            normF: ZPoly, adjugate, idempotent) -> JordanAlgebra:
    gram = [
        [sum((prod[i][j][k] * trace_vec[k] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]
    gram_inv = _gauss_inverse([row[:] for row in gram])
    ctx = RingContext(n, normF, r)
    to_t = lambda rows: tuple(tuple(row) for row in rows)
    return JordanAlgebra(
        kind=kind,
        selector=f"{kind}:{r if kind != 'spin' else n}",
        r=r,
        n=n,
        m=Fraction(n, r),
        labels=tuple(labels),
        prod=tuple(tuple(tuple(cell) for cell in row) for row in prod),
        unit=tuple(unit),
        trace_vec=tuple(trace_vec),
        gram=to_t(gram),
        gram_inv=to_t(gram_inv),
        normF=normF,
        adjugate=tuple(adjugate),
        idempotent=tuple(idempotent),
        ring=ctx,
    )


def make_full(r: int) -> JordanAlgebra:
    """All r x r matrices; basis E_ij (row-major), norm = determinant."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    n = r * r
    index = {(i, j): i * r + j for i in range(r) for j in range(r)}
    labels = [f"E{i+1}{j+1}" for i in range(r) for j in range(r)]
    basis = [{(i, j): Fraction(1)} for i in range(r) for j in range(r)]

    prod = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            mat = _mat_jordan(basis[a], basis[b])
            for (i, j), v in mat.items():
                prod[a][b][index[(i, j)]] = v

    unit = [Fraction(0)] * n
    for i in range(r):
        unit[index[(i, i)]] = Fraction(1)
    trace_vec = [Fraction(1) if i == j else Fraction(0) for i in range(r) for j in range(r)]

    entries = [[ZPoly.coord(n, index[(i, j)]) for j in range(r)] for i in range(r)]
    normF = _det_zpoly(n, entries)
    adj = _adjugate_entries(n, entries)
    adjugate = [adj[i][j] for i in range(r) for j in range(r)]

    idem = [Fraction(0)] * n
    idem[index[(0, 0)]] = Fraction(1)
    return _finish("full", r, n, labels, prod, unit, trace_vec, normF, adjugate, idem)


def make_sym(r: int) -> JordanAlgebra:
    """Symmetric r x r matrices; basis E_ii and E_ij + E_ji for i < j."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    pairs = [(i, i) for i in range(r)] + [(i, j) for i in range(r) for j in range(i + 1, r)]
    n = len(pairs)
    index = {p: k for k, p in enumerate(pairs)}
    labels = [f"E{i+1}{i+1}" if i == j else f"E{i+1}{j+1}+E{j+1}{i+1}" for (i, j) in pairs]

    def matrix_of(k: int) -> dict:
        i, j = pairs[k]
        if i == j:
            return {(i, i): Fraction(1)}
        return {(i, j): Fraction(1), (j, i): Fraction(1)}

    def coords_of(mat: dict) -> list[Fraction]:
        out = [Fraction(0)] * n
        for (i, j), v in mat.items():
            if i <= j:
                out[index[(i, j)]] = v
        return out

    basis = [matrix_of(k) for k in range(n)]
    prod = [[coords_of(_mat_jordan(basis[a], basis[b])) for b in range(n)] for a in range(n)]

    unit = coords_of({(i, i): Fraction(1) for i in range(r)})
    trace_vec = [Fraction(1) if i == j else Fraction(0) for (i, j) in pairs]

    def entry(i: int, j: int) -> ZPoly:
        key = (i, j) if i <= j else (j, i)
        return ZPoly.coord(n, index[key])

    entries = [[entry(i, j) for j in range(r)] for i in range(r)]
    normF = _det_zpoly(n, entries)
    adj = _adjugate_entries(n, entries)
    adjugate = [adj[i][j] for (i, j) in pairs]

    idem = [Fraction(0)] * n
    idem[index[(0, 0)]] = Fraction(1)
    return _finish("sym", r, n, labels, prod, unit, trace_vec, normF, adjugate, idem)


def make_spin(p: int) -> JordanAlgebra:
    """The spin factor C + C^(p-1): rank 2, norm z0^2 - z1^2 - ... ."""
    if p < 2:
        raise ValueError("spin factor needs p >= 2")
    n = p
    labels = ["u0"] + [f"u{i}" for i in range(1, p)]

    prod = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a == 0 and b == 0:
                prod[a][b][0] = Fraction(1)
            elif a == 0:
                prod[a][b][b] = Fraction(1)
            elif b == 0:
                prod[a][b][a] = Fraction(1)
            else:
                if a == b:
                    prod[a][b][0] = Fraction(1)

    unit = [Fraction(1)] + [Fraction(0)] * (p - 1)
    trace_vec = [Fraction(2)] + [Fraction(0)] * (p - 1)

    z = [ZPoly.coord(n, i) for i in range(n)]
    normF = z[0] * z[0]
    for i in range(1, n):
        normF = normF - z[i] * z[i]
    adjugate = [z[0]] + [-z[i] for i in range(1, n)]

    idem = [Fraction(1, 2), Fraction(1, 2)] + [Fraction(0)] * (p - 2)
    return _finish("spin", 2, n, labels, prod, unit, trace_vec, normF, adjugate, idem)


def from_selector(selector: str) -> JordanAlgebra:
    """Build an algebra from a ``kind:size`` selector string."""
    try:
        kind, _, size = selector.partition(":")
        value = int(size)
    except ValueError as exc:
        raise ValueError(f"bad algebra selector {selector!r}") from exc
    if kind == "sym":
        return make_sym(value)
    if kind == "full":
        return make_full(value)
    if kind == "spin":
        return make_spin(value)
    raise ValueError(f"unknown algebra kind {kind!r}")


# ---------------------------------------------------------------------------
# Structure validation and the derivative-identity suite
# ---------------------------------------------------------------------------

def validate_structure(J: JordanAlgebra) -> list[CheckResult]:
    """Exact checks of the defining structure data."""
    def commutative():
        for i in range(J.n):
            for j in range(i + 1, J.n):
                if J.prod[i][j] != J.prod[j][i]:
                    return False, f"b{i+1} o b{j+1} != b{j+1} o b{i+1}"
        return True, None

    def unit_law():
        e = J.unit_elem()
        for i in range(J.n):
            b = J.basis_element(i)
            if J.product(e, b) != b:
                return False, f"e o {J.labels[i]} != {J.labels[i]}"
        return True, None

    def unit_trace():
        t = J.trace(J.unit_elem())
        ok = t == Scalar(J.r)
        return ok, None if ok else f"tr(e) = {t}, expected {J.r}"

    def norm_at_unit():
        v = J.normF.evaluate([Scalar(c) for c in J.unit])
        ok = v == ONE
        return ok, None if ok else f"F(e) = {v}"

    def adjugate_identity():
        q = J.generic_elem()
        lhs = J.product(q, J.adjugate_elem())
        for k in range(J.n):
            want = J.normF.scale(Scalar(J.unit[k])) if J.unit[k] else ZPoly.zero(J.n)
            if lhs.coords[k] != want:
                return False, f"(q o adj q) coordinate {k+1} != F * e"
        return True, None

    def ratio():
        ok = Fraction(J.n, J.r) == J.m
        return ok, None if ok else f"n/r = {Fraction(J.n, J.r)} != m = {J.m}"

    def completeness():
        acc = J.zero_elem()
        for i in range(J.n):
            acc = J.add_elem(acc, J.product(J.basis_element(i), J.dual_basis_element(i)))
        ok = acc == J.scale_elem(J.m, J.unit_elem())
        return ok, None if ok else f"sum b_i o b^i = {acc}, expected m*e"

    def trace_normalization():
        # Tr(L_x) = m * tr(x) for every basis x
        for i in range(J.n):
            total = Fraction(0)
            for j in range(J.n):
                total += J.prod[i][j][j]
            if total != J.m * J.trace_vec[i]:
                return False, f"Tr(L_{J.labels[i]}) = {total} != m*tr"
        return True, None

    return [timed_check(name, fn) for name, fn in (
        ("product-commutative", commutative),
        ("unit-law", unit_law),
        ("unit-trace", unit_trace),
        ("norm-normalized", norm_at_unit),
        ("adjugate-identity", adjugate_identity),
        ("dimension-ratio", ratio),
        ("dual-basis-completeness", completeness),
        ("trace-normalization", trace_normalization),
    )]


def random_point(J: JordanAlgebra, rng: random.Random, invertible: bool = True) -> JElem:
    """A random rational point, resampled until the norm is nonzero."""
    while True:
        q = JElem(tuple(Scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 3))) for _ in range(J.n)))
        if not invertible or not J.norm_at(q).is_zero():
            return q


def point_identities(J: JordanAlgebra, rng: random.Random, count: int = 20) -> list[CheckResult]:
    """Spot checks of product identities at random rational points."""
    def power_associativity():
        for _ in range(count):
            a = random_point(J, rng, invertible=False)
            b = random_point(J, rng, invertible=False)
            a2 = J.product(a, a)
            lhs = J.product(a2, J.product(a, b))
            rhs = J.product(a, J.product(a2, b))
            if lhs != rhs:
                return False, f"a^2 o (a o b) != a o (a^2 o b) at a={a}, b={b}"
        return True, None

    def unit_product():
        e = J.unit_elem()
        for _ in range(count):
            x = random_point(J, rng, invertible=False)
            if J.product(e, x) != x:
                return False, f"e o x != x at x={x}"
        return True, None

    def projection_at_idempotent():
        y = J.idempotent_elem()
        for i in range(J.n):
            x = J.basis_element(i)
            lhs = J.triple(y, x, y)
            t = J.trace_form(x, y)
            rhs = JElem(tuple(c * t for c in y.coords))
            if lhs != rhs:
                return False, f"{{y,{J.labels[i]},y}} != tr(x o y) y"
        return True, None

    def inverse_triple():
        for _ in range(count):
            b = random_point(J, rng)
            a = random_point(J, rng, invertible=False)
            binv = J.inverse_at(b)
            if J.triple(a, b, binv) != a:
                return False, f"{{a,b,b^-1}} != a at a={a}, b={b}"
        return True, None

    def shift_identity():
        for _ in range(count):
            q = random_point(J, rng)
            qinv = J.inverse_at(q)
            for i in range(J.n):
                v = J.basis_element(i)
                lhs = J.triple(J.triple(qinv, v, qinv), q, v)
                rhs = J.product(qinv, J.product(v, v))
                if lhs != rhs:
                    return False, f"shift identity fails at q={q}, v={J.labels[i]}"
        return True, None

    def fundamental_identity():
        for _ in range(count):
            a = random_point(J, rng, invertible=False)
            b = random_point(J, rng, invertible=False)
            c = random_point(J, rng, invertible=False)
            lhs = J.triple(a, J.triple(b, a, c), a)
            rhs = J.triple(J.triple(a, b, a), c, a)
            if lhs != rhs:
                return False, f"{{a,{{b,a,c}},a}} != {{{{a,b,a}},c,a}} at a={a}"
        return True, None

    return [timed_check(name, fn) for name, fn in (
        ("power-associativity", power_associativity),
        ("unit-product-points", unit_product),
        ("idempotent-projection", projection_at_idempotent),
        ("inverse-triple", inverse_triple),
        ("triple-shift", shift_identity),
        ("triple-fundamental", fundamental_identity),
    )]


def derivative_identities(J: JordanAlgebra, mode: str = "symbolic",
                          rng: random.Random | None = None, count: int = 20) -> list[CheckResult]:
    """The four derivative identities tying F, w, traces and triples.

    In ``symbolic`` mode each identity is established exactly in the
    localized ring, for every pair of basis directions.  In ``points``
    mode the same identities are evaluated at ``count`` random invertible
    rational points (used for the largest algebras).
    """
    if mode == "symbolic":
        return _derivative_identities_symbolic(J)
    if mode == "points":
        return _derivative_identities_points(J, rng or random.Random(0), count)
    raise ValueError(f"unknown mode {mode!r}")


def _derivative_identities_symbolic(J: JordanAlgebra) -> list[CheckResult]:
    ctx = J.ring
    adj = J.adjugate_elem()
    tr_qinv = [J.tr_v_qinv(J.basis_element(i)) for i in range(J.n)]
    wfn = SuperFn.w(ctx)

    @cache
    def sandwich(i: int) -> JElem:
        return J.triple(adj, J.basis_element(i), adj)

    @cache
    def tr_triple(i: int, j: int) -> ZPoly:
        """tr(b_j o {adj q, b_i, adj q}) = F^2 tr(b_j o {q^-1, b_i, q^-1})."""
        return J.trace(J.product(J.basis_element(j), sandwich(i)))

    def norm_derivative():
        # d_i F = tr(b_i o adj q), as polynomials
        for i in range(J.n):
            if ctx.dF(i) != J.trace(J.product(J.basis_element(i), adj)):
                return False, f"dF/dz{i+1} != tr(b{i+1} o adj q)"
        return True, None

    def sqrt_derivative():
        # d_i w = (1/2) tr(b_i o q^-1) w, as SuperFn
        for i in range(J.n):
            rhs = SuperFn.from_locfn(LocFn.zero(ctx), tr_qinv[i].scale(Scalar(Fraction(1, 2))))
            if wfn.derivative(i) != rhs:
                return False, f"d_{i+1} w != (1/2) tr(b{i+1} q^-1) w"
        return True, None

    def inverse_derivative():
        # d_i tr(b_j o q^-1) = -tr(b_j o {q^-1, b_i, q^-1})
        for i in range(J.n):
            for j in range(J.n):
                if tr_qinv[j].derivative(i) != -LocFn(ctx, tr_triple(i, j), 2):
                    return False, f"d_{i+1} tr(b{j+1} q^-1) mismatch"
        return True, None

    def sqrt_second_derivative():
        # d_i d_j w = [ (1/4) tr(b_i q^-1) tr(b_j q^-1) - (1/2) tr(b_j {q^-1,b_i,q^-1}) ] w
        for i in range(J.n):
            for j in range(J.n):
                lhs = wfn.derivative(j).derivative(i)
                rhs_cof = (
                    (tr_qinv[i] * tr_qinv[j]).scale(Scalar(Fraction(1, 4)))
                    - LocFn(ctx, tr_triple(i, j), 2).scale(Scalar(Fraction(1, 2)))
                )
                if lhs != SuperFn.from_locfn(LocFn.zero(ctx), rhs_cof):
                    return False, f"d_{i+1} d_{j+1} w mismatch"
        return True, None

    return [timed_check(name, fn) for name, fn in (
        ("norm-derivative", norm_derivative),
        ("sqrt-derivative", sqrt_derivative),
        ("inverse-derivative", inverse_derivative),
        ("sqrt-second-derivative", sqrt_second_derivative),
    )]


def _derivative_identities_points(J: JordanAlgebra, rng: random.Random, count: int) -> list[CheckResult]:
    ctx = J.ring
    dF = [ctx.dF(i) for i in range(J.n)]
    ddF = [[dF[i].derivative(j) for j in range(J.n)] for i in range(J.n)]
    tr_adj = [
        J.trace(J.product(J.basis_element(i), J.adjugate_elem()))
        for i in range(J.n)
    ]
    d_tr_adj = [[p.derivative(i) for i in range(J.n)] for p in tr_adj]
    half = Scalar(Fraction(1, 2))
    quarter = Scalar(Fraction(1, 4))

    def at_points():
        for _ in range(count):
            q = random_point(J, rng)
            point = list(q.coords)
            f = J.normF.evaluate(point)
            finv = f.inv()
            qinv = J.inverse_at(q)
            tq = [J.trace_form(J.basis_element(i), qinv) for i in range(J.n)]
            for i in range(J.n):
                # norm derivative
                if dF[i].evaluate(point) != f * tq[i]:
                    return False, f"norm-derivative at q={q}, i={i+1}"
                trip = J.triple(qinv, J.basis_element(i), qinv)
                for j in range(J.n):
                    tvt = J.trace_form(J.basis_element(j), trip)
                    # derivative of tr(b_j q^-1)
                    lhs = (d_tr_adj[j][i].evaluate(point) * f
                           - tr_adj[j].evaluate(point) * dF[i].evaluate(point)) * finv * finv
                    if lhs != -tvt:
                        return False, f"inverse-derivative at q={q}, ({i+1},{j+1})"
                    # second derivative cofactor of w
                    lhs2 = half * ddF[i][j].evaluate(point) * finv - quarter * dF[i].evaluate(point) * dF[j].evaluate(point) * finv * finv
                    rhs2 = quarter * tq[i] * tq[j] - half * tvt
                    if lhs2 != rhs2:
                        return False, f"sqrt-second-derivative at q={q}, ({i+1},{j+1})"
        return True, None

    return [timed_check("derivative-identities-at-points", at_points)]


def verify_jordan_calculus(J: JordanAlgebra, mode: str = "symbolic",
                           rng: random.Random | None = None, count: int = 20) -> list[CheckResult]:
    """Full per-algebra identity suite: structure, points, derivatives."""
    rng = rng or random.Random(0)
    results = validate_structure(J)
    results += point_identities(J, rng, count=max(5, count // 2))
    results += derivative_identities(J, mode=mode, rng=rng, count=count)
    return results
