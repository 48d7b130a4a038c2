"""The identity suite: each structural claim as an exact operator equation.

Every check here is exact: a check passes iff the residual operator or
polynomial is identically zero (in particular, identically in the formal
twist parameter).  The Jordan product and derivative identities hold at
the generic element; the seed only picks the rational point at which a
failing product identity's residual is shown.

The central computation takes the canonical primitive idempotent y and
the double commutator [pi^y, [pi^y, w]] of the twisted operator of y with
the multiplication operator w, which equals c(L) w t^2 with
t = tr(y o q^{-1}).  It never forms that second-order commutator: with f
the multiplication by d^y w, it confirms two first-order equations,

    (a) [pi^y, w] + w d^y = g(L) f,
    (b) [pi^y, d^y] = (d^y)^2,

and d^y d^y w = k w t^2.  By Jacobi they give [pi^y, [pi^y, w]] =
g(1 + g) d^y d^y w, so c(L) = g(1 + g) k.  Only when one of them fails is
the double commutator formed, for its residual.  c(L) is compared with

    - m^2 (L - l0) (L - l0')

where l0, l0' are the two critical twists 1/2 -+ 1/(4m).

Every check is ``check(J[, twist or y]) -> CheckResult``; what several checks
share, the quadratic, the w-conjugation identity and the first index at
which the bracket with w fails, is found once per algebra.
A check body raises a ``RingError`` (``VerifyError`` here) at the first
equation that fails, and ``report.timed_check`` turns it into the failed
result, its message the witness; no public check raises.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import jordan as _jordan
from . import rep, weyl
from .jordan import JordanAlgebra
from .report import CheckResult, Report, per_algebra, timed_check
from .ring import (
    HALF,
    LAMBDA,
    LP_ONE,
    LambdaPoly,
    LocFn,
    ONE,
    RingError,
    Scalar,
    SuperFn,
    ZPoly,
    _unit,
)
from .weyl import DiffOp, diffop_str
from .rep import GENERIC_TWIST


class VerifyError(RingError):
    """A structural equation of the identity suite does not hold."""


def _require_equal(lhs: DiffOp, rhs: DiffOp, where: str) -> None:
    """Raise VerifyError, ``where`` and the printed residual lhs - rhs,
    unless the two operators are equal."""
    if lhs != rhs:
        raise VerifyError(f"{where}: {diffop_str(lhs - rhs)}")


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def w_bracket_sides(J: JordanAlgebra, i: int) -> tuple[DiffOp, DiffOp]:
    """Both sides of [pi^y, w] = -w d^y - 2m(L - l0) (d^y w) for y = b_i,
    d^y w by the trace formula."""
    lam0, _ = rep.critical_pair(J)
    y, W = J.basis_element(i), DiffOp.mult_w(J)
    first = W.compose(DiffOp.directional(J, y)).scale(Scalar(-1))
    cof = J.tr_v_qinv(y).scale(HALF)  # (d^y w)/w
    dyw = DiffOp.mult(J, SuperFn.from_locfn(LocFn.zero(J.ring), cof))
    shift = LAMBDA - LambdaPoly.from_rational(lam0)
    return rep.pi_minus(J, y).commutator(W), first + dyw.scale(shift.scale(Scalar(-2 * J.m)))


@per_algebra
def _chain_failure(J: JordanAlgebra) -> int:
    """The first i with G_i = [row_i, F] + 2F d_i + (1 - m) d_i F != 0, row_i
    the second-order part a_alpha d^alpha of pi^{b_i}; J.n if none, 0 if F = 0.

    By d_k w = (d_k F / 2F) w, 2F/w times the residual of [pi^{b_i}, w] =
    -w d_i - 2m(L - l0)(d_i F / 2F) w is G_i - d_i F/2 - Q/2F, Q = sum
    a_alpha d_a F d_b F (d^alpha = d_a d_b); its d_k coefficients are G_i's,
    and where they vanish, summed against d_k F they give Q = -F d_i F.  So
    the bracket holds at b_i iff the w- and L-free G_i is zero, when F != 0.
    """
    ctx = J.ring
    if ctx.F.is_zero():
        return 0
    lift = lambda p: SuperFn.from_zpoly(ctx, p)
    mult_F, twice_F = DiffOp.mult(J, lift(ctx.F)), lift(ctx.F.scale(Scalar(2)))
    rest = lambda i: DiffOp(J, {_unit(J.n, i): twice_F, (0,) * J.n: lift(ctx.dF(i).scale(Scalar(1 - J.m)))})
    G = lambda i: rep._second_order_row(J, i).commutator(mult_F) + rest(i)
    return next((i for i in range(J.n) if not G(i).is_zero()), J.n)


def check_w_bracket(J: JordanAlgebra) -> CheckResult:
    """Exact first-bracket identity, for every basis direction.

    Its right side, d^y w by the trace formula, differs from the chain
    rule's by m(L - l0)(e_i / F) w at y = b_i, e_i the sqrt-derivative
    residual of the norm calculus; so it holds at b_i iff e_i = 0 and G_i of
    :func:`_chain_failure` is 0, and both sides are formed only where that
    is not known: where e_i != 0 and from the first nonzero G_i on.
    """
    def body():
        first, e = _chain_failure(J), _jordan._sqrt_residuals(J)
        for i in range(J.n):
            if i >= first or not e[i].is_zero():
                _require_equal(*w_bracket_sides(J, i), f"residual at y=b{i+1}")
    return timed_check("w-bracket", body)


def check_idempotent_bracket(J: JordanAlgebra, y=None) -> CheckResult:
    """[pi^y, d^y] = (d^y)^2 at the canonical primitive idempotent."""
    y = y if y is not None else J.idempotent_elem()

    def body():
        J.check_primitive_idempotent(y)
        dy = DiffOp.directional(J, y)
        _require_equal(rep.pi_minus(J, y).commutator(dy), dy.compose(dy), "residual")
    return timed_check("idempotent-bracket", body)


def _odd_multiple(J: JordanAlgebra, op: DiffOp, unit: LocFn) -> tuple[LambdaPoly, DiffOp]:
    """The c(L) of op = c(L) w unit, read off the leading z-monomial of
    ``unit`` (a nonzero constant there), and the operator c(L) w unit.

    op has that form iff it equals the returned operator.
    """
    odd = op.terms.get((0,) * J.n, SuperFn.zero(J.ring)).od
    c = LambdaPoly()
    for zmono, lead in unit.num.sorted_terms()[:1]:  # none when unit is zero
        c = dict(odd.num.sorted_terms()).get(zmono, c).scale(lead.coeffs[0].inv())
    return c, DiffOp.mult(J, SuperFn.from_locfn(LocFn.zero(J.ring), unit.scale(c)))


def double_commutator_quadratic(J: JordanAlgebra, y=None) -> LambdaPoly:
    """The c(L) of [pi^y, [pi^y, w]] = c(L) w t^2, with t = tr(y o q^{-1}).

    The second commutator is not formed.  With f = [d^y, w] the
    multiplication by d^y w, two first-order equations are checked exactly,

        (a) [pi^y, w] + w d^y = g(L) f,
        (b) [pi^y, d^y] = (d^y)^2,

    and d^y d^y w = k w t^2, g(L) and k read off the leading z-monomial of
    (d^y w)/w and of t^2.  By [A, BC] = [A, B] C + B [A, C], (a) and (b)
    give [pi^y, w d^y] = g f d^y; by Jacobi, [pi^y, f] = [(d^y)^2, w] +
    [d^y, g f - w d^y] = f d^y + (1 + g) d^y d^y w.  So [pi^y, [pi^y, w]] =
    g [pi^y, f] - g f d^y = g(1 + g) k w t^2 and c = g(1 + g) k; k = -1/4,
    as d^y w = (1/2) w t and d^y t = -t^2 at a primitive idempotent.

    When (a), (b) or the identity fails, the double commutator D is formed
    and confirmed as D = c(L) w t^2, c(L) read off the leading z-monomial
    of t^2; VerifyError carries the residual when that fails too.
    """
    y = y if y is not None else J.idempotent_elem()
    J.check_primitive_idempotent(y)
    p = rep.pi_minus(J, y)
    W = DiffOp.mult_w(J)
    dy = DiffOp.directional(J, y)
    t = J.tr_v_qinv(y)
    sq = t * t
    f = dy.commutator(W)
    bracket = p.commutator(W) + W.compose(dy)
    g, gf = _odd_multiple(J, bracket, f.terms.get((0,) * J.n, SuperFn.zero(J.ring)).od)
    if bracket == gf and p.commutator(dy) == dy.compose(dy):
        dydyw = dy.commutator(f)
        k, kwt2 = _odd_multiple(J, dydyw, sq)
        if dydyw == kwt2:
            return g * (LP_ONE + g) * k
    D = p.commutator(p.commutator(W))
    quad, rhs = _odd_multiple(J, D, sq)
    _require_equal(D, rhs, "residual")
    return quad


@per_algebra
def _canonical_quadratic(J: JordanAlgebra) -> LambdaPoly:
    """The quadratic at the canonical idempotent, built once per algebra."""
    return double_commutator_quadratic(J)


def check_double_commutator(J: JordanAlgebra) -> CheckResult:
    """The double commutator at the canonical idempotent is
    -m^2 (L - l0) (L - l0') w tr(y o q^{-1})^2."""
    def body():
        lam0, lam0p = rep.critical_pair(J)
        quad = _canonical_quadratic(J)
        m2 = Scalar(J.m * J.m)
        expect = LambdaPoly((
            -m2 * Scalar(lam0) * Scalar(lam0p),
            m2 * Scalar(lam0 + lam0p),
            -m2,
        ))
        if quad != expect:
            raise VerifyError(f"quadratic {quad} differs from -m^2(L-l0)(L-l0')")
    return timed_check("double-commutator", body)


def critical_values(J: JordanAlgebra) -> tuple[Scalar, Scalar]:
    """The two twists extracted from the double commutator quadratic.

    They must agree with 1/2 -+ 1/(4m); a mismatch raises VerifyError.
    """
    roots = _canonical_quadratic(J).quadratic_roots()
    lam0, lam0p = rep.critical_pair(J)
    expect = (Scalar(lam0), Scalar(lam0p))
    if roots != expect:
        raise VerifyError(f"extracted {tuple(map(str, roots))}, closed form {tuple(map(str, expect))}")
    return roots


def check_critical(J: JordanAlgebra) -> CheckResult:
    def body():
        roots = critical_values(J)
        return f"{roots[0]}, {roots[1]}"
    return timed_check("critical-values", body)


def _w_conjugation_witness(J: JordanAlgebra) -> None:
    """w pi_{l0'}^y w^{-1} = pi_{l0}^y for every basis y: as pi_{l0}^y =
    pi_{l0'}^y + d^y, the residual is -R w^{-1}, R = [pi_{l0'}^y, w] +
    d^y . w, and VerifyError carries it at the first y where R != 0.  At
    y = b_i, 2m(l0' - l0) = 1 makes R the residual (w/2F) G_i of
    :func:`_chain_failure`, so R is formed only from the first nonzero G_i on."""
    W, lam0p = DiffOp.mult_w(J), rep.critical_pair(J)[1]
    for i in range(_chain_failure(J), J.n):
        y = J.basis_element(i)
        R = rep.pi_minus(J, y, lam0p).commutator(W) + DiffOp.directional(J, y).compose(W)
        if not R.is_zero():
            raise VerifyError(f"residual at y=b{i+1}: {diffop_str(-R.compose(DiffOp.mult_w_inv(J)))}")


@per_algebra
def _conjugation_witness(J: JordanAlgebra) -> None:
    """:func:`_w_conjugation_witness`, checked once per algebra; a failure
    is remembered and raised again on every later call."""
    return _w_conjugation_witness(J)


def check_w_conjugation(J: JordanAlgebra) -> CheckResult:
    """Conjugation by w carries the upper-twist family to the lower one.

    The minus side, [pi_{l0'}^y, w] = -d^y . w, is checked once per algebra
    and shared with the delta, module and lowest-weight checks.  Like
    :func:`check_w_bracket` it reads G_i of :func:`_chain_failure`, not that
    check.  The plus side needs no check: pi_plus(x) multiplies by
    tr(x o q), commuting with w.
    """
    return timed_check("w-conjugation", lambda: _conjugation_witness(J))


def check_delta_antimap(J: JordanAlgebra) -> CheckResult:
    """The anti-automorphism with z -> -z, w -> i^r w sends the twisted
    family at L to minus the family at 1 - L; composed with conjugation
    by w it fixes the critical family up to sign: delta leaves L alone,
    so beta(pi_{l0}) = -w pi_{1-l0} w^{-1} = -pi_{l0} by the w-conjugation
    identity, whose failure fails this check too.  pi_plus(x) needs no
    check: it multiplies by tr(x o q), linear in z and free of L, so
    delta(pi_plus) = -pi_plus; beta(w) = i^r w is delta's definition on w,
    as w fixes multiplications, and beta^2(w) = (-1)^r w by C-linearity."""
    def body():
        one_minus = LambdaPoly((ONE, -ONE))  # 1 - L
        for i in range(J.n):
            y = J.basis_element(i)
            _require_equal(rep.pi_minus(J, y).delta_map(), -rep.pi_minus(J, y, one_minus), f"residual at b{i+1}")
        _conjugation_witness(J)
    return timed_check("delta-antimap", body)


@per_algebra
def _fourier_link(J: JordanAlgebra) -> None:
    """fourier(-eta^x) = pi^x for every basis generator, at formal twist,
    checked once per algebra; VerifyError carries the first mismatch.  The
    plus side holds by construction: fourier(-eta_plus(b_i)) multiplies by
    ell_i = tr(b_i o q), as pi_plus(b_i) does."""
    for i in range(J.n):
        x = J.basis_element(i)
        _require_equal(weyl.fourier(rep.eta_minus(J, x).scale(Scalar(-1))), rep.pi_minus(J, x),
                       f"minus side residual at b{i+1}")


def check_fourier(J: JordanAlgebra) -> CheckResult:
    """fourier(-eta^x) = pi^x for every basis generator, at formal twist.

    A real cross-check: pi^y is built from {y, b^j, q} and eta^y from
    {p, y, p}, two different Jordan expressions.  The link is formed once
    per algebra and shared with :func:`check_closure`, which works with
    the eta family whenever it holds.
    """
    return timed_check("fourier-consistency", lambda: _fourier_link(J))


def check_closure(J: JordanAlgebra, lam_value: Fraction = GENERIC_TWIST) -> CheckResult:
    """Bracket closure of the generated symmetry at a rational twist.

    With P_a = pi_plus(b_a) and M_b = pi_minus(b_b) at ``lam_value``,
    checked: the minus wing is abelian, the K-span of the [P_a, M_b] has the
    expected dimension, and [K, M_d] lies in span M for every K in it.
    [K, P_c] lies in span P on any structure data: a linear form on the
    z-side, all of which the P_a span by the invertible Gram matrix, and a
    constant field on the u-side, where K has linear coefficients plus a
    constant.  [K, K'] needs no check: for K' = [P_c, M_d], Jacobi gives
    [K, K'] = [[K, P_c], M_d] + [P_c, [K, M_d]], and both terms lie in
    span{[P_i, M_j]}, the K-span by construction.  The plus wing,
    multiplications or constant-coefficient fields, is abelian.

    Route: when the Fourier link of :func:`check_fourier` holds, every
    bracket is taken on the u-side, with eta_plus(b_a) and eta_minus(b_b)
    in place of P_a and M_b.  There they are first-order fields with
    polynomial coefficients, where M_b is second order with ``SuperFn``
    ones, so the brackets are much cheaper.  fourier is a linear
    anti-isomorphism, P_a = fourier(-eta_plus(b_a)) and, substituting the
    twist on both sides of the link, M_b = fourier(-eta_minus(b_b)) at
    ``lam_value`` too; so [P_a, M_b] = -fourier([eta_plus(b_a),
    eta_minus(b_b)]), and the dimensions, the span members and the first
    failing pair or (K, i) correspond one to one, with the same witness.
    When the link fails, the brackets are taken on the z-side.
    """
    def body():
        u_side = check_fourier(J).ok
        plus_of, minus_of = (rep.eta_plus, rep.eta_minus) if u_side else (rep.pi_plus, rep.pi_minus)
        basis = [J.basis_element(i) for i in range(J.n)]
        plus = [plus_of(J, b) for b in basis]
        minus = [minus_of(J, b, lam_value) for b in basis]
        minus_formal = [minus_of(J, b) for b in basis]
        # the minus wing is abelian (exact, formal twist)
        for i in range(J.n):
            for j in range(i + 1, J.n):
                if not minus_formal[i].commutator(minus_formal[j]).is_zero():
                    raise VerifyError(f"[b{i+1}-, b{j+1}-] != 0")
        span = rep.SpanBasis(P.commutator(M) for P in plus for M in minus)
        dim, want = span.dimension, rep.expected_k_dimension(J)
        if dim != want:
            raise VerifyError(f"span dimension {dim}, expected {want}")
        minus_span = rep.SpanBasis(minus)
        for K in span.members:
            for i in range(J.n):
                if not minus_span.contains(K.commutator(minus[i])):
                    raise VerifyError(f"[K, b{i+1}-] leaves the minus wing")
        return f"dimension {dim}"
    return timed_check("closure", body)


def check_h_module(J: JordanAlgebra, generic: Fraction = GENERIC_TWIST) -> CheckResult:
    """Stability of the module C[z] + wC[z] at the lower critical twist.

    (1) w pi_{l0'}^y w^{-1} = pi_{l0}^y for every basis y, hence for every
    y, as pi^y is linear in y.  (2) The coefficients of pi^y at l0 and l0'
    are polynomials free of L on any structure data, so not re-checked:
    the second-order rows are integer forms of q = sum z_i b_i, and the
    twist term is a rational multiple of d^y.  So pi_{l0} maps C[z] into
    the module, and pi_{l0}(wP) = w pi_{l0'}(P) puts wC[z] there too, in
    every degree.  (3) pi_{l0}(1) = 0 (pi^y has no term of order 0) and
    pi_{l0}(w) = w pi_{l0'}(1) = 0.  (4) Criticality: at a generic twist
    the same action produces denominators.  Step (1) is the identity
    shared with :func:`check_w_conjugation`.
    """
    def body():
        _conjugation_witness(J)
        # criticality witness at a generic twist
        ctx = J.ring
        w = SuperFn.w(ctx)
        for i in range(J.n):
            atg = rep.pi_minus(J, J.basis_element(i), generic)
            for mono in ((0,) * J.n, _unit(J.n, 0)):
                h = w * SuperFn.from_zpoly(ctx, ZPoly.monomial(J.n, mono))
                if not rep.act_on_H(atg, h)[1]:
                    return
        raise VerifyError(f"no denominator appeared at generic twist {generic}")
    return timed_check("module-stability", body)


def check_lowest_weight(J: JordanAlgebra) -> CheckResult:
    """w.(norm-derivative op) at l0 and (norm-derivative op).w at l0' are
    annihilated by every minus-side commutator.

    As pi_{l0'}^y = pi_{l0}^y - d^y, the w-conjugation identity gives
    [pi_{l0}^y, w X] = w ([pi_{l0}^y, X] - d^y X) for every operator X.
    Checked: the identity and, for every basis y (hence every y, as pi^y
    is linear in y), [pi_{l0}^y, dF] = d^y dF, whose coefficients are
    polynomials: no w and no power of F.  A failure shows w times the
    residual, [pi_{l0}^y, w dF].  The upper vector follows:
    [pi_{l0'}^y, dF w] = w^{-1} [pi_{l0}^y, w dF] w = 0.
    """
    def body():
        _conjugation_witness(J)
        lam0, _ = rep.critical_pair(J)
        dF = rep.norm_derivative_op(J)
        for i in range(J.n):
            y = J.basis_element(i)
            res = rep.pi_minus(J, y, lam0).commutator(dF) - DiffOp.directional(J, y).compose(dF)
            if not res.is_zero():
                raise VerifyError(f"[pi^y, w dF] != 0 at y=b{i+1}: {diffop_str(DiffOp.mult_w(J).compose(res))}")
    return timed_check("lowest-weight", body)


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

# block name -> its checks, each block given (J, seed, lam_value)
_BLOCKS = {
    "jordan": lambda J, seed, lam: _jordan.verify_jordan_calculus(J, random.Random(seed)),
    "brackets": lambda J, seed, lam: [check_w_bracket(J), check_idempotent_bracket(J),
                                      check_double_commutator(J)],
    "critical": lambda J, seed, lam: [check_critical(J)],
    "innw": lambda J, seed, lam: [check_w_conjugation(J)],
    "delta": lambda J, seed, lam: [check_delta_antimap(J)],
    "ft": lambda J, seed, lam: [check_fourier(J)],
    "closure": lambda J, seed, lam: [check_closure(J, lam)],
    "hmodule": lambda J, seed, lam: [check_h_module(J, lam)],
    "lowest": lambda J, seed, lam: [check_lowest_weight(J)],
}

SUITE_ORDER = tuple(_BLOCKS)

SUITE_ALIASES = {name: name for name in SUITE_ORDER} | {
    "jordan-calculus": "jordan",
    "lemmas": "brackets",
    "fourier": "ft",
    "h": "hmodule",
    "lowest-weight": "lowest",
}


def _suite_selection(selection: str) -> list[str]:
    """The named blocks in suite order; every name is checked, ``all`` included."""
    picked = set()
    for raw in selection.split(","):
        name = raw.strip().lower()
        if name == "all":
            picked.update(SUITE_ORDER)
        elif name in SUITE_ALIASES:
            picked.add(SUITE_ALIASES[name])
        else:
            raise ValueError(f"unknown suite {name!r}")
    return [s for s in SUITE_ORDER if s in picked]


def run_suite(J: JordanAlgebra, selection: str = "all", seed: int = 0,
              lam_value: Fraction = GENERIC_TWIST) -> Report:
    """Run the checks of the selected blocks, in the fixed block order."""
    checks = tuple(c for block in _suite_selection(selection)
                   for c in _BLOCKS[block](J, seed, lam_value))
    return Report(algebra=J.selector, suite=selection, checks=checks)
