"""The identity suite end to end, including negative controls."""

import ast
import dataclasses
import gc
import inspect
import itertools
import json
import weakref
from fractions import Fraction

import pytest

from twistedops import rep, verify, weyl
from twistedops.jordan import PrimitiveIdempotentError, from_selector
from twistedops.report import per_algebra, validate_report_dict
from twistedops.ring import IUNIT, IrrationalRootError, LambdaPoly, LocFn, Scalar, SuperFn, ZPoly, ONE
from twistedops.weyl import DiffOp, diffop_str

from test_jordan import corrupt_structure

ALGEBRAS = ["full:1", "full:2", "sym:2", "spin:3", "spin:4", "spin:5"]


def sc(x):
    return Scalar(Fraction(x))


def mono_fn(J, mono, coeff=ONE, odd=False, k=0):
    ctx = J.ring
    frac = LocFn(ctx, ZPoly.monomial(ctx.n, mono, coeff), k)
    if odd:
        return SuperFn.from_locfn(LocFn.zero(ctx), frac)
    return SuperFn.from_locfn(frac)


# ---------------------------------------------------------------------------
# First bracket with w
# ---------------------------------------------------------------------------

def test_w_bracket_sides_rank_one(full1):
    lhs, rhs = verify.w_bracket_sides(full1, 0)
    assert lhs == rhs
    # frozen shape: -w d - 2(L - 1/4) (1/2) z^-1 w
    shift = LambdaPoly((sc("-1/4"), ONE)).scale(sc(-2))
    want = DiffOp(full1, {
        (1,): mono_fn(full1, (0,), odd=True).scale(sc(-1)),
        (0,): mono_fn(full1, (0,), odd=True, k=1).scale(shift.scale(sc("1/2"))),
    })
    assert lhs == want


@pytest.mark.parametrize("selector", ALGEBRAS)
def test_w_bracket_all(selector):
    J = from_selector(selector)
    assert verify.check_w_bracket(J).ok


def test_w_bracket_collapses_at_lower_twist(sym2):
    # at the lower critical twist the bracket is exactly -w d^y
    lam0, _ = rep.critical_pair(sym2)
    for i in range(sym2.n):
        lhs, _ = verify.w_bracket_sides(sym2, i)
        got = lhs.subst_lambda(Scalar(lam0))
        dy = DiffOp.directional(sym2, sym2.basis_element(i))
        want = DiffOp.mult_w(sym2).compose(dy).scale(sc(-1))
        assert got == want


# ---------------------------------------------------------------------------
# Bracket against the idempotent direction
# ---------------------------------------------------------------------------

def test_idempotent_bracket_rank_one(full1):
    # [-z d^2 - 2 L d, d] = d^2
    res = verify.check_idempotent_bracket(full1)
    assert res.ok
    d = DiffOp.partial(full1, 0)
    lhs = rep.pi_minus(full1, full1.basis_element(0)).commutator(d)
    assert lhs == d.compose(d)


@pytest.mark.parametrize("selector", ALGEBRAS)
def test_idempotent_bracket_all(selector):
    J = from_selector(selector)
    assert verify.check_idempotent_bracket(J).ok


def test_idempotent_bracket_guard(full2):
    # an element that fails the guard fails the check, with the guard's message
    res = verify.check_idempotent_bracket(full2, full2.basis_element(1))
    assert (res.status, res.witness) == ("fail", "element is not idempotent")
    res = verify.check_idempotent_bracket(full2, full2.unit_elem())
    assert (res.status, res.witness) == ("fail", "idempotent is not primitive (trace != 1)")


# ---------------------------------------------------------------------------
# Double commutator and the critical twists
# ---------------------------------------------------------------------------

def test_double_commutator_rank_one(full1):
    assert verify.check_double_commutator(full1).ok
    quad = verify.double_commutator_quadratic(full1)
    lam = LambdaPoly.lam()
    assert quad == -(lam * lam) + lam + LambdaPoly.from_rational(Fraction(-3, 16))


def test_double_commutator_divides_once(full2, monkeypatch):
    # c(L) is read off one leading coefficient, so nothing but F is divided
    divisors = []
    original = ZPoly.exact_div

    def spy(self, divisor):
        divisors.append(divisor)
        return original(self, divisor)

    monkeypatch.setattr(ZPoly, "exact_div", spy)
    quad = verify.double_commutator_quadratic(full2)
    assert quad.degree == 2
    assert divisors and all(d == full2.ring.F for d in divisors)


def test_double_commutator_vanishes_at_critical(spin3):
    lam0, lam0p = rep.critical_pair(spin3)
    y = spin3.idempotent_elem()
    W = DiffOp.mult_w(spin3)
    for value in (lam0, lam0p):
        p = rep.pi_minus(spin3, y, value)
        assert p.commutator(p.commutator(W)).is_zero()


@pytest.mark.parametrize("selector,expected", [
    ("full:1", ("1/4", "3/4")),
    ("sym:2", ("1/3", "2/3")),
    ("full:2", ("3/8", "5/8")),
    ("spin:3", ("1/3", "2/3")),
    ("spin:4", ("3/8", "5/8")),
    ("spin:5", ("2/5", "3/5")),
])
def test_critical_values(selector, expected):
    J = from_selector(selector)
    lo, hi = verify.critical_values(J)
    assert (str(lo), str(hi)) == expected
    lam0, lam0p = rep.critical_pair(J)
    assert (lo, hi) == (Scalar(lam0), Scalar(lam0p))


@pytest.mark.parametrize("selector", [
    "sym:1", "sym:3", "full:3", "spin:2", "spin:6",
])
def test_critical_values_every_builtin(selector):
    # the remaining built-ins beyond the core list, including the
    # reducible-norm spin:2 case
    J = from_selector(selector)
    lo, hi = verify.critical_values(J)
    lam0, lam0p = rep.critical_pair(J)
    assert (lo, hi) == (Scalar(lam0), Scalar(lam0p))


def is_z_free_multiple(J, op, y) -> bool:
    """Reference: op is c(L) w tr(y o q^{-1})^2 with c free of z, by division."""
    sq = J.tr_v_qinv(y) * J.tr_v_qinv(y)
    if set(op.terms) - {(0,) * J.n}:
        return False
    coeff = op.terms.get((0,) * J.n)
    if coeff is None:
        return True
    if not coeff.ev.is_zero() or coeff.od.k != sq.k:
        return False
    q = coeff.od.num.exact_div(sq.num)
    return q is not None and not any(any(z) for z, _ in q.sorted_terms())


DOUBLE_COMMUTATOR_DEFECTS = {
    "a derivative term": lambda J: DiffOp.partial(J, 0).compose(DiffOp.partial(J, 0)),
    "an even part": DiffOp.mult_w,
    "a z-dependent odd part": lambda J: DiffOp.mult(
        J, SuperFn.from_zpoly(J.ring, ZPoly.coord(J.n, 0))),
}


@pytest.mark.parametrize("defect", DOUBLE_COMMUTATOR_DEFECTS)
def test_double_commutator_fails_with_its_residual(monkeypatch, capsys, defect):
    # each shape the equation can fail in gives the same failure: a
    # VerifyError whose message is the residual, a witness in both checks
    # and an error line from the critical command
    from twistedops import cli
    from twistedops.weyl import parse_diffop
    original = rep.pi_minus
    extra = DOUBLE_COMMUTATOR_DEFECTS[defect]
    monkeypatch.setattr(rep, "pi_minus", lambda J, y, lam=None: original(J, y, lam) + extra(J))
    J = from_selector("full:1")  # a fresh algebra, so nothing is memoised for it
    y = J.idempotent_elem()
    p = rep.pi_minus(J, y)
    D = p.commutator(p.commutator(DiffOp.mult_w(J)))
    order0 = D.terms.get((0,))
    assert {
        "a derivative term": any(sum(beta) for beta in D.terms),
        "an even part": set(D.terms) == {(0,)} and not order0.ev.is_zero(),
        "a z-dependent odd part": set(D.terms) == {(0,)} and order0.ev.is_zero(),
    }[defect] and not is_z_free_multiple(J, D, y)
    with pytest.raises(verify.VerifyError) as info:
        verify.double_commutator_quadratic(J)
    message = str(info.value)
    assert message.startswith("residual: ")
    residual = parse_diffop(message[len("residual: "):], J)
    assert not residual.is_zero() and is_z_free_multiple(J, D - residual, y)
    for res in (verify.check_double_commutator(J), verify.check_critical(J)):
        assert (res.status, res.witness) == ("fail", message)
    assert cli.main(["critical", "--algebra", "full:1"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_double_commutator_guard(full2):
    with pytest.raises(PrimitiveIdempotentError):
        verify.double_commutator_quadratic(full2, full2.basis_element(1))


def direct_double_commutator_quadratic(J, y=None):
    """Reference: form [pi^y, [pi^y, w]] and confirm it is c(L) w t^2, c(L)
    read off the leading z-monomial of t^2, t = tr(y o q^{-1})."""
    y = y if y is not None else J.idempotent_elem()
    J.check_primitive_idempotent(y)
    p = rep.pi_minus(J, y)
    D = p.commutator(p.commutator(DiffOp.mult_w(J)))
    factor = J.tr_v_qinv(y)
    sq = factor * factor
    odd = D.terms.get((0,) * J.n, SuperFn.zero(J.ring)).od
    quad = LambdaPoly()
    for zmono, lead in sq.num.sorted_terms()[:1]:
        quad = dict(odd.num.sorted_terms()).get(zmono, quad).scale(lead.coeffs[0].inv())
    rhs = DiffOp.mult(J, SuperFn.from_locfn(LocFn.zero(J.ring), sq.scale(quad)))
    if D != rhs:
        raise verify.VerifyError(f"residual: {diffop_str(D - rhs)}")
    return quad


def quadratic_or_error(route, J):
    try:
        return "quadratic", route(J)
    except verify.VerifyError as exc:
        return "error", str(exc)


DERIVED_ROUTE_ALGEBRAS = ["sym:2", "sym:3", "sym:4", "full:2", "full:3", "full:4",
                          "spin:3", "spin:4", "spin:6"]
VARIANTS = {
    "algebra": lambda J: J,
    "m+1": lambda J: dataclasses.replace(J, m=J.m + 1),
    "corrupt": corrupt_structure,
    "corrupt-noncommutative": lambda J: corrupt_structure(J, commutative=False),
}


@pytest.mark.parametrize("selector,variant", [
    # a corrupted rank-4 copy forms the double commutator in 5-15 s on each
    # route, so rank 4 is compared on the algebra and its m+1 copy
    (s, v) for s in DERIVED_ROUTE_ALGEBRAS for v in VARIANTS
    if not (s.endswith(":4") and v.startswith("corrupt"))])
def test_derived_double_commutator_agrees_with_the_direct_route(selector, variant):
    # the same quadratic, or the same residual text, as forming the double commutator
    J = VARIANTS[variant](from_selector(selector))
    derived = quadratic_or_error(verify.double_commutator_quadratic, J)
    assert derived == quadratic_or_error(direct_double_commutator_quadratic, J)
    assert derived[0] == ("error" if variant.startswith("corrupt") else "quadratic")


def test_a_passing_quadratic_brackets_pi_only_with_d_y_and_functions(monkeypatch):
    # [pi^y, X] is formed for X = w and d^y only, never for a first-order
    # X other than d^y, so no second-order double commutator is built
    J = from_selector("full:3")
    p = rep.pi_minus(J, J.idempotent_elem())
    dy = DiffOp.directional(J, J.idempotent_elem())
    want = direct_double_commutator_quadratic(J)
    brackets = []
    original = DiffOp.commutator

    def spy(self, other):
        brackets.append((self, other))
        return original(self, other)

    monkeypatch.setattr(DiffOp, "commutator", spy)
    assert verify.double_commutator_quadratic(J) == want
    with_p = [right for left, right in brackets if left == p]
    assert len(with_p) == 2 and with_p[0] == DiffOp.mult_w(J) and with_p[1] == dy
    for left, right in brackets:
        assert left == p or (left == dy and right.order() == 0)


def test_brackets_and_critical_take_each_partial_of_w_once(monkeypatch):
    # d^y w and d^y d^y w are read off w's per-algebra table as [d^y, w]
    # and [d^y, [d^y, w]], so no first partial of w is formed twice
    J = from_selector("full:3")
    w = SuperFn.w(J.ring)
    taken = []
    original = SuperFn.derivative

    def spy(self, i):
        if self == w:
            taken.append(i)
        return original(self, i)

    monkeypatch.setattr(SuperFn, "derivative", spy)
    assert verify.run_suite(J, "brackets,critical").overall == "pass"
    assert taken and len(taken) == len(set(taken))


def test_perturbed_ratio_shifts_roots(sym2):
    # with the dimension ratio deliberately wrong, the extracted roots
    # no longer match the closed form
    bad = dataclasses.replace(sym2, m=sym2.m + 1)
    res = verify.check_critical(bad)
    assert not res.ok
    assert res.witness


# ---------------------------------------------------------------------------
# Conjugation by w and the sign anti-automorphism
# ---------------------------------------------------------------------------

def test_conjugation_carries_upper_to_lower_rank_one(full1):
    lam0, lam0p = rep.critical_pair(full1)
    upper = rep.pi_minus(full1, full1.basis_element(0), lam0p)
    lower = rep.pi_minus(full1, full1.basis_element(0), lam0)
    assert upper.conjugate_by_w() == lower


@pytest.mark.parametrize("selector", ALGEBRAS)
def test_conjugation_all(selector):
    assert verify.check_w_conjugation(from_selector(selector)).ok


@pytest.mark.parametrize("selector", ALGEBRAS)
def test_delta_antimap_all(selector):
    assert verify.check_delta_antimap(from_selector(selector)).ok


def test_beta_square_even_rank(full2):
    # r even: the composed anti-automorphism squares to the identity on w
    W = DiffOp.mult_w(full2)
    beta = lambda A: A.delta_map().conjugate_by_w()
    assert beta(beta(W)) == W


def test_beta_square_odd_rank(full1):
    W = DiffOp.mult_w(full1)
    beta = lambda A: A.delta_map().conjugate_by_w()
    assert beta(beta(W)) == W.scale(sc(-1))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4"])
def test_the_facts_the_suite_takes_by_construction_hold_on_any_structure(selector, variant):
    # the plus side of the w-conjugation, delta, Fourier and closure checks,
    # beta on w and the d^y d^y w of the double commutator are not formed by
    # the suite, nor the coefficients of pi^y at the critical twists checked;
    # they hold on clean, m+1 and corrupted structure data alike
    J = VARIANTS[variant](from_selector(selector))
    basis = [J.basis_element(i) for i in range(J.n)]
    plus = [rep.pi_plus(J, b) for b in basis]
    eta_plus = [rep.eta_plus(J, b) for b in basis]
    for P, E in zip(plus, eta_plus):
        assert P.conjugate_by_w() == P
        assert P.delta_map() == -P
        assert weyl.fourier(E.scale(sc(-1))) == P
    for i, j in itertools.combinations(range(J.n), 2):
        assert plus[i].commutator(plus[j]).is_zero()
        assert eta_plus[i].commutator(eta_plus[j]).is_zero()
    W = DiffOp.mult_w(J)
    beta = lambda A: A.delta_map().conjugate_by_w()
    assert beta(W) == W.scale(IUNIT ** J.r)
    assert beta(beta(W)) == W.scale(sc(-1) ** J.r)
    if not variant.startswith("corrupt"):
        y = J.idempotent_elem()
        dy = DiffOp.directional(J, y)
        t = J.tr_v_qinv(y)
        want = SuperFn.from_locfn(LocFn.zero(J.ring), (t * t).scale(sc("-1/4")))
        assert dy.apply(dy.apply(SuperFn.w(J.ring))) == want
    # module-stability: pi^y at either critical twist has polynomial,
    # L-free coefficients
    for b in basis:
        for lam in rep.critical_pair(J):
            op = rep.pi_minus(J, b, lam)
            assert all(c.is_polynomial() for c in op.terms.values())
            assert op.subst_lambda(LambdaPoly()) == op
    # [K, P_c] lies in span P on both routes of the closure check
    for plus_of, minus_of in ((rep.pi_plus, rep.pi_minus), (rep.eta_plus, rep.eta_minus)):
        P = [plus_of(J, b) for b in basis]
        M = [minus_of(J, b, rep.GENERIC_TWIST) for b in basis]
        plus_span = rep.SpanBasis(P)
        for K in (Pa.commutator(Mb) for Pa in P for Mb in M):
            assert all(plus_span.contains(K.commutator(Pc)) for Pc in P)


def direct_w_conjugation_witness(J):
    """Reference: w pi_{l0'}^y w^{-1} formed by composing with w and w^{-1}
    and compared with pi_{l0}^y; the residual at the first failing basis y,
    or None."""
    lam0, lam0p = rep.critical_pair(J)
    for i in range(J.n):
        y = J.basis_element(i)
        upper, lower = rep.pi_minus(J, y, lam0p).conjugate_by_w(), rep.pi_minus(J, y, lam0)
        if upper != lower:
            return f"residual at y=b{i+1}: {diffop_str(upper - lower)}"
    return None


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4", "sym:3", "spin:5"])
def test_w_conjugation_witness_agrees_with_the_direct_conjugation(selector, variant):
    # R = [pi_{l0'}^y, w] + d^y w is zero exactly when the conjugation holds,
    # and -R w^{-1} prints as the direct residual
    J = VARIANTS[variant](from_selector(selector))
    try:
        verify._w_conjugation_witness(J)
        got = None
    except verify.VerifyError as exc:
        got = str(exc)
    assert got == direct_w_conjugation_witness(J)
    assert (got is None) == (variant == "algebra")


# ---------------------------------------------------------------------------
# Remaining blocks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("selector", ALGEBRAS)
def test_fourier_block(selector):
    assert verify.check_fourier(from_selector(selector)).ok


def test_fourier_is_called_through_the_weyl_module(monkeypatch):
    # a wrapper put on twistedops.weyl.fourier sees every call
    from twistedops import weyl

    calls = []
    original = weyl.fourier
    monkeypatch.setattr(weyl, "fourier", lambda op: calls.append(op) or original(op))
    J = from_selector("full:2")
    assert verify.check_fourier(J).ok
    assert len(calls) == J.n
    rep.norm_derivative_op(J)
    assert len(calls) == J.n + 1


@pytest.mark.parametrize("selector", ALGEBRAS)
def test_closure_block(selector):
    assert verify.check_closure(from_selector(selector)).ok


def kk_loop_closed(J, lam) -> bool:
    """Reference: the [K, K'] loop that check_closure leaves to Jacobi."""
    ops, _ = rep.k_span(J, lam)
    k_basis = rep.SpanBasis()
    for op in ops:
        k_basis.add(op)
    return all(k_basis.contains(K.commutator(K2)) for K in ops for K2 in ops)


@pytest.mark.parametrize("selector", ALGEBRAS)
def test_closure_agrees_with_the_kk_loop(selector):
    J = from_selector(selector)
    for lam in (rep.GENERIC_TWIST, *rep.critical_pair(J)):
        ok = verify.check_closure(J, lam).ok
        with_loop = ok and kk_loop_closed(J, lam)
        assert with_loop == ok, (selector, lam)


def z_side_closure(J, lam_value=rep.GENERIC_TWIST) -> verify.CheckResult:
    """Reference: the closure body that brackets the z-side operators
    pi_plus and pi_minus, as it was before the u-side route; the plus wing,
    multiplications, is abelian by construction."""
    def body():
        plus = [rep.pi_plus(J, J.basis_element(i)) for i in range(J.n)]
        minus = [rep.pi_minus(J, J.basis_element(i), lam_value) for i in range(J.n)]
        minus_formal = [rep.pi_minus(J, J.basis_element(i)) for i in range(J.n)]
        for i in range(J.n):
            for j in range(i + 1, J.n):
                if not minus_formal[i].commutator(minus_formal[j]).is_zero():
                    raise verify.VerifyError(f"[b{i+1}-, b{j+1}-] != 0")
        ops, dim = rep.k_span(J, lam_value)
        want = rep.expected_k_dimension(J)
        if dim != want:
            raise verify.VerifyError(f"span dimension {dim}, expected {want}")
        plus_span, minus_span = rep.SpanBasis(plus), rep.SpanBasis(minus)
        for K in ops:
            for i in range(J.n):
                if not plus_span.contains(K.commutator(plus[i])):
                    raise verify.VerifyError(f"[K, b{i+1}+] leaves the plus wing")
                if not minus_span.contains(K.commutator(minus[i])):
                    raise verify.VerifyError(f"[K, b{i+1}-] leaves the minus wing")
        return f"dimension {dim}"
    return verify.timed_check("closure", body)


def untimed(result: verify.CheckResult) -> tuple:
    return result.name, result.status, result.witness


@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4", "sym:3", "spin:6", "full:3"])
def test_closure_on_the_u_side_matches_the_z_side(monkeypatch, selector):
    # the link holds on a clean algebra, so closure brackets the eta
    # fields and never spans the pi operators; the result is the z-side one
    J = from_selector(selector)
    assert verify.check_fourier(J).ok
    for lam in (rep.GENERIC_TWIST, Fraction(0), Fraction(1, 2), *rep.critical_pair(J)):
        want = untimed(z_side_closure(J, lam))
        k_spans = count_calls(monkeypatch, "k_span", rep)
        etas = count_calls(monkeypatch, "eta_minus", rep)
        assert untimed(verify.check_closure(J, lam)) == want, lam
        assert want[1] == "pass" and not k_spans and etas, lam
        monkeypatch.undo()


def test_the_u_side_route_reports_the_z_side_dimension_failure(monkeypatch):
    for selector, witness in (("sym:3", "span dimension 9, expected 10"),
                              ("full:2", "span dimension 7, expected 8"),
                              ("spin:4", "span dimension 7, expected 8")):
        J = from_selector(selector)
        expected = rep.expected_k_dimension
        monkeypatch.setattr(rep, "expected_k_dimension", lambda J: expected(J) + 1)
        k_spans = count_calls(monkeypatch, "k_span", rep)
        assert untimed(verify.check_closure(J)) == ("closure", "fail", witness)
        assert verify.check_fourier(J).ok and not k_spans
        assert untimed(z_side_closure(J)) == ("closure", "fail", witness)
        monkeypatch.undo()


@pytest.mark.parametrize("selector,commutative", [("sym:2", True), ("sym:2", False), ("spin:2", True),
                                                  ("full:2", True)])
def test_closure_on_a_corrupted_copy_takes_the_z_side(monkeypatch, selector, commutative):
    # the link fails, so closure brackets the pi operators and builds no eta
    # field; the minus wing is not abelian, the z-side witness
    J = corrupt_structure(from_selector(selector), commutative=commutative)
    assert not verify.check_fourier(J).ok
    etas = count_calls(monkeypatch, "eta_minus", rep)
    pis = count_calls(monkeypatch, "pi_minus", rep)
    result = verify.check_closure(J)
    assert etas == [] and len(pis) == 2 * J.n
    assert untimed(result) == untimed(z_side_closure(J)) == ("closure", "fail", "[b1-, b2-] != 0")


@pytest.mark.parametrize("selector", ALGEBRAS)
def test_module_block(selector):
    assert verify.check_h_module(from_selector(selector)).ok


@pytest.mark.parametrize("selector", ALGEBRAS)
def test_lowest_weight_block(selector):
    assert verify.check_lowest_weight(from_selector(selector)).ok


def degree3_sweep_ok(J) -> bool:
    """The monomial route: pi^y at l0 keeps w z^a polynomial for |a| <= 3."""
    lam0, _ = rep.critical_pair(J)
    ctx = J.ring
    w = SuperFn.w(ctx)
    monos = [a for a in itertools.product(range(4), repeat=J.n) if sum(a) <= 3]
    for i in range(J.n):
        at0 = rep.pi_minus(J, J.basis_element(i), lam0)
        for mono in monos:
            h = w * SuperFn.from_zpoly(ctx, ZPoly.monomial(J.n, mono))
            if not rep.act_on_H(at0, h)[1]:
                return False
    return True


def upper_vector_direct_ok(J) -> bool:
    """The direct route: [pi^y at l0', dF w] = 0 for every basis y."""
    _, lam0p = rep.critical_pair(J)
    Tp = rep.semi_invariant_dF_w(J)
    return all(rep.pi_minus(J, J.basis_element(i), lam0p).commutator(Tp).is_zero()
               for i in range(J.n))


def lower_vector_witness(J):
    """The direct route: the first [pi^y at l0, w dF] != 0, printed as
    check_lowest_weight prints it, or None."""
    lam0, _ = rep.critical_pair(J)
    T = rep.semi_invariant_w_dF(J)
    for i in range(J.n):
        c = rep.pi_minus(J, J.basis_element(i), lam0).commutator(T)
        if not c.is_zero():
            return f"[pi^y, w dF] != 0 at y=b{i+1}: {diffop_str(c)}"
    return None


def beta_negates_the_family(J) -> bool:
    """The beta loop: w delta(op) w^{-1} = -op for pi_plus and pi_minus at l0."""
    lam0, _ = rep.critical_pair(J)
    ops = [op for i in range(J.n) for op in (rep.pi_plus(J, J.basis_element(i)),
                                              rep.pi_minus(J, J.basis_element(i), lam0))]
    return all(op.delta_map().conjugate_by_w() == -op for op in ops)


def annihilates_one_and_w(J) -> bool:
    """The apply route: pi^y at l0 sends 1 and w to 0 for every basis y."""
    lam0, _ = rep.critical_pair(J)
    fns = (SuperFn.one(J.ring), SuperFn.w(J.ring))
    return all(rep.pi_minus(J, J.basis_element(i), lam0).apply(f).is_zero()
               for i in range(J.n) for f in fns)


CONTROLS = {
    "algebra": lambda J: J,
    "m+1": lambda J: dataclasses.replace(J, m=J.m + 1),
    "corrupt": corrupt_structure,
    "corrupt-noncommutative": lambda J: corrupt_structure(J, commutative=False),
}


@pytest.mark.parametrize("selector", ALGEBRAS)
@pytest.mark.parametrize("control", CONTROLS)
def test_derived_steps_agree_with_their_direct_routes(selector, control):
    # lowest-weight, delta-antimap and module-stability derive these steps
    # from the w-conjugation identity; each direct route gives the same
    # verdict on the algebra and on controls that break the identity
    J = CONTROLS[control](from_selector(selector))
    want = control == "algebra"
    assert verify.check_lowest_weight(J).ok == (lower_vector_witness(J) is None) == want
    assert verify.check_delta_antimap(J).ok == beta_negates_the_family(J) == want
    assert verify.check_h_module(J).ok == annihilates_one_and_w(J) == want


@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4", "spin:5"])
def test_lowest_weight_witness_is_the_direct_commutator(selector, monkeypatch):
    # with a dF that is not semi-invariant the identity still holds, and
    # [pi^y, w X] = w ([pi^y, X] - d^y X) for every X, so the check prints
    # [pi^y, w dF] term for term
    monkeypatch.setattr(rep, "norm_derivative_op", lambda J: DiffOp.partial(J, 0))
    J = from_selector(selector)
    want = lower_vector_witness(J)
    assert want is not None and want.startswith("[pi^y, w dF] != 0 at y=b")
    assert verify._conjugation_witness(J) is None
    res = verify.check_lowest_weight(J)
    assert (res.status, res.witness) == ("fail", want)


@pytest.mark.parametrize("check", ["check_delta_antimap", "check_h_module", "check_lowest_weight"])
def test_a_failed_conjugation_fails_the_derived_checks(sym2, monkeypatch, check):
    # each check derives its remaining steps from the identity, so a failed
    # identity fails it with the shared witness
    def failed(J):
        raise verify.VerifyError("residual at y=b1: stub")

    monkeypatch.setattr(verify, "_conjugation_witness", failed)
    res = getattr(verify, check)(sym2)
    assert (res.status, res.witness) == ("fail", "residual at y=b1: stub")


@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4"])
@pytest.mark.parametrize("skew", [False, True])
def test_conjugation_certificates_agree_with_direct_routes(selector, skew):
    # the certificates rest on w pi_{l0'} w^{-1} = pi_{l0}; the monomial
    # sweep and the direct upper commutator must give the same verdicts,
    # on the algebra and on a control whose m is off by one
    J = from_selector(selector)
    if skew:
        J = dataclasses.replace(J, m=J.m + 1)
    module = verify.check_h_module(J)
    lowest = verify.check_lowest_weight(J)
    assert module.ok == degree3_sweep_ok(J) == (not skew)
    assert lowest.ok == upper_vector_direct_ok(J) == (not skew)
    if skew:
        assert module.witness.startswith("residual at y=b1: ")
        assert lowest.witness == module.witness


# ---------------------------------------------------------------------------
# Suite runner and report schema
# ---------------------------------------------------------------------------

def test_run_suite_rank_one(full1):
    report = verify.run_suite(full1, "all")
    assert report.overall == "pass"
    assert len(report.checks) >= 10
    data = json.loads(report.to_json())
    assert validate_report_dict(data) == []
    assert data["algebra"] == "full:1"


def _report_with(**changes):
    check = {"name": "closure", "status": "pass", "witness": None, "elapsed_ms": 3}
    data = {"algebra": "sym:2", "suite": "all", "checks": [check], "overall": "pass"}
    for key, value in changes.items():
        (check if key in check else data)[key] = value
    return data


@pytest.mark.parametrize("data, problem", [
    ([], "report must be an object, got list"),
    (None, "report must be an object, got NoneType"),
    (_report_with(checks=[1]), "check keys 1"),
    (_report_with(checks=None), "checks must be a list"),
    (_report_with(checks={"closure": {}}), "checks must be a list"),
    (_report_with(overall="fail"), "overall 'fail' disagrees with the checks"),
    (_report_with(status="fail", witness="residual"), "overall 'pass' disagrees with the checks"),
    (_report_with(elapsed_ms=True), "elapsed_ms must be int"),
])
def test_report_validation_reports_malformed_json_and_never_raises(data, problem):
    assert validate_report_dict(_report_with()) == []
    assert problem in validate_report_dict(data)


def test_run_suite_selection(sym2):
    report = verify.run_suite(sym2, "critical")
    assert [c.name for c in report.checks] == ["critical-values"]
    assert report.overall == "pass"
    report = verify.run_suite(sym2, "lemmas,critical")
    names = [c.name for c in report.checks]
    assert names == ["w-bracket", "idempotent-bracket", "double-commutator", "critical-values"]
    with pytest.raises(ValueError):
        verify.run_suite(sym2, "nonsense")
    canonical = {"jordan": "jordan", "jordan-calculus": "jordan", "brackets": "brackets",
                 "lemmas": "brackets", "critical": "critical", "innw": "innw",
                 "delta": "delta", "ft": "ft", "fourier": "ft", "closure": "closure",
                 "h": "hmodule", "hmodule": "hmodule", "lowest": "lowest",
                 "lowest-weight": "lowest"}
    assert set(verify.SUITE_ALIASES) == set(canonical)
    for name, suite in canonical.items():
        assert verify._suite_selection(name) == [suite], name
        assert verify._suite_selection(name.upper() + ", critical") == \
            [s for s in verify.SUITE_ORDER if s in (suite, "critical")], name


def test_all_inside_a_comma_list_selects_every_block():
    for selection in ("critical,all", "all, lowest", " ALL ,critical", "innw,All,innw"):
        assert verify._suite_selection(selection) == list(verify.SUITE_ORDER), selection
    for selection in ("nonsense,all", "all,nonsense"):
        with pytest.raises(ValueError):
            verify._suite_selection(selection)


def test_every_check_takes_only_the_algebra_and_a_plain_value():
    # check(J[, lam_value | generic | y]) -> CheckResult: no callable and no
    # precomputed intermediate is passed in, and nothing but a CheckResult comes out
    checks = {name: fn for name, fn in vars(verify).items()
              if name.startswith("check_") and inspect.isfunction(fn)}
    assert set(checks) == {
        "check_w_bracket", "check_idempotent_bracket", "check_double_commutator",
        "check_critical", "check_w_conjugation", "check_delta_antimap", "check_fourier",
        "check_closure", "check_h_module", "check_lowest_weight"}
    J = from_selector("full:1")
    for name, fn in checks.items():
        sig = inspect.signature(fn)
        first, *rest = sig.parameters.values()
        assert first.name == "J" and len(rest) <= 1, name
        for p in rest:
            assert p.name in ("lam_value", "generic", "y"), name
            assert p.default is None or isinstance(p.default, Fraction), name
        assert sig.return_annotation == "CheckResult", name
        assert isinstance(fn(J), verify.CheckResult), name
    for name, fn in vars(verify).items():
        if inspect.isfunction(fn) and fn.__module__ == verify.__name__:
            assert not {"conjugation", "quad"} & set(inspect.signature(fn).parameters), name


def count_calls(monkeypatch, name, module=verify):
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("selection", ["brackets,critical", "critical"])
def test_run_suite_builds_the_quadratic_once(monkeypatch, selection):
    # once per algebra: across the suite, the standalone checks and a rerun
    J = from_selector("sym:2")
    calls = count_calls(monkeypatch, "double_commutator_quadratic")
    assert verify.run_suite(J, selection).overall == "pass"
    assert verify.check_double_commutator(J).ok and verify.check_critical(J).ok
    assert verify.critical_values(J) == tuple(map(Scalar, rep.critical_pair(J)))
    assert verify.run_suite(J, "brackets,critical").overall == "pass"
    assert calls == [(J,)]
    # another algebra, even a copy of this one, gets its own
    skew = dataclasses.replace(J, m=J.m + 1)
    assert not verify.check_critical(skew).ok
    assert calls == [(J,), (skew,)]


@pytest.mark.parametrize("selection", ["innw,hmodule,lowest", "innw,delta,hmodule,lowest", "delta",
                                       "hmodule", "lowest"])
def test_run_suite_checks_the_conjugation_once(monkeypatch, selection):
    J = from_selector("sym:2")
    calls = count_calls(monkeypatch, "_w_conjugation_witness")
    assert verify.run_suite(J, selection).overall == "pass"
    for check in (verify.check_w_conjugation, verify.check_delta_antimap, verify.check_h_module,
                  verify.check_lowest_weight):
        assert check(J).ok
    assert verify.run_suite(J, "innw,delta,hmodule,lowest").overall == "pass"
    assert calls == [(J,)]
    skew = dataclasses.replace(J, m=J.m + 1)
    assert not verify.check_h_module(skew).ok and not verify.check_lowest_weight(skew).ok
    assert calls == [(J,), (skew,)]


@pytest.mark.parametrize("selector", ["sym:2", "full:3", "spin:4"])
def test_the_w_bracket_and_the_conjugation_share_each_bracket_with_w(selector, monkeypatch):
    # [pi^{b_i}, w] is formed once per index for both checks; the one more
    # bracket of a second-order operator with w is the double commutator's
    # [pi^y, w] at the idempotent
    J, brackets = from_selector(selector), []
    original = DiffOp.commutator
    monkeypatch.setattr(DiffOp, "commutator", lambda self, other: brackets.append(
        self.order() == 2 and other is DiffOp.mult_w(other.alg)) or original(self, other))
    assert verify.run_suite(J, "brackets,innw").overall == "pass"
    assert sum(brackets) == J.n + 1
    brackets.clear()
    assert verify._w_conjugation_witness(J) is None and not any(brackets)
    # a conjugation check that runs first forms each bracket itself, once
    cold = from_selector(selector)
    assert verify.run_suite(cold, "innw,hmodule,lowest").overall == "pass"
    assert verify._w_conjugation_witness(cold) is None
    assert sum(brackets) == cold.n


def test_a_passing_w_bracket_leaves_no_substitution(monkeypatch):
    # once the formal bracket matches and the sqrt derivative holds, each
    # residual is (e_i / 2F) w = 0 and nothing is substituted or summed;
    # the module path, without the w-bracket, forms each residual with the
    # family at l0' and substitutes no twist either
    calls = []
    original = DiffOp.subst_lambda
    monkeypatch.setattr(DiffOp, "subst_lambda", lambda self, value: calls.append(value) or original(self, value))
    for selector, selection in (("full:3", "brackets,innw"), ("full:3", "hmodule,lowest"),
                                ("spin:6", "hmodule,lowest")):
        J = from_selector(selector)
        assert verify.run_suite(J, selection).overall == "pass"
        assert all(verify._conjugation_residual(J, i).is_zero() for i in range(J.n))
        assert calls == [], (selector, selection)


@pytest.mark.parametrize("selector", ["sym:2", "sym:3", "full:2", "full:3", "spin:3", "spin:4", "spin:6"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_each_kept_conjugation_residual_is_the_summed_one(selector, variant):
    # the residual the w-bracket derives, or the conjugation alone forms at
    # l0' on a cold algebra, equals the formal [pi^y, w] plus d^y . w summed
    # through subst_lambda at l0', on clean and broken data alike
    for checks in ((verify.check_w_bracket, verify.check_w_conjugation), (verify.check_w_conjugation,)):
        J = VARIANTS[variant](from_selector(selector))
        assert [check(J).ok for check in checks] == [variant == "algebra"] * len(checks)
        memo = verify._conjugation_residuals(J)
        assert memo
        if variant == "algebra":
            assert sorted(memo) == list(range(J.n))
        W, lam0p = DiffOp.mult_w(J), Scalar(rep.critical_pair(J)[1])
        for i, R in memo.items():
            y = J.basis_element(i)
            bracket = rep.pi_minus(J, y).commutator(W)
            assert R == bracket.subst_lambda(lam0p) + DiffOp.directional(J, y).compose(W), (checks, i)


@pytest.mark.parametrize("variant", VARIANTS)
def test_the_shared_residuals_give_the_witnesses_of_separate_brackets(variant):
    # each check alone on a cold algebra, from its own bracket, against the
    # two checks sharing one bracket per index
    build = lambda: VARIANTS[variant](from_selector("full:2"))
    shared = build()
    together = [(c.status, c.witness) for c in verify.run_suite(shared, "brackets,innw").checks]
    alone = [(c.status, c.witness) for c in (verify.check_w_bracket(build()), verify.check_w_conjugation(build()))]
    assert [together[0], together[-1]] == alone
    # each kept residual is the bracket formed at l0' plus d^y . w
    W, lam0p = DiffOp.mult_w(shared), rep.critical_pair(shared)[1]
    for i in range(shared.n):
        y = shared.basis_element(i)
        R = rep.pi_minus(shared, y, lam0p).commutator(W) + DiffOp.directional(shared, y).compose(W)
        assert verify._conjugation_residual(shared, i) == R


def test_the_shared_values_do_not_keep_their_algebra_alive():
    # the memoised quadratic and witness are freed with the algebra,
    # whether the checks pass or fail on it
    J = from_selector("sym:2")
    skew = dataclasses.replace(J, m=J.m + 1)
    assert verify.run_suite(J, "brackets,critical,innw,hmodule,lowest").overall == "pass"
    assert verify.run_suite(skew, "brackets,critical,innw,hmodule,lowest").overall == "fail"
    gone = [weakref.ref(J), weakref.ref(skew)]
    del J, skew
    gc.collect()
    assert [ref() for ref in gone] == [None, None]


def test_a_failed_quadratic_is_built_once_and_its_error_reraised(monkeypatch):
    # on a corrupted algebra the double commutator fails with a long
    # residual; the failure is remembered, so both checks read one build
    J = corrupt_structure(from_selector("full:2"))
    with pytest.raises(verify.VerifyError) as direct:
        verify.double_commutator_quadratic(J)
    calls = count_calls(monkeypatch, "double_commutator_quadratic")
    checks = {c.name: c for c in verify.run_suite(J, "brackets,critical").checks}
    assert calls == [(J,)]
    witness = str(direct.value)
    assert witness.startswith("residual: ") and len(witness) == 4065
    for name in ("double-commutator", "critical-values"):
        assert not checks[name].ok and checks[name].witness == witness
    with pytest.raises(verify.VerifyError) as again:
        verify.critical_values(J)
    assert str(again.value) == witness and calls == [(J,)]


def test_per_algebra_reraises_a_copy_of_any_ring_error():
    calls = []

    @per_algebra
    def build(J):
        calls.append(J)
        raise IrrationalRootError("no rational root", Scalar(5))

    J = from_selector("sym:2")
    raised = []
    for _ in range(3):
        with pytest.raises(IrrationalRootError, match="^no rational root$") as err:
            build(J)
        assert err.value.discriminant == Scalar(5)
        raised.append(err.value)
    assert calls == [J]
    assert raised[1] is not raised[2]  # a fresh copy each time, never the stored one


def test_a_remembered_failure_does_not_keep_its_algebra_alive():
    J = corrupt_structure(from_selector("full:2"))
    assert verify.run_suite(J, "brackets,critical").overall == "fail"
    assert not verify.check_critical(J).ok  # the stored error, raised again
    gone = weakref.ref(J)
    del J
    gc.collect()
    assert gone() is None


def test_a_memo_that_references_its_algebra_is_freed_with_it():
    # memos live on their algebra, so a value may hold J, as every operator does
    @per_algebra
    def operators(J):
        return [rep.pi_plus(J, J.basis_element(i)) for i in range(J.n)]

    J = from_selector("sym:2")
    ops = operators(J)
    assert operators(J) is ops and all(op.alg is J for op in ops)
    gone = weakref.ref(J)
    del J, ops
    gc.collect()
    assert gone() is None


def test_memos_are_keyed_by_their_build_not_its_name():
    def memo_of(tag):
        @per_algebra
        def build(J):
            return tag
        return build

    first, second = memo_of("first"), memo_of("second")
    J = from_selector("sym:2")
    assert (first(J), second(J), first(J)) == ("first", "second", "first")
    assert "_memos" in dir(J)
    copy = dataclasses.replace(J)
    assert "_memos" not in vars(copy) and second(copy) == "second"


def test_jordan_block_defaults_to_symbolic(monkeypatch):
    seen = []

    def spy(J, rng):
        seen.append((J.selector, derivative_mode))
        return []

    # the block sets no mode, so the derivative identities run at their default
    assert "mode" not in inspect.signature(verify._jordan.verify_jordan_calculus).parameters
    derivative_mode = inspect.signature(verify._jordan.derivative_identities).parameters["mode"].default
    monkeypatch.setattr(verify._jordan, "verify_jordan_calculus", spy)
    verify.run_suite(from_selector("full:3"), "jordan")
    assert seen == [("full:3", "symbolic")]


@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4"])
def test_jordan_block_draws_no_random_point_when_it_passes(selector, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("random point drawn")

    monkeypatch.setattr(verify._jordan, "random_point", refuse)
    assert verify.run_suite(from_selector(selector), "jordan").overall == "pass"


def test_jordan_verdicts_do_not_depend_on_the_seed(sym2):
    from test_jordan import corrupt_structure
    bad = corrupt_structure(sym2)
    verdicts = [[(c.name, c.status) for c in verify.run_suite(bad, "jordan", seed=s).checks]
                for s in (0, 1)]
    assert verdicts[0] == verdicts[1]
    assert any(status == "fail" for _, status in verdicts[0])


def test_corrupt_algebra_flagged_with_witness(sym2):
    from test_jordan import corrupt_structure
    bad = corrupt_structure(sym2)
    report = verify.run_suite(bad, "jordan")
    assert report.overall == "fail"
    failed = [c for c in report.checks if not c.ok]
    assert failed and all(c.witness for c in failed)
    data = json.loads(report.to_json())
    assert validate_report_dict(data) == []


@pytest.mark.parametrize("selection", ["brackets", "brackets,critical"])
def test_failed_idempotent_guard_fails_the_bracket_checks(selection):
    from test_jordan import corrupt_structure
    bad = corrupt_structure(from_selector("spin:2"))
    with pytest.raises(PrimitiveIdempotentError):
        bad.check_primitive_idempotent(bad.idempotent_elem())
    report = verify.run_suite(bad, selection)
    verdicts = {c.name: (c.status, c.witness) for c in report.checks}
    guarded = ["idempotent-bracket", "double-commutator"] + (["critical-values"] if "critical" in selection else [])
    for name in guarded:
        assert verdicts[name] == ("fail", "element is not idempotent")
    assert [c.name for c in report.checks] == ["w-bracket"] + guarded
    assert validate_report_dict(json.loads(report.to_json())) == []


@pytest.mark.parametrize("selector,commutative", [("spin:2", True), ("sym:2", False)])
def test_no_check_raises(selector, commutative):
    # on a corrupted algebra (the spin:2 copy fails its idempotent guard)
    # every check, alone or in the suite, returns a result and every
    # failure carries a witness
    from test_jordan import corrupt_structure
    bad = corrupt_structure(from_selector(selector), commutative=commutative)
    alone = [fn(bad) for name, fn in vars(verify).items()
             if name.startswith("check_") and inspect.isfunction(fn)]
    report = verify.run_suite(bad, "all")
    for res in alone + list(report.checks):
        assert isinstance(res, verify.CheckResult)
        assert res.ok or res.witness, res.name
    assert report.overall == "fail"
    assert validate_report_dict(json.loads(report.to_json())) == []


def test_a_witness_past_the_int_digit_limit_is_a_failed_result(sym2):
    # the witness prints every digit; it does not escape timed_check as a
    # ValueError from str(int)
    op = DiffOp.mult(sym2, SuperFn.from_zpoly(sym2.ring, ZPoly.const(sym2.n, Scalar(10**5000))))

    def body():
        raise verify.VerifyError(f"residual {diffop_str(op)}")

    result = verify.timed_check("huge-residual", body)
    assert result.status == "fail"
    assert result.witness == "residual (1" + "0" * 5000 + ")"


def test_the_check_layer_has_no_try_statement():
    # a raised exact-ring error is the one way a check fails, and
    # report.timed_check alone catches it: no try, and no (ok, witness) return
    def bool_pair(node):
        return (isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple)
                and node.value.elts and isinstance(node.value.elts[0], ast.Constant)
                and isinstance(node.value.elts[0].value, bool))

    for module in (verify, verify._jordan):
        tree = ast.parse(inspect.getsource(module))
        assert not any(isinstance(node, ast.Try) for node in ast.walk(tree)), module.__name__
        assert not any(bool_pair(node) for node in ast.walk(tree)), module.__name__


@pytest.mark.parametrize("selector", ["full:2", "spin:4"])
def test_module_stability_fails_when_the_generic_twist_is_critical(selector):
    J = from_selector(selector)
    lam0, _ = rep.critical_pair(J)
    result = verify.check_h_module(J, lam0)
    assert not result.ok
    assert result.witness == "no denominator appeared at generic twist 3/8"


@pytest.mark.parametrize("data, problem", [
    (_report_with(extra=1), "top-level keys ['algebra', 'checks', 'extra', 'overall', 'suite']"),
    (_report_with(status="skipped"), "bad status 'skipped'"),
    (_report_with(witness=3), "witness must be str or null"),
    (_report_with(status="fail", overall="fail"), "failed check 'closure' lacks a witness"),
    (_report_with(overall="maybe"), "overall must be pass|fail"),
])
def test_report_validation_reports_each_bad_field(data, problem):
    assert problem in validate_report_dict(data)
