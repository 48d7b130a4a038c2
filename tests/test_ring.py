"""Exact arithmetic layer: scalars, twist polynomials, fractions, w."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistedops.ring import (
    DegreeError,
    IrrationalRootError,
    LAMBDA,
    LambdaPoly,
    LocFn,
    NEG_INF,
    NotHomogeneousError,
    RingContext,
    Scalar,
    SuperFn,
    ZPoly,
    IUNIT,
    ONE,
    ZERO,
    _merged,
    grade,
    lambda_str,
    parse_superfn,
    superfn_str,
)


def lc(x) -> LambdaPoly:
    return LambdaPoly.from_rational(Fraction(x))


def sc(x) -> Scalar:
    return Scalar(Fraction(x))


def zpoly_of(n: int, terms: dict) -> ZPoly:
    """The ZPoly with the given z-monomial -> LambdaPoly coefficients."""
    out = ZPoly.zero(n)
    for mono, c in terms.items():
        out = out + ZPoly.monomial(n, mono, c)
    return out


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

def test_scalar_field_ops():
    assert sc("1/2") + sc("1/3") == sc("5/6")
    assert IUNIT * IUNIT == sc(-1)
    assert Scalar(2).inv() == sc("1/2")
    assert (sc("3/4") * sc("4/3")) == ONE
    assert Scalar(1, 1) * Scalar(1, -1) == Scalar(2)


def test_scalar_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inv()


def test_scalar_normalization():
    s = Scalar(Fraction(2, -4))
    assert s.re.denominator == 2 and s.re.numerator == -1


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=40, deadline=None)
def test_scalar_mul_distributes(a, b, c, d):
    x, y, z = Scalar(a, b), Scalar(c, d), Scalar(b, c)
    assert x * (y + z) == x * y + x * z


def kernel(s: Scalar) -> tuple:
    """The value of ``s`` as a (re, im) pair, after checking the invariants."""
    assert s.d > 0 and gcd(s.a, s.b, s.d) == 1, (s.a, s.b, s.d)
    return Fraction(s.a, s.d), Fraction(s.b, s.d)


def ref_mul(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_inv(x: tuple) -> tuple:
    norm = x[0] * x[0] + x[1] * x[1]
    return x[0] / norm, -x[1] / norm


def ref_str(x: tuple) -> str:
    re, im = x
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


scalar_parts = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=12))


@given(scalar_parts, scalar_parts, scalar_parts, scalar_parts, st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_scalar_matches_fraction_pair_reference(a, b, c, d, k):
    x, y = (Fraction(a), Fraction(b)), (Fraction(c), Fraction(d))
    s, t = Scalar(a, b), Scalar(c, d)
    assert kernel(s) == x and (s.re, s.im) == x
    assert str(s) == ref_str(x)
    assert kernel(s + t) == (x[0] + y[0], x[1] + y[1])
    assert kernel(s - t) == (x[0] - y[0], x[1] - y[1])
    assert kernel(-s) == (-x[0], -x[1])
    assert kernel(s * t) == ref_mul(x, y)
    assert (s == t) == (x == y)
    back = (s + t) - t  # the same value reached through other denominators
    assert back == s and hash(back) == hash(s)
    assert Scalar(*x) == s and hash(Scalar(*x)) == hash(s)
    assert not s == x[0] and s != x
    if any(y):
        assert kernel(t.inv()) == ref_inv(y)
        assert kernel(s / t) == ref_mul(x, ref_inv(y))
    if any(x) or k >= 0:
        want, base = (Fraction(1), Fraction(0)), x if k >= 0 else ref_inv(x)
        for _ in range(abs(k)):
            want = ref_mul(want, base)
        assert kernel(s ** k) == want


@given(scalar_parts, scalar_parts)
@settings(max_examples=200, deadline=None)
def test_parse_scalar_reads_back_every_printed_form(a, b):
    from twistedops.ring import parse_scalar
    s = Scalar(a, b)
    assert parse_scalar(str(s)) == s
    assert parse_scalar(f"({s})") == s


@pytest.mark.parametrize("text", ["(1e-3)", "(1_0)", "(1.5)", "(1e3i)", "1e3", "0x10", "1/0",
                                  "+ 2", "1/-2", "\u0663", "nan", "inf", "1/2/3", "1+2", "ii"])
def test_parse_scalar_takes_decimal_integers_and_fractions_only(text):
    from twistedops.ring import ParseError, parse_scalar
    # Fraction would read the first four as 1/1000, 10, 3/2 and 1000i
    with pytest.raises(ParseError):
        parse_scalar(text)


@pytest.mark.parametrize("bad", [1.5, "1", None, 1j])
def test_scalar_rejects_non_rationals(bad):
    with pytest.raises(TypeError):
        Scalar(bad)
    with pytest.raises(TypeError):
        Scalar(0, bad)


# ---------------------------------------------------------------------------
# Twist-parameter polynomials
# ---------------------------------------------------------------------------

def test_lambda_subst():
    lam = LAMBDA
    p = lam * lam
    one_minus = LambdaPoly((ONE, Scalar(-1)))
    assert p.subst(one_minus) == lc(1) - lam.scale(Scalar(2)) + lam * lam
    assert lam.subst(lc("1/4")) == lc("1/4")
    # expansion of -(L - 1/4)(L - 3/4)
    q = -(lam - lc("1/4")) * (lam - lc("3/4"))
    assert q == lc("-3/16") + lam - lam * lam


def test_lambda_quadratic_roots():
    lam = LAMBDA
    q = -(lam * lam) + lam + lc("-3/16")
    assert q.quadratic_roots() == (sc("1/4"), sc("3/4"))
    q2 = lam * lam - lc(1)
    assert q2.quadratic_roots() == (sc(-1), sc(1))
    # factoring -m^2 (L - l0)(L - l0') with m = 3/2 and roots 1/3, 2/3
    m2 = Fraction(9, 4)
    q3 = LambdaPoly((Scalar(m2 * Fraction(2, 9) * -1), Scalar(m2), Scalar(-m2)))
    assert (-q3.scale(Scalar(m2).inv())).quadratic_roots() == (sc("1/3"), sc("2/3"))
    # the plain monic version from the same data
    q4 = lam * lam - lam + lc("2/9")
    assert q4.quadratic_roots() == (sc("1/3"), sc("2/3"))


def test_lambda_roots_errors():
    lam = LAMBDA
    with pytest.raises(DegreeError):
        lam.quadratic_roots()
    with pytest.raises(IrrationalRootError) as err:
        (lam * lam - lc(2)).quadratic_roots()
    assert err.value.discriminant == Scalar(8)
    # a negative rational discriminant has no rational square root either
    with pytest.raises(IrrationalRootError) as err:
        LambdaPoly((ONE, ZERO, ONE)).quadratic_roots()
    assert err.value.discriminant == Scalar(-4)


def test_lambdapoly_is_a_zpoly_without_coordinates():
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "scale", "subst_lambda",
                 "evaluate", "__eq__", "__hash__"):
        assert name not in vars(LambdaPoly), name
    p = LAMBDA * LAMBDA - lc(1)
    assert isinstance(p, ZPoly) and p.n == 0
    for value in (p + p, p - LAMBDA, -p, p * p, p.scale(sc(2)), p.scale(LAMBDA),
                  p.subst(LAMBDA + lc(1))):
        assert type(value) is LambdaPoly
    assert p.coeffs == (sc(-1), ZERO, ONE) and p.degree == 2
    assert LambdaPoly().coeffs == () and LambdaPoly().degree == -1
    assert p.terms == {(0,): sc(-1), (2,): ONE}


def test_zpoly_twist_is_the_last_variable():
    f = ZPoly.monomial(2, (1, 0), LAMBDA.scale(sc(3)) + lc(1))
    assert f.terms == {(1, 0, 1): sc(3), (1, 0, 0): ONE}
    assert all(isinstance(c, Scalar) for c in f.terms.values())
    assert f.subst_lambda(lc(2)) == ZPoly.monomial(2, (1, 0), sc(7))
    assert f.subst_lambda(LAMBDA * LAMBDA) == ZPoly.monomial(2, (1, 0), (LAMBDA * LAMBDA).scale(sc(3)) + lc(1))
    assert f.evaluate([sc(2), sc(5)], lam=sc(2)) == sc(14)
    with pytest.raises(DegreeError):
        f.evaluate([sc(2), sc(5)])
    assert f.sorted_terms() == [((1, 0), LAMBDA.scale(sc(3)) + lc(1))]
    ctx = RingContext(2, ZPoly.coord(2, 0) * ZPoly.coord(2, 1), 2)
    assert grade(SuperFn.from_zpoly(ctx, f * f)) == 2  # L has Euler degree 0


def test_zpoly_coefficient_in_z_is_refused():
    # only the L field of its keys would be read: the coordinate z_1 became the constant 1
    z = ZPoly.coord(3, 0)
    ctx = RingContext(3, z, 1)
    for call in (lambda: ZPoly.monomial(3, (0, 0, 0), z), lambda: ZPoly.const(3, z),
                 lambda: ZPoly.one(3).scale(z), lambda: SuperFn.one(ctx).scale(z)):
        with pytest.raises(TypeError):
            call()
    assert ZPoly.monomial(3, (1, 0, 0), LAMBDA) == z * ZPoly.const(3, LAMBDA)
    assert ZPoly.const(3, ZPoly(0, {(2,): ONE})) == ZPoly.const(3, LAMBDA * LAMBDA)


# ---------------------------------------------------------------------------
# Sparse polynomials and localized fractions
# ---------------------------------------------------------------------------

@pytest.fixture()
def ctx1():
    # one coordinate, F = z
    return RingContext(1, ZPoly.coord(1, 0), 1)


@pytest.fixture()
def ctx2x2():
    # four coordinates z11 z12 z21 z22, F = z11 z22 - z12 z21
    n = 4
    z = [ZPoly.coord(n, i) for i in range(n)]
    F = z[0] * z[3] - z[1] * z[2]
    return RingContext(n, F, 2)


def test_sparse_sum_keeps_key_order_and_drops_cancelled_keys():
    # closure's span columns, and with them its witnesses, follow this order
    a = {3: sc(1), 1: sc(2), 2: sc(-1)}
    b = {5: sc(4), 2: sc(1), 1: sc(1), 0: sc(7)}
    out = _merged(a, b)
    assert list(out.items()) == [(3, sc(1)), (1, sc(3)), (5, sc(4)), (0, sc(7))]
    assert a == {3: sc(1), 1: sc(2), 2: sc(-1)}  # the inputs are left as they were
    x, y = ZPoly(1, {(1, 0): sc(1), (0, 0): sc(2)}), ZPoly(1, {(2, 0): sc(1), (1, 0): sc(-1)})
    assert list((x + y).packed) == list(_merged(x.packed, y.packed))


def test_zpoly_exact_division(ctx2x2):
    F = ctx2x2.F
    z1 = ZPoly.coord(4, 0)
    assert (F * F * z1).exact_div(F) == F * z1
    assert (F * z1 + ZPoly.one(4)).exact_div(F) is None


def test_locfn_canonical(ctx1):
    F = ctx1.F
    one = LocFn.one(ctx1)
    # (F/F) + 0 collapses to the constant 1
    a = LocFn(ctx1, F, 1)
    assert a == one and a.k == 0
    # (z/F) * (F/1) = z
    z = LocFn.from_zpoly(ctx1, ZPoly.coord(1, 0))
    frac = LocFn(ctx1, ZPoly.coord(1, 0), 1)
    assert frac * LocFn.from_zpoly(ctx1, F) == z
    # 1/F + 1/F = 2/F
    invF = LocFn(ctx1, ZPoly.one(1), 1)
    two_over_F = LocFn(ctx1, ZPoly.const(1, Scalar(2)), 1)
    assert invF + invF == two_over_F
    assert repr(one) == "LocFn(ZPoly((1)))"


def test_context_mismatch_rejected(ctx1, ctx2x2):
    from twistedops.ring import ContextMismatchError
    with pytest.raises(ContextMismatchError):
        LocFn.one(ctx1) + LocFn(ctx2x2, ZPoly.one(4), 1)
    other = RingContext(1, ZPoly.one(1) + ZPoly.coord(1, 0), 1)
    with pytest.raises(ContextMismatchError):
        SuperFn.w(ctx1) * SuperFn.w(other)
    with pytest.raises(ContextMismatchError):
        SuperFn(ctx1, LocFn.one(other), LocFn.zero(ctx1))
    # comparing across contexts does not raise: values over different F differ
    assert (LocFn.one(ctx1) == LocFn.one(other)) is False


def test_locfn_equality_is_cross_multiplication(ctx2x2):
    # a == b iff numerators agree after clearing denominators
    F = ctx2x2.F
    z1 = ZPoly.coord(4, 0)
    a = LocFn(ctx2x2, z1 * F, 2)
    b = LocFn(ctx2x2, z1, 1)
    assert a == b
    assert a.num * ctx2x2.F_pow(b.k) == b.num * ctx2x2.F_pow(a.k)


@pytest.fixture()
def div_calls(monkeypatch):
    """Records every ZPoly.exact_div call made while the test runs."""
    calls = []
    original = ZPoly.exact_div

    def spy(self, divisor):
        calls.append(divisor)
        return original(self, divisor)

    monkeypatch.setattr(ZPoly, "exact_div", spy)
    return calls


def test_locfn_reduces_only_when_observed(ctx2x2, div_calls):
    F = ctx2x2.F
    z = [ZPoly.coord(4, i) for i in range(4)]
    a = LocFn(ctx2x2, z[0] * F, 2)
    b = LocFn(ctx2x2, z[1], 1)
    f = SuperFn.from_locfn(a, b)
    g = SuperFn.from_locfn(b, a)
    built = [a + b, a - b, a * b, -a, a.mul_F(), a.scale(sc(3)), a.derivative(0),
             f + g, f * g, f.derivative(1), f.derivative(0).derivative(3)]
    assert div_calls == []
    # the first ==, .k or is_polynomial divides; a second look does not
    for observe in (lambda x: x == a, lambda x: x.k, lambda x: x.is_polynomial()):
        value = a * b
        observe(value)
        seen = len(div_calls)
        assert seen > 0
        assert value.num == z[0] * z[1] and value.k == 2
        assert not value.is_polynomial() and value == value and hash(value) == hash(value)
        assert len(div_calls) == seen
        div_calls.clear()
    assert [x.k for x in built[:3]] == [1, 1, 2]


def test_locfn_equality_over_one_power_compares_numerators(ctx2x2, div_calls):
    # p / F^k == p' / F^k exactly when p == p', so neither side is reduced
    F = ctx2x2.F
    z = [ZPoly.coord(4, i) for i in range(4)]
    assert LocFn(ctx2x2, z[0] * F, 2) == LocFn(ctx2x2, F * z[0], 2)
    assert LocFn(ctx2x2, z[0] * F, 2) != LocFn(ctx2x2, z[1] * F, 2)
    assert LocFn(ctx2x2, z[0], 1) != LocFn(ctx2x2, z[0] + ZPoly.one(4), 1)
    assert div_calls == []
    # over different powers both sides are reduced first: F p / F^2 == p / F
    assert LocFn(ctx2x2, z[0] * F, 2) == LocFn(ctx2x2, z[0], 1)
    assert LocFn(ctx2x2, z[0] * F, 2) != LocFn(ctx2x2, z[1], 1)
    assert div_calls

def test_locfn_evaluates_reduced_form_on_the_norm_zero_set(ctx1):
    z = ZPoly.coord(1, 0)
    # z (z + 1) / z is z + 1, finite at z = 0 although the stored F-power is 1
    f = LocFn(ctx1, z * (z + ZPoly.one(1)), 1)
    assert f.evaluate([ZERO]) == ONE
    assert f.evaluate([Scalar(2)]) == Scalar(3)
    with pytest.raises(ZeroDivisionError):
        LocFn(ctx1, ZPoly.one(1), 1).evaluate([ZERO])


def _reduction_contexts():
    from twistedops import jordan
    full2, spin2 = jordan.make_full(2).ring, jordan.make_spin(2).ring
    z = [ZPoly.coord(2, i) for i in range(2)]
    # F = z1^2 - z2^2 = (z1 - z2)(z1 + z2) is reducible on spin:2
    return [(full2, ZPoly.one(4)), (spin2, ZPoly.one(2)), (spin2, z[0] - z[1])]


@pytest.mark.parametrize("ctx,factor", _reduction_contexts(), ids=["full:2", "spin:2", "spin:2-factor"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_locfn_reduced_form_independent_of_construction(ctx, factor, data):
    n = ctx.n
    terms = {}
    for _ in range(data.draw(st.integers(1, 3))):
        mono = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
        terms[mono] = LambdaPoly((Scalar(data.draw(coeff_strategy)),))
    p = zpoly_of(n, terms) * factor
    k, j = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    F = ctx.F
    cut = data.draw(st.integers(0, len(p.terms)))
    p1 = ZPoly(n, dict(list(p.terms.items())[:cut]))
    p2 = ZPoly(n, dict(list(p.terms.items())[cut:]))
    direct = LocFn(ctx, p * ctx.F_pow(j), k + j)
    product = LocFn(ctx, p, k) * LocFn(ctx, ctx.F_pow(j + 1), j + 1)
    total = LocFn(ctx, p1 * ctx.F_pow(j), k + j) + LocFn(ctx, p2, k)
    for x in (product, total):
        assert (x.num, x.k) == (direct.num, direct.k)
        assert hash(x) == hash(direct)
        assert superfn_str(SuperFn.from_locfn(x, x)) == superfn_str(SuperFn.from_locfn(direct, direct))
    # the reduced pair is the stored pair with F cancelled as often as it divides
    assert direct.num * ctx.F_pow(k) == p * ctx.F_pow(direct.k)
    if direct.k:
        assert direct.num.exact_div(F) is None


def test_locfn_keeps_power_of_a_proper_factor():
    from twistedops import jordan
    ctx = jordan.make_spin(2).ring
    z = [ZPoly.coord(2, i) for i in range(2)]
    p = (z[0] - z[1]) * z[0]  # divisible by z1 - z2 but not by F
    f = LocFn(ctx, p, 1) * LocFn(ctx, ctx.F, 1)
    assert (f.num, f.k) == (p, 1)
    assert f == LocFn(ctx, p, 1) and not f.is_polynomial()


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_locfn_ring_laws(data):
    n = 2
    z0, z1 = ZPoly.coord(n, 0), ZPoly.coord(n, 1)
    ctx = RingContext(n, z0 * z1 - ZPoly.one(n), 2)

    def rand_locfn():
        terms = {}
        for _ in range(data.draw(st.integers(1, 3))):
            mono = (data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)))
            terms[mono] = LambdaPoly((Scalar(data.draw(coeff_strategy)),))
        return LocFn(ctx, zpoly_of(n, terms), data.draw(st.integers(0, 2)))

    a, b, c = rand_locfn(), rand_locfn(), rand_locfn()
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert (a - a).is_zero()


def test_superfn_w_square(ctx1):
    w = SuperFn.w(ctx1)
    F = SuperFn.from_zpoly(ctx1, ctx1.F)
    assert w * w == F
    one = SuperFn.one(ctx1)
    assert (one + w) * (one - w) == one - F
    assert SuperFn.w_inv(ctx1) * w == one


def test_superfn_derivative_chain_rule(ctx1):
    w = SuperFn.w(ctx1)
    dw = w.derivative(0)
    expect = SuperFn.from_locfn(LocFn.zero(ctx1), LocFn(ctx1, ZPoly.const(1, sc("1/2")), 1))
    assert dw == expect
    dwi = SuperFn.w_inv(ctx1).derivative(0)
    expect2 = SuperFn.from_locfn(LocFn.zero(ctx1), LocFn(ctx1, ZPoly.const(1, sc("-1/2")), 2))
    assert dwi == expect2


def test_superfn_derivative_determinant(ctx2x2):
    # d/dz11 of w is (1/2) z22 w / F
    w = SuperFn.w(ctx2x2)
    z22 = ZPoly.coord(4, 3)
    expect = SuperFn.from_locfn(
        LocFn.zero(ctx2x2), LocFn(ctx2x2, z22.scale(sc("1/2")), 1))
    assert w.derivative(0) == expect


def test_partials_commute(ctx2x2):
    z = [ZPoly.coord(4, i) for i in range(4)]
    f = SuperFn.from_locfn(
        LocFn(ctx2x2, z[0] * z[0] * z[3] + z[1], 1),
        LocFn(ctx2x2, z[2] * z[3], 2),
    )
    for i in range(4):
        for j in range(4):
            assert f.derivative(i).derivative(j) == f.derivative(j).derivative(i)


def test_w_derivative_consistent_with_norm(ctx2x2):
    # 2 w dw = dF exactly, in every direction
    w = SuperFn.w(ctx2x2)
    for i in range(4):
        lhs = (w * w.derivative(i)).scale(Scalar(2))
        rhs = SuperFn.from_zpoly(ctx2x2, ctx2x2.dF(i))
        assert lhs == rhs


def _three_product_derivative(f: SuperFn, i: int) -> SuperFn:
    """(e + o w)' with the odd part as o' + o F'/(2F): LocFn.derivative forms
    p' F and k p F', and the chain term forms p F' once more."""
    ctx, od = f.ctx, f.od
    od_new = od.derivative(i)
    if not od.is_zero():
        od_new = od_new + LocFn(ctx, od._num * ctx.dF(i), od._k + 1).scale(sc("1/2"))
    return SuperFn(ctx, f.ev.derivative(i), od_new)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_odd_derivative_matches_three_product_route(ctx2x2, monkeypatch, k):
    from twistedops import jordan
    mul_calls = []
    original_mul = ZPoly.__mul__

    def spy(self, other):
        mul_calls.append(1)
        return original_mul(self, other)

    for ctx in (ctx2x2, jordan.make_spin(3).ring):
        n = ctx.n
        z = [ZPoly.coord(n, i) for i in range(n)]
        nums = [
            ZPoly.one(n),
            z[0] * z[-1] * ZPoly.monomial(n, (0,) * n, LAMBDA) - z[1].scale(sc(3)),
            ctx.F * z[0],  # F cancels once when observed
            ctx.dF(0) + ZPoly.monomial(n, (0,) * n, lc("1/2") + LAMBDA * LAMBDA),
        ]
        for p in nums:
            odd = LocFn(ctx, p, k)
            for even in (LocFn.zero(ctx), LocFn(ctx, z[-1] * z[-1], k)):
                f = SuperFn(ctx, even, odd)
                for i in range(n):
                    ctx.dF(i)  # cached, so the spy sees the derivative's own products
                    monkeypatch.setattr(ZPoly, "__mul__", spy)
                    got = f.derivative(i)
                    monkeypatch.setattr(ZPoly, "__mul__", original_mul)
                    if even.is_zero():
                        assert len(mul_calls) == 2  # p' F and p F'
                    mul_calls.clear()
                    want = _three_product_derivative(f, i)
                    assert got == want
                    assert superfn_str(got) == superfn_str(want)
                    # the same unreduced fraction, so the same divisions follow
                    assert (got.od._num, got.od._k) == (want.od._num, want.od._k)


@pytest.mark.parametrize("k", [1, 2])
def test_even_derivative_is_one_quotient_rule(ctx2x2, monkeypatch, k):
    # (p/F^k)' = (p' F - k p F') / F^(k+1), stored unreduced, from two products
    from twistedops import jordan
    mul_calls = []
    original_mul = ZPoly.__mul__

    def spy(self, other):
        mul_calls.append(1)
        return original_mul(self, other)

    for ctx in (ctx2x2, jordan.make_spin(3).ring):
        n = ctx.n
        z = [ZPoly.coord(n, i) for i in range(n)]
        nums = [
            ZPoly.one(n),
            z[0] * z[-1] * ZPoly.monomial(n, (0,) * n, LAMBDA) - z[1].scale(sc(3)),
            ctx.F * z[0],  # F cancels once when observed
        ]
        for p in nums:
            f = LocFn(ctx, p, k)
            for i in range(n):
                ctx.dF(i)  # cached, so the spy sees the derivative's own products
                monkeypatch.setattr(ZPoly, "__mul__", spy)
                got = f.derivative(i)
                monkeypatch.setattr(ZPoly, "__mul__", original_mul)
                assert len(mul_calls) == 2  # p' F and k p F'
                mul_calls.clear()
                want = LocFn(ctx, p.derivative(i) * ctx.F - p.scale(sc(k)) * ctx.dF(i), k + 1)
                assert (got._num, got._k) == (want._num, want._k)  # k = 0 when the sum cancels


# ---------------------------------------------------------------------------
# Euler grading
# ---------------------------------------------------------------------------

def test_grade_examples(ctx1, ctx2x2):
    w = SuperFn.w(ctx1)
    w5 = w * w * w * w * w
    assert grade(w5) == Fraction(5, 2)
    z12 = ZPoly.coord(4, 0) * ZPoly.coord(4, 1)
    assert grade(SuperFn.from_zpoly(ctx2x2, z12)) == 2
    w_over_F = SuperFn.from_locfn(LocFn.zero(ctx2x2), LocFn(ctx2x2, ZPoly.one(4), 1))
    assert grade(w_over_F) == -1  # r/2 - r with r = 2
    assert grade(SuperFn.zero(ctx1)) == NEG_INF


def test_grade_additive(ctx2x2):
    w = SuperFn.w(ctx2x2)
    f = SuperFn.from_zpoly(ctx2x2, ZPoly.coord(4, 1))
    assert grade(w * f) == grade(w) + grade(f)


def test_grade_rejects_mixed(ctx1):
    mixed = SuperFn.from_zpoly(ctx1, ZPoly.one(1) + ZPoly.coord(1, 0))
    with pytest.raises(NotHomogeneousError):
        grade(mixed)


# ---------------------------------------------------------------------------
# Textual round trip
# ---------------------------------------------------------------------------

def test_superfn_roundtrip_simple(ctx2x2):
    z = [ZPoly.coord(4, i) for i in range(4)]
    f = SuperFn.from_locfn(
        LocFn(ctx2x2, z[0] * z[0] - z[1].scale(sc("2/3")), 1),
        LocFn.from_zpoly(ctx2x2, ZPoly.const(4, Scalar(1, 1))),
    )
    text = superfn_str(f)
    assert parse_superfn(text, ctx2x2) == f


def test_superfn_roundtrip_lambda(ctx1):
    lam_coeff = LAMBDA.scale(sc(-2))
    f = SuperFn.from_zpoly(ctx1, ZPoly.monomial(1, (1,), lam_coeff))
    text = superfn_str(f)
    assert "(L)" in text
    assert parse_superfn(text, ctx1) == f


def test_superfn_roundtrip_dense_lambda(ctx1):
    # multi-term coefficient with Gaussian entries exercises the paren
    # wrapping inside the second group
    dense = LambdaPoly((Scalar(Fraction(3)), Scalar(Fraction(-1, 2), Fraction(2)), Scalar(0, 1)))
    f = SuperFn.from_locfn(
        LocFn(ctx1, ZPoly.monomial(1, (2,), dense), 1),
        LocFn(ctx1, ZPoly.monomial(1, (0,), LambdaPoly((Scalar(0, -1),))), 0),
    )
    text = superfn_str(f)
    assert parse_superfn(text, ctx1) == f
    assert superfn_str(parse_superfn(text, ctx1)) == text


def test_parse_accepts_spaced_form(ctx1):
    # the spaced variant of the separator between coefficient and monomial
    f1 = parse_superfn("(1/2) * z1^2 * w / F", ctx1)
    f2 = parse_superfn("(1/2)*z1^2 * w / F", ctx1)
    assert f1 == f2
    expect = SuperFn.from_locfn(
        LocFn.zero(ctx1), LocFn(ctx1, ZPoly.monomial(1, (2,), sc("1/2")), 1))
    assert f1 == expect


coeff_strategy = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def superfns(draw, ctx):
    n = ctx.n
    terms_ev = {}
    terms_od = {}
    for _ in range(draw(st.integers(0, 3))):
        mono = tuple(draw(st.integers(0, 2)) for _ in range(n))
        re = draw(coeff_strategy)
        im = draw(coeff_strategy)
        lam_deg = draw(st.integers(0, 2))
        coeffs = [ZERO] * lam_deg + [Scalar(re, im)]
        terms_ev[mono] = LambdaPoly(coeffs)
    for _ in range(draw(st.integers(0, 2))):
        mono = tuple(draw(st.integers(0, 2)) for _ in range(n))
        terms_od[mono] = LambdaPoly((Scalar(draw(coeff_strategy)),))
    kev = draw(st.integers(0, 2))
    kod = draw(st.integers(0, 1))
    return SuperFn.from_locfn(
        LocFn(ctx, zpoly_of(n, terms_ev), kev),
        LocFn(ctx, zpoly_of(n, terms_od), kod),
    )


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_superfn_roundtrip_random(data):
    ctx = RingContext(2, ZPoly.coord(2, 0) * ZPoly.coord(2, 1) - ZPoly.one(2), 2)
    f = data.draw(superfns(ctx))
    assert parse_superfn(superfn_str(f), ctx) == f


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_partials_commute_random(data):
    ctx = RingContext(2, ZPoly.coord(2, 0) * ZPoly.coord(2, 1) - ZPoly.one(2), 2)
    f = data.draw(superfns(ctx))
    assert f.derivative(0).derivative(1) == f.derivative(1).derivative(0)


@st.composite
def twisted_zpolys(draw, n):
    """Random ZPoly in n coordinates with coefficients carrying L^0..L^2."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        mono = tuple(draw(st.integers(0, 2)) for _ in range(n)) + (draw(st.integers(0, 2)),)
        terms[mono] = Scalar(draw(coeff_strategy), draw(coeff_strategy))
    return ZPoly(n, terms)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_scale_by_lambdapoly_matches_the_product_with_a_constant(data):
    # scale packs the keys of c in n variables itself; near the top of the field
    # both routes must raise DegreeError
    from twistedops.ring import EXPONENT_LIMIT
    n = data.draw(st.integers(0, 3))
    f = data.draw(twisted_zpolys(n))
    if n == 0 and data.draw(st.booleans()):
        f = LambdaPoly([f.terms.get((k,), ZERO) for k in range(3)])
    shift = data.draw(st.sampled_from([0, 1, EXPONENT_LIMIT - 12, EXPONENT_LIMIT - 6, EXPONENT_LIMIT - 3]))
    coeffs = [Scalar(data.draw(coeff_strategy), data.draw(coeff_strategy)) for _ in range(data.draw(st.integers(0, 3)))]
    c = LambdaPoly([ZERO] * shift + coeffs) if coeffs else LambdaPoly()

    def outcome(run):
        try:
            value = run()
        except DegreeError:
            return DegreeError
        return type(value), value.packed

    assert outcome(lambda: f.scale(c)) == outcome(lambda: f * ZPoly.const(n, c))


def reference_subst_lambda(p: ZPoly, value: LambdaPoly) -> dict:
    """The packed terms of p with L replaced by value, every term times its
    power of value, the Scalar 1 at L^0 included: the loop subst_lambda
    ran before it copied the terms free of L."""
    from twistedops.ring import FIELD_MASK, LP_ONE, _guards, _total_unit
    step, guards = _total_unit(p.n) + 1, _guards(p.n)
    powers, out = [LP_ONE], {}
    for mono, c in p.packed.items():
        k = mono & FIELD_MASK
        base = mono - k * step
        while len(powers) <= k:
            powers.append(powers[-1] * value)
        for lmono, v in powers[k].packed.items():
            target = base + (lmono & FIELD_MASK) * step
            assert not target & guards
            acc = out.get(target)
            out[target] = c * v if acc is None else acc + c * v
    return {m: c for m, c in out.items() if not c.is_zero()}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_subst_lambda_matches_the_loop_that_multiplied_every_term(data):
    # the same terms in the same key order, and a polynomial without L as it is
    n = data.draw(st.integers(0, 2))
    terms = data.draw(tuple_terms(n, 6))
    shape = data.draw(st.sampled_from(["mixed", "free of L", "shared keys"]))
    if shape == "free of L":
        terms = {mono[:-1] + (0,): c for mono, c in terms.items()}
    elif shape == "shared keys":  # each L-term's z-monomial also carries an L-free term
        terms |= {mono[:-1] + (0,): Scalar(data.draw(coeff_strategy), 1) for mono in list(terms) if mono[-1]}
    p = ZPoly(n, terms)
    if n == 0 and data.draw(st.booleans()):
        p = LambdaPoly([p.terms.get((k,), ZERO) for k in range(4)])
    value = LambdaPoly([Scalar(data.draw(coeff_strategy), data.draw(coeff_strategy))
                        for _ in range(data.draw(st.integers(0, 3)))])
    got = p.subst_lambda(value)
    assert type(got) is type(p)
    assert list(got.packed.items()) == list(reference_subst_lambda(p, value).items())
    if not any(mono[-1] for mono in p.terms):
        assert got is p


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_ring_laws_with_twist_in_coefficients(data):
    n = 2
    ctx = RingContext(n, ZPoly.coord(n, 0) * ZPoly.coord(n, 1) - ZPoly.one(n), 2)
    F = ctx.F
    a, b, c = (data.draw(twisted_zpolys(n)) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a * F).exact_div(F) == a
    v = LambdaPoly([Scalar(data.draw(coeff_strategy)) for _ in range(data.draw(st.integers(0, 3)))])
    assert (a * b).subst_lambda(v) == a.subst_lambda(v) * b.subst_lambda(v)
    point = [Scalar(data.draw(coeff_strategy)) for _ in range(n)]
    lam = Scalar(data.draw(coeff_strategy), data.draw(coeff_strategy))
    assert (a * b).evaluate(point, lam) == a.evaluate(point, lam) * b.evaluate(point, lam)
    fa, fb, fc = (LocFn(ctx, p, data.draw(st.integers(0, 2))) for p in (a, b, c))
    assert (fa * fb) * fc == fa * (fb * fc)
    assert (fa + fb) * fc == fa * fc + fb * fc
    assert (fa * fb).subst_lambda(v) == fa.subst_lambda(v) * fb.subst_lambda(v)
    if not F.evaluate(point).is_zero():
        assert (fa * fb).evaluate(point, lam) == fa.evaluate(point, lam) * fb.evaluate(point, lam)


# ---------------------------------------------------------------------------
# Zero parts: skipped by the arithmetic, one canonical zero fraction
# ---------------------------------------------------------------------------

def _ref_locfn_add(x: LocFn, y: LocFn) -> LocFn:
    """x + y over the common power of F, built even when a summand is zero."""
    ctx, k = x.ctx, max(x.k, y.k)
    return LocFn(ctx, x.num * ctx.F_pow(k - x.k) + y.num * ctx.F_pow(k - y.k), k)


def _ref_locfn_mul(x: LocFn, y: LocFn) -> LocFn:
    return LocFn(x.ctx, x.num * y.num, x.k + y.k)


def _ref_locfn_mul_F(x: LocFn) -> LocFn:
    return LocFn(x.ctx, x.num * x.ctx.F, x.k)


def _ref_locfn_derivative(x: LocFn, i: int) -> LocFn:
    """(p / F^k)' = (p' F - k p F') / F^(k+1)."""
    ctx = x.ctx
    num = x.num.derivative(i) * ctx.F - x.num.scale(Scalar(x.k)) * ctx.dF(i)
    return LocFn(ctx, num, x.k + 1)


def _ref_mul(f: SuperFn, g: SuperFn) -> SuperFn:
    """(a + b w)(c + d w) with all four part products formed."""
    a, b, c, d = f.ev, f.od, g.ev, g.od
    ev = _ref_locfn_add(_ref_locfn_mul(a, c), _ref_locfn_mul_F(_ref_locfn_mul(b, d)))
    od = _ref_locfn_add(_ref_locfn_mul(a, d), _ref_locfn_mul(b, c))
    return SuperFn(f.ctx, ev, od)


def _ref_derivative(f: SuperFn, i: int) -> SuperFn:
    """(e + o w)' = e' + (o' + o F' / (2 F)) w."""
    ctx = f.ctx
    half_chain = LocFn(ctx, f.od.num * ctx.dF(i), f.od.k + 1).scale(sc("1/2"))
    od = _ref_locfn_add(_ref_locfn_derivative(f.od, i), half_chain)
    return SuperFn(ctx, _ref_locfn_derivative(f.ev, i), od)


def _ref_neg(f: SuperFn) -> SuperFn:
    return SuperFn(f.ctx, LocFn(f.ctx, -f.ev.num, f.ev.k), LocFn(f.ctx, -f.od.num, f.od.k))


def _assert_zero_parts_canonical(ctx, *values):
    zero = LocFn.zero(ctx)
    for v in values:
        for part in (v.ev, v.od) if isinstance(v, SuperFn) else (v,):
            if part.is_zero():
                assert part.k == 0 and part.num.n == ctx.n
                assert part == zero and hash(part) == hash(zero)
                assert superfn_str(SuperFn(ctx, part, part)) == "0"


def _zero_parts_contexts():
    from twistedops import jordan
    n = 2
    z0, z1 = ZPoly.coord(n, 0), ZPoly.coord(n, 1)
    return [RingContext(n, z0 * z1 - ZPoly.one(n), 2), jordan.make_spin(2).ring]


@st.composite
def mixed_parts(draw, ctx):
    """A LocFn that is zero (built one of several ways), a polynomial or p / F^k."""
    kind = draw(st.sampled_from(["zero", "polynomial", "fraction"]))
    n = ctx.n
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        mono = tuple(draw(st.integers(0, 2)) for _ in range(n)) + (draw(st.integers(0, 1)),)
        terms[mono] = Scalar(draw(coeff_strategy), draw(coeff_strategy))
    p = ZPoly(n, terms)
    if p.is_zero():
        p = ZPoly.one(n)
    k = draw(st.integers(1, 2))
    if kind == "polynomial":
        return LocFn(ctx, p, 0)
    if kind == "fraction":
        return LocFn(ctx, p, k)
    frac = LocFn(ctx, p, k)
    how = draw(st.sampled_from(["constructor", "product", "sum", "derivative"]))
    if how == "constructor":
        return LocFn(ctx, ZPoly.zero(n), draw(st.integers(0, 3)))
    if how == "product":
        return frac * LocFn(ctx, ZPoly.zero(n), draw(st.integers(0, 3)))
    if how == "sum":
        return frac + (-frac)
    return LocFn(ctx, ZPoly.const(n, Scalar(draw(coeff_strategy), 1)), 0).derivative(0)


@pytest.mark.parametrize("ctx", _zero_parts_contexts(), ids=["F=z1z2-1", "spin:2"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_superfn_arithmetic_with_zero_parts_matches_four_products(ctx, data):
    f = SuperFn(ctx, data.draw(mixed_parts(ctx)), data.draw(mixed_parts(ctx)))
    g = SuperFn(ctx, data.draw(mixed_parts(ctx)), data.draw(mixed_parts(ctx)))
    i = data.draw(st.integers(0, ctx.n - 1))
    c = Scalar(data.draw(coeff_strategy), data.draw(coeff_strategy))
    results = {
        "mul": (f * g, _ref_mul(f, g)),
        "add": (f + g, SuperFn(ctx, _ref_locfn_add(f.ev, g.ev), _ref_locfn_add(f.od, g.od))),
        "sub": (f - g, SuperFn(ctx, *(_ref_locfn_add(x, y) for x, y in
                                      zip((f.ev, f.od), (_ref_neg(g).ev, _ref_neg(g).od))))),
        "neg": (-f, _ref_neg(f)),
        "derivative": (f.derivative(i), _ref_derivative(f, i)),
        "scale": (f.scale(c), SuperFn(ctx, LocFn(ctx, f.ev.num.scale(c), f.ev.k),
                                      LocFn(ctx, f.od.num.scale(c), f.od.k))),
        "mul_F": (SuperFn(ctx, f.ev.mul_F(), f.od.mul_F()),
                  SuperFn(ctx, _ref_locfn_mul_F(f.ev), _ref_locfn_mul_F(f.od))),
    }
    for name, (got, want) in results.items():
        assert got == want, name
        assert superfn_str(got) == superfn_str(want), name
        _assert_zero_parts_canonical(ctx, got)
    _assert_zero_parts_canonical(ctx, f, g)


def test_zero_locfn_is_canonical_however_built(ctx2x2, div_calls):
    n = ctx2x2.n
    z0 = ZPoly.coord(n, 0)
    frac = LocFn(ctx2x2, z0, 2)
    zeros = [LocFn(ctx2x2, ZPoly.zero(n), k) for k in range(4)]
    zeros += [frac * zeros[3], zeros[2] * frac, frac - frac, frac + (-frac),
              LocFn.one(ctx2x2).derivative(1), zeros[1].derivative(0), zeros[3].mul_F(),
              zeros[2].scale(sc(5)), frac.scale(ZERO), -zeros[1],
              (SuperFn.w(ctx2x2) - SuperFn.w(ctx2x2)).od]
    div_calls.clear()
    assert [z.k for z in zeros] == [0] * len(zeros)
    assert div_calls == []  # a zero fraction is stored with k = 0, so nothing reduces
    _assert_zero_parts_canonical(ctx2x2, *zeros)
    assert all(z.is_zero() for z in zeros)
    # a zero operand is passed through, not rebuilt
    assert frac + zeros[0] is frac and zeros[0] + frac is frac
    assert (frac * zeros[1]) is zeros[1] and zeros[1].derivative(2) is zeros[1]


# ---------------------------------------------------------------------------
# Packed monomial keys against a tuple-keyed reference
# ---------------------------------------------------------------------------

def _tuple_add(x: dict, y: dict, sign: Scalar = ONE) -> dict:
    out = dict(x)
    for mono, c in y.items():
        out[mono] = out.get(mono, ZERO) + c * sign
    return {m: c for m, c in out.items() if not c.is_zero()}


def _tuple_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            out = _tuple_add(out, {tuple(a + b for a, b in zip(m1, m2)): c1 * c2})
    return out


def _grlex(mono: tuple) -> tuple:
    return (sum(mono), mono)


def _tuple_derivative(x: dict, i: int) -> dict:
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * Scalar(m[i]) for m, c in x.items() if m[i]}


def _tuple_subst(x: dict, value: dict) -> dict:
    """L -> value, where value maps (k,) to the coefficient of L^k."""
    out: dict = {}
    for mono, c in x.items():
        power = {(0,): ONE}
        for _ in range(mono[-1]):
            power = _tuple_mul(power, value)
        out = _tuple_add(out, {mono[:-1] + k: c * v for k, v in power.items()})
    return out


def _tuple_exact_div(x: dict, y: dict) -> dict | None:
    lead = max(y, key=_grlex)
    work, quot = dict(x), {}
    while work:
        mono = max(work, key=_grlex)
        rest = tuple(a - b for a, b in zip(mono, lead))
        if min(rest) < 0:
            return None
        q = work[mono] / y[lead]
        quot[rest] = q
        work = _tuple_add(work, _tuple_mul({rest: q}, y), Scalar(-1))
    return quot


def _tuple_text(x: dict) -> str:
    """``repr`` of a ZPoly, written from the tuple-keyed terms."""
    if not x:
        return "ZPoly(0)"
    groups: dict = {}
    for mono, c in x.items():
        groups.setdefault(mono[:-1], {})[mono[-1]] = c
    bits = []
    for z in sorted(groups, key=_grlex, reverse=True):
        parts = []
        for k, c in sorted(groups[z].items()):
            cs = f"({c})" if c.a and c.b else str(c)
            power = "" if k == 0 else "L" if k == 1 else f"L^{k}"
            parts.append(cs if not power else power if c == ONE else f"{cs}*{power}")
        zs = "*".join(f"z{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(z) if e)
        bits.append(f"({' + '.join(parts)})" + (f"*{zs}" if zs else ""))
    return "ZPoly(" + " + ".join(bits) + ")"


@st.composite
def tuple_terms(draw, n, size=4):
    """Tuple-keyed terms in n coordinates and L, exponents up to 3."""
    terms = {}
    for _ in range(draw(st.integers(0, size))):
        mono = tuple(draw(st.integers(0, 3)) for _ in range(n + 1))
        c = Scalar(draw(coeff_strategy), draw(coeff_strategy))
        if not c.is_zero():
            terms[mono] = c
    return terms


def _assert_matches(n: int, got: ZPoly, want: dict, name: str):
    assert got == ZPoly(n, want), name
    assert dict(got.terms) == want, name
    assert repr(got) == _tuple_text(want), name


@pytest.mark.parametrize("n", [0, 2, 9])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_packed_kernel_matches_tuple_reference(n, data):
    x, y = data.draw(tuple_terms(n)), data.draw(tuple_terms(n))
    p, q = ZPoly(n, x), ZPoly(n, y)
    c = Scalar(data.draw(coeff_strategy), data.draw(coeff_strategy))
    value = data.draw(tuple_terms(0, 3))
    _assert_matches(n, p * q, _tuple_mul(x, y), "*")
    _assert_matches(n, p + q, _tuple_add(x, y), "+")
    _assert_matches(n, p - q, _tuple_add(x, y, Scalar(-1)), "-")
    _assert_matches(n, p.scale(c), _tuple_mul(x, {(0,) * (n + 1): c}), "scale")
    for i in range(n + 1):
        _assert_matches(n, p.derivative(i), _tuple_derivative(x, i), f"derivative({i})")
    _assert_matches(n, p.subst_lambda(ZPoly(0, value)), _tuple_subst(x, value), "subst_lambda")
    if y:
        exact = _tuple_mul(x, y)
        _assert_matches(n, ZPoly(n, exact).exact_div(q), x, "exact_div")
        assert _tuple_exact_div(exact, y) == x
        # plus a term of degree 0 in z: inexact unless q's lead is free of z
        inexact = _tuple_add(exact, {(0,) * n + (3,): ONE})
        want = _tuple_exact_div(inexact, y)
        got = ZPoly(n, inexact).exact_div(q)
        assert (got is None) == (want is None)
        if want is not None:
            _assert_matches(n, got, want, "exact_div, extra term")
    groups: dict = {}
    for mono, v in x.items():
        groups.setdefault(mono[:-1], {})[(mono[-1],)] = v
    want_z = sorted(groups, key=_grlex, reverse=True)
    assert p.sorted_terms() == [(z, ZPoly(0, groups[z])) for z in want_z]
    assert all(type(lp) is LambdaPoly for _, lp in p.sorted_terms())
    assert sorted(p.terms, key=_grlex) == sorted(x, key=_grlex)
    with pytest.raises(TypeError):
        p.terms[(0,) * (n + 1)] = ONE


def test_packed_key_order_is_grlex():
    from twistedops.ring import pack, unpack
    monos = [(a, b, k) for a in range(3) for b in range(3) for k in range(3)]
    assert sorted(monos, key=lambda m: pack(2, m)) == sorted(monos, key=_grlex)
    assert all(unpack(2, pack(2, m)) == m for m in monos)


# ---------------------------------------------------------------------------
# Exponent range of the packed field
# ---------------------------------------------------------------------------

def test_exponent_past_the_field_raises_instead_of_wrapping():
    from twistedops.ring import EXPONENT_LIMIT
    top = EXPONENT_LIMIT - 1
    z = ZPoly.coord(1, 0)
    high = ZPoly.monomial(1, (top,))
    assert high.terms == {(top, 0): ONE}
    assert high * ZPoly.one(1) == high
    assert ZPoly.monomial(1, (top - 1,)) * z == high  # just inside the field
    assert high.exact_div(z) == ZPoly.monomial(1, (top - 1,))
    overflows = {
        "product": lambda: high * z,
        "product in L": lambda: LambdaPoly((ZERO,) * top + (ONE,)) * LAMBDA,
        "product of totals": lambda: ZPoly.monomial(2, (top - 1, 0)) * ZPoly.coord(2, 1) * ZPoly.coord(2, 1),
        "monomial": lambda: ZPoly.monomial(1, (EXPONENT_LIMIT,)),
        "monomial total": lambda: ZPoly.monomial(2, (top, 1)),
        "monomial with L": lambda: ZPoly.monomial(1, (top,), LAMBDA),
        "constructor": lambda: ZPoly(1, {(0, EXPONENT_LIMIT): ONE}),
        "LambdaPoly": lambda: LambdaPoly((ZERO,) * EXPONENT_LIMIT + (ONE,)),
        "LambdaPoly, a whole field past": lambda: LambdaPoly((ZERO,) * (2 * EXPONENT_LIMIT) + (ONE,)),
        "subst_lambda": lambda: ZPoly.monomial(1, (top - 1,), LAMBDA).subst_lambda(LAMBDA * LAMBDA),
    }
    for name, build in overflows.items():
        with pytest.raises(DegreeError):
            build()
            pytest.fail(name)


def test_scalars_past_the_int_digit_limit_print_and_parse_exactly():
    # str(int) stops at 4,300 digits; a component of any size prints in full
    # and reads back to the same Scalar
    from twistedops.ring import parse_scalar
    big = 10**5000
    for s, text in ((Scalar(big + 7), "1" + "0" * 4999 + "7"),
                    (Scalar(Fraction(1, big)), "1/1" + "0" * 5000),
                    (Scalar(0, -big), "-1" + "0" * 5000 + "i")):
        assert str(s) == text
        assert parse_scalar(text) == s
        assert parse_scalar(f"({text})") == s


def test_largest_exponent_round_trips_through_text():
    from twistedops.ring import EXPONENT_LIMIT, ParseError, parse_lambda
    top = EXPONENT_LIMIT - 1
    ctx2 = RingContext(2, ZPoly.coord(2, 0) * ZPoly.coord(2, 1), 2)
    for text in (f"(1)*z1^{top}", f"(-2)(L^{top})", f"(1/2)(L^{top - 3})*z1^3 * w / F^2",
                 f"(1)*z1^{top - 1}*z2"):
        f = parse_superfn(text, ctx2)
        assert superfn_str(f) == text
        assert parse_superfn(superfn_str(f), ctx2) == f
    assert str(parse_lambda(f"L^{top}")) == f"L^{top}"
    for text in (f"(1)*z1^{EXPONENT_LIMIT}", f"(1)*z1^{top}*z1", f"(1)*z1^{top}*z2",
                 f"(1)(L^{top})*z1", f"(1)(L^{EXPONENT_LIMIT})", "(1)*z1^" + "9" * 5000,
                 "(1)*z" + "1" * 5000, f"(1) / F^{EXPONENT_LIMIT}", "(1) / F^" + "9" * 5000):
        with pytest.raises(ParseError):
            parse_superfn(text, ctx2)
    for text in (f"L^{EXPONENT_LIMIT}", "L^" + "9" * 5000):
        with pytest.raises(ParseError):
            parse_lambda(text)


def test_a_complex_coefficient_of_a_power_of_L_needs_parentheses():
    from twistedops.ring import ParseError, lambda_str, parse_lambda
    # unparenthesised, 1+1i*L would read (1+1i)*L and 1 + 1i*L reads 1 + i*L
    one_plus_i = Scalar(1, 1)
    assert parse_lambda("(1+1i)*L") == LambdaPoly((ZERO, one_plus_i))
    assert parse_lambda("1 + 1i*L") == LambdaPoly((ONE, IUNIT))
    for p in (LambdaPoly((ZERO, one_plus_i)), LambdaPoly((one_plus_i, ZERO, Scalar(Fraction(1, 2), -1)))):
        assert parse_lambda(lambda_str(p)) == p
    for text in ("1+1i*L", "1-1/2i*L^2", "2 + -1+1i*L", "1+0i*L"):
        with pytest.raises(ParseError, match="needs parentheses"):
            parse_lambda(text)
    # the same inside an operator's L-group
    ctx = RingContext(1, ZPoly.coord(1, 0), 1)
    want = SuperFn.from_zpoly(ctx, ZPoly.monomial(1, (1,), LambdaPoly((ONE, IUNIT))))
    assert parse_superfn("(1)(1 + 1i*L)*z1", ctx) == want
    assert parse_superfn(superfn_str(want), ctx) == want
    with pytest.raises(ParseError, match="needs parentheses"):
        parse_superfn("(1)(1+1i*L)*z1", ctx)


def test_whitespace_inside_a_scalar_is_refused_not_misread(full1):
    from twistedops.ring import LP_ZERO, ParseError, parse_lambda, parse_scalar
    from twistedops.weyl import parse_diffop
    # "2 -i*L" once read (2-1i)*L and "2 i" once read 2i
    for text in ("2 -i*L", "1 +1i*L", "1\t+1i*L"):
        with pytest.raises(ParseError):
            parse_lambda(text)
    for text in ("2 i", "1 +1i"):
        with pytest.raises(ParseError):
            parse_scalar(text)
    with pytest.raises(ParseError):
        parse_diffop("(1)(2 -i*L)*z1 * d1", full1)
    with pytest.raises(ParseError):
        parse_superfn("(1)(2 -i*L)*z1", full1.ring)
    assert parse_lambda("1 + 1i*L") == LambdaPoly((ONE, IUNIT))
    assert parse_scalar("( 1/2 )") == sc("1/2")
    assert parse_scalar("-i") == -IUNIT
    assert lambda_str(LambdaPoly()) == "0"
    assert parse_lambda("0") == LP_ZERO and parse_lambda("0").is_zero()


# The text parsers as they were before the scalar and L-term grammars were
# declared as patterns, kept as the reference of the differential tests
# below.  Only their names are changed, and the L-polynomial parser takes
# its scalar parser as an argument.
def _reference_parse_scalar(text: str) -> Scalar:
    from twistedops.ring import ParseError, _parse_fraction
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    if not text:
        raise ParseError("empty scalar")
    # split an explicit imaginary tail off a "a+bi" / "a-bi" form
    if text.endswith("i"):
        body = text[:-1]
        # find a +/- separating real and imaginary parts (not the leading sign,
        # not the sign inside a fraction's numerator)
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/*^":
                re_part = body[:pos]
                im_part = body[pos:]
                break
        else:
            re_part, im_part = "0", body
        if im_part in ("", "+"):
            im_part = "1"
        elif im_part == "-":
            im_part = "-1"
        return Scalar(_parse_fraction(re_part), _parse_fraction(im_part))
    return Scalar(_parse_fraction(text))


def _reference_parse_lambda(text: str, parse_scalar) -> LambdaPoly:
    import re
    from twistedops.ring import LP_ZERO, ParseError, _POSINT, _exponent
    text = text.strip()
    if text == "0":
        return LP_ZERO
    coeffs: dict[int, Scalar] = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if "L" in chunk:
            if "*" in chunk:
                cpart, lpart = chunk.rsplit("*", 1)
                if not cpart.lstrip().startswith("(") and re.search(r"[0-9.][+-]", cpart):
                    # 1+1i*L would read (1+1i)*L, but 1 + 1i*L reads 1 + i*L
                    raise ParseError(f"complex coefficient needs parentheses in {chunk!r}")
                c = parse_scalar(cpart)
            else:
                lpart, c = chunk, ONE
            power = re.fullmatch(rf"L(?:\^({_POSINT}))?", lpart.strip())
            if power is None:
                raise ParseError(f"bad L-term {chunk!r}")
            k = _exponent(power.group(1) or "1", chunk)
        else:
            c, k = parse_scalar(chunk), 0
        coeffs[k] = coeffs.get(k, ZERO) + c
    size = max(coeffs) + 1
    return LambdaPoly(tuple(coeffs.get(k, ZERO) for k in range(size)))


_PARSE_TOKENS = st.sampled_from(list("0123456789") + ["/", "+", "-", "i", "L", "^", "*", "(", ")", " ", "\t", " + "])
_PARSE_TEXT = st.lists(_PARSE_TOKENS, max_size=14).map("".join)
# printed L-polynomials with padding or whitespace put into them, so that
# many examples parse
_PRINTED = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=4).map(
    lambda cs: lambda_str(LambdaPoly(tuple(Scalar(Fraction(a, d), Fraction(b, d)) for a, b, d in cs))))
_MUTATED = st.tuples(_PRINTED, st.integers(0, 40), st.sampled_from(["", " ", "\t", "  "])).map(
    lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:])


def _differ(new, reference, text: str) -> None:
    """Assert that ``new`` and ``reference(text, parse_scalar)`` read
    ``text`` alike: the same value and text, or both ParseError; or the
    reference read a scalar with whitespace inside it, which ``new``
    refuses."""
    from twistedops.ring import ParseError
    spaced = []  # the scalars with inner whitespace the reference read

    def scalar(t: str) -> Scalar:
        value = _reference_parse_scalar(t)
        body = t.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1].strip()
        if any(ch.isspace() for ch in body):
            spaced.append(t)
        return value

    try:
        want = reference(text, scalar)
    except ParseError:
        want = ParseError
    inner_space = bool(spaced)
    try:
        got = new(text)
    except ParseError:
        assert want is ParseError or inner_space, (text, want)
        return
    assert want is not ParseError and not inner_space, (text, got)
    assert got == want and str(got) == str(want), text


@given(st.one_of(_PARSE_TEXT, _MUTATED))
@settings(max_examples=1500, deadline=None)
def test_parse_lambda_agrees_with_the_reference_parser(text):
    from twistedops.ring import parse_lambda
    _differ(parse_lambda, _reference_parse_lambda, text)


@given(st.one_of(_PARSE_TEXT, _MUTATED))
@settings(max_examples=1500, deadline=None)
def test_parse_scalar_agrees_with_the_reference_parser(text):
    from twistedops.ring import parse_scalar
    _differ(parse_scalar, lambda t, scalar: scalar(t), text)


def test_long_scalars_and_l_polynomials_parse_in_linear_time():
    # a backtracking pattern would take far longer on each of these
    import time
    from twistedops.ring import ParseError, parse_lambda, parse_scalar
    long_lambda = " + ".join(f"{k}*L^{k}" for k in range(1, 20001))
    cases = [(parse_scalar, "1" * 50000), (parse_scalar, "1" * 50000 + "x"),
             (parse_scalar, "1/" + "2" * 50000 + "i"), (parse_lambda, "1" * 50000 + "x"),
             (parse_lambda, "(" + "1" * 50000 + "+i)*L"), (parse_lambda, long_lambda)]
    for parse, text in cases:
        start = time.perf_counter()
        try:
            parse(text)
        except ParseError:
            pass
        assert time.perf_counter() - start < 10, text[:40]
    assert parse_lambda(long_lambda).degree == 20000


# ---------------------------------------------------------------------------
# Failure branches of the ring layer
# ---------------------------------------------------------------------------

def test_zpoly_refuses_a_zero_divisor_mixed_counts_and_bad_indices():
    from twistedops.ring import ContextMismatchError, pack
    p, q = ZPoly.coord(2, 0), ZPoly.coord(3, 0)
    with pytest.raises(ZeroDivisionError):
        p.exact_div(ZPoly.zero(2))
    with pytest.raises(ContextMismatchError):
        p + q
    with pytest.raises(ContextMismatchError):
        p * q
    with pytest.raises(IndexError):
        p.derivative(3)
    with pytest.raises(ValueError):
        pack(2, (1, 0))


def test_an_index_outside_the_variables_raises_and_one_inside_is_unchanged():
    # a unit multi-index, a coordinate, a (dual) basis element or a partial
    # at an index outside 0..n-1 raises; before, it came out all zeros (or
    # read gram_inv from the end) and the calls returned wrong values
    from twistedops import jordan
    from twistedops.ring import _unit
    from twistedops.weyl import DiffOp, PolyOpPlus
    J = jordan.make_full(2)
    n = J.n
    calls = {
        "unit": lambda i: _unit(n, i),
        "coord": lambda i: ZPoly.coord(n, i),
        "basis": J.basis_element,
        "dual": J.dual_basis_element,
        "partial": lambda i: DiffOp.partial(J, i),
        "u-partial": lambda i: PolyOpPlus.partial(J, i),
    }
    for name, call in calls.items():
        for i in (n, -1):
            with pytest.raises(IndexError):
                call(i)
    one_fn = SuperFn.one(J.ring)
    for i in range(n):
        unit = tuple(1 if j == i else 0 for j in range(n))
        assert _unit(n, i) == unit
        assert ZPoly.coord(n, i) == ZPoly(n, {unit + (0,): ONE})
        assert J.basis_element(i).coords == tuple(ONE if e else ZERO for e in unit)
        assert J.dual_basis_element(i).coords == tuple(Scalar(c) for c in J.gram_inv[i])
        assert DiffOp.partial(J, i) == DiffOp(J, {unit: one_fn})
        assert PolyOpPlus.partial(J, i) == PolyOpPlus(J, {unit: ZPoly.one(n)})


def test_text_that_is_no_scalar_or_function_raises_parse_error(ctx2x2):
    from twistedops.ring import ParseError, parse_scalar
    with pytest.raises(ParseError, match="empty scalar"):
        parse_scalar("( )")
    with pytest.raises(ParseError, match="derivative factors"):
        parse_superfn("(1) * d1", ctx2x2)


def test_a_complex_discriminant_is_irrational():
    with pytest.raises(IrrationalRootError) as err:
        LambdaPoly((IUNIT, ZERO, ONE)).quadratic_roots()
    assert err.value.discriminant == Scalar(0, -4)
