"""Exact arithmetic layer: scalars, twist polynomials, fractions, w."""

from fractions import Fraction

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
    grade,
    parse_superfn,
    superfn_str,
)


def lc(x) -> LambdaPoly:
    return LambdaPoly.from_rational(Fraction(x))


def sc(x) -> Scalar:
    return Scalar(Fraction(x))


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


def test_scalar_normalization():
    s = Scalar(Fraction(2, -4))
    assert s.re.denominator == 2 and s.re.numerator == -1


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=40, deadline=None)
def test_scalar_mul_distributes(a, b, c, d):
    x, y, z = Scalar(a, b), Scalar(c, d), Scalar(b, c)
    assert x * (y + z) == x * y + x * z


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


def test_context_mismatch_rejected(ctx1, ctx2x2):
    from twistedops.ring import ContextMismatchError
    with pytest.raises(ContextMismatchError):
        LocFn.one(ctx1) + LocFn(ctx2x2, ZPoly.one(4), 1)
    other = RingContext(1, ZPoly.one(1) + ZPoly.coord(1, 0), 1)
    with pytest.raises(ContextMismatchError):
        SuperFn.w(ctx1) * SuperFn.w(other)


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
    p = ZPoly(n, terms) * factor
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
        return LocFn(ctx, ZPoly(n, terms), data.draw(st.integers(0, 2)))

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
        LocFn(ctx, ZPoly(n, terms_ev), kev),
        LocFn(ctx, ZPoly(n, terms_od), kod),
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
