"""One-variable quantization lab: symmetrization, circle product, pairing."""

import operator
import random
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, perm

import pytest
from hypothesis import given, settings, strategies as st

from twistedops import moyal, rep
from twistedops.moyal import (
    GENERATORS,
    PolyZX,
    WOp,
    c_component,
    circle,
    dequantize,
    lambda_op,
    pairing,
    pairing_table,
    parity,
    poisson,
    supertrace,
    symmetrize,
)
from twistedops.ring import EXPONENT_LIMIT, FIELD, DegreeError, NotHomogeneousError, Scalar, ONE, ZERO, ZPoly


def sc(x):
    return Scalar(Fraction(x))


# ---------------------------------------------------------------------------
# Quantization map against a word-enumeration oracle
# ---------------------------------------------------------------------------

def normal_order_word(word):
    """Test-local normal ordering: compose the letters of a w/d word."""
    acc = {(0, 0): Fraction(1)}
    for letter in word:
        out = {}
        for (a, b), c in acc.items():
            if letter == "w":
                out[(a + 1, b)] = out.get((a + 1, b), Fraction(0)) + c
                if b:
                    out[(a, b - 1)] = out.get((a, b - 1), Fraction(0)) + c * b
            else:
                out[(a, b + 1)] = out.get((a, b + 1), Fraction(0)) + c
        acc = {k: v for k, v in out.items() if v}
    return acc


def oracle_symmetrize(a, b):
    words = sorted(set(permutations("w" * a + "d" * b)))
    total = {}
    for word in words:
        for key, c in normal_order_word(word).items():
            total[key] = total.get(key, Fraction(0)) + c
    count = len(words)
    return WOp({k: Scalar(v / count) for k, v in total.items()})


@pytest.mark.parametrize("a,b", [(a, b) for a in range(4) for b in range(4)])
def test_symmetrize_matches_word_average(a, b):
    assert symmetrize(PolyZX.monomial(a, b)) == oracle_symmetrize(a, b)


def test_symmetrize_examples():
    assert symmetrize(PolyZX.zeta(2)) == WOp.w(2)
    assert symmetrize(PolyZX.monomial(1, 1)) == WOp({(1, 1): ONE, (0, 0): sc("1/2")})
    assert symmetrize(PolyZX.xi(2)) == WOp.d(2)


def test_dequantize_examples():
    assert dequantize(WOp({(1, 1): ONE})) == PolyZX({(1, 1): ONE, (0, 0): sc("-1/2")})
    assert dequantize(WOp.one()) == PolyZX.one()


def test_quantization_roundtrip():
    rng = random.Random(8)
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            terms[(a, b)] = Scalar(Fraction(rng.randint(-5, 5)))
        p = PolyZX(terms)
        assert dequantize(symmetrize(p)) == p
    # degree-8 monomial round trip
    assert dequantize(symmetrize(PolyZX.monomial(4, 4))) == PolyZX.monomial(4, 4)

    def random_terms(gaussian):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            im = Fraction(rng.randint(1, 5), rng.randint(1, 3)) if gaussian else 0
            terms[(a, b)] = Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), im)
        return terms

    # the other direction, and Gaussian coefficients both ways
    for gaussian in (False, True):
        for _ in range(10):
            p = PolyZX(random_terms(gaussian))
            A = WOp(random_terms(gaussian))
            assert dequantize(symmetrize(p)) == p
            assert symmetrize(dequantize(A)) == A
    assert symmetrize(dequantize(WOp.w(4) * WOp.d(4))) == WOp.w(4) * WOp.d(4)
    i_half = Scalar(Fraction(1, 2), Fraction(1, 2))
    assert symmetrize(PolyZX.monomial(1, 1, i_half)) == WOp({(1, 1): i_half, (0, 0): i_half * sc("1/2")})


def test_wop_product_matches_word_oracle():
    # composing the normal orders of two words is the normal order of the joined word
    words = ["".join(w) for n in range(4) for w in product("wd", repeat=n)]

    def W(word):
        return WOp({k: Scalar(v) for k, v in normal_order_word(word).items()})

    for u in words:
        for v in words:
            assert W(u) * W(v) == W(u + v), (u, v)
    with pytest.raises(DegreeError):
        WOp.w(EXPONENT_LIMIT - 1) * WOp.w(1)


def test_circle_symmetrizes_twice_and_composes_once(monkeypatch):
    calls = {"symmetrize": 0, "mul": 0}
    real_symmetrize, real_mul = moyal.symmetrize, WOp.__mul__

    def spy_symmetrize(p):
        calls["symmetrize"] += 1
        return real_symmetrize(p)

    def spy_mul(self, other):
        calls["mul"] += 1
        return real_mul(self, other)

    monkeypatch.setattr(moyal, "symmetrize", spy_symmetrize)
    monkeypatch.setattr(WOp, "__mul__", spy_mul)
    phi = PolyZX.monomial(2, 1) + PolyZX.xi()
    psi = PolyZX.monomial(1, 3)
    moyal.circle(phi, psi)
    assert calls == {"symmetrize": 2, "mul": 1}


# ---------------------------------------------------------------------------
# Circle product
# ---------------------------------------------------------------------------

def test_circle_examples():
    xi, zeta = PolyZX.xi(), PolyZX.zeta()
    assert circle(xi, zeta) - circle(zeta, xi) == PolyZX.one()
    assert poisson(xi, zeta) == PolyZX.one()
    assert circle(zeta, xi) == PolyZX({(1, 1): ONE, (0, 0): sc("-1/2")})


def test_abelian_collapse():
    for a in range(5):
        for b in range(5):
            assert circle(PolyZX.zeta(a), PolyZX.zeta(b)) == PolyZX.zeta(a + b)


def test_supertrace_and_pairing_basics():
    assert supertrace(PolyZX.one()) == ONE
    assert pairing(PolyZX.zeta(), PolyZX.zeta()) == ZERO


def test_pairing_closed_form():
    for p in range(7):
        for q in range(7):
            value = pairing(PolyZX.xi(p), PolyZX.zeta(q))
            want = Scalar(Fraction(factorial(p), 2 ** p)) if p == q else ZERO
            assert value == want
    rows = pairing_table(6)
    assert all(row["matches_closed_form"] for row in rows)


def test_pairing_example_value():
    assert pairing(PolyZX.xi(3), PolyZX.zeta(3)) == sc("3/4")


# ---------------------------------------------------------------------------
# Graded components: parity, band, leading terms
# ---------------------------------------------------------------------------

def monomials_up_to(degree):
    return [PolyZX.monomial(a, d - a) for d in range(degree + 1) for a in range(d + 1)]


def test_component_parity_and_band():
    monos = [m for m in monomials_up_to(6)]
    for phi in monos:
        for psi in monos:
            j = phi.euler_degree()
            k = psi.euler_degree()
            pmax = int(2 * min(j, k))
            total = PolyZX.zero()
            for p in range(pmax + 1):
                cp = c_component(phi, psi, p)
                cq = c_component(psi, phi, p)
                assert cp == (cq if p % 2 == 0 else -cq)
                total = total + cp
            # band: everything below degree |j - k| vanishes
            assert total == circle(phi, psi)


def test_leading_components():
    monos = monomials_up_to(4)
    for phi in monos:
        for psi in monos:
            assert c_component(phi, psi, 0) == phi * psi
            c1 = c_component(phi, psi, 1)
            c1r = c_component(psi, phi, 1)
            assert c1 - c1r == poisson(phi, psi)
            assert c1 == poisson(phi, psi).scale(sc("1/2"))


def test_closed_form_components_match_round_trip():
    # the bidifferential formula against symmetrize / compose / dequantize
    monos = monomials_up_to(8)
    for phi in monos:
        for psi in monos:
            a, b = phi.poly_degree(), psi.poly_degree()
            if a + b > 8:
                continue
            full = circle(phi, psi)
            total = PolyZX.zero()
            for p in range(min(a, b) + 1):
                cp = c_component(phi, psi, p)
                assert cp == full.component(a + b - 2 * p), (phi, psi, p)
                total = total + cp
            assert total == full
            assert c_component(phi, psi, min(a, b) + 1).is_zero()
            assert c_component(phi, psi, -1).is_zero()


def test_component_requires_homogeneous():
    mixed = PolyZX.one() + PolyZX.zeta()
    with pytest.raises(NotHomogeneousError):
        c_component(mixed, PolyZX.zeta(), 0)
    with pytest.raises(DegreeError):
        c_component(PolyZX.zeta(EXPONENT_LIMIT - 1), PolyZX.zeta(1), 0)


def test_degree_one_brackets_are_exact():
    # for Euler degree-1 inputs the circle commutator is the Poisson bracket
    quads = [PolyZX.zeta(2), PolyZX.monomial(1, 1), PolyZX.xi(2)]
    monos = monomials_up_to(5)
    for phi in quads:
        for psi in monos:
            lhs = circle(phi, psi) - circle(psi, phi)
            assert lhs == poisson(phi, psi)


# ---------------------------------------------------------------------------
# Supertrace sign rule and pairing orthogonality
# ---------------------------------------------------------------------------

def test_supertrace_sign_rule():
    monos = monomials_up_to(6)
    for phi in monos:
        for psi in monos:
            t1 = supertrace(circle(phi, psi))
            t2 = supertrace(circle(psi, phi))
            if parity(phi) != parity(psi):
                assert t1 == ZERO and t2 == ZERO
            elif parity(phi) == 1:
                assert t1 == -t2
            else:
                assert t1 == t2


def test_pairing_orthogonal_in_degree():
    monos = monomials_up_to(5)
    for phi in monos:
        for psi in monos:
            if phi.euler_degree() != psi.euler_degree():
                assert pairing(phi, psi) == ZERO


# ---------------------------------------------------------------------------
# The degree-lowering operators
# ---------------------------------------------------------------------------

def test_lambda_op_values():
    assert lambda_op("zeta2", PolyZX.xi(2)) == PolyZX({(0, 0): sc("1/2")})
    assert lambda_op("zetaxi", PolyZX.monomial(1, 1)) == PolyZX({(0, 0): sc("-1/4")})
    assert lambda_op("xi2", PolyZX.zeta(3)) == PolyZX.zeta(1).scale(sc("3/2"))
    with pytest.raises(ValueError):
        lambda_op("cubic", PolyZX.one())


def test_generator_product_law():
    monos = monomials_up_to(5)
    for tag, phi in GENERATORS.items():
        for psi in monos:
            lhs = circle(phi, psi)
            rhs = phi * psi + poisson(phi, psi).scale(sc("1/2")) + lambda_op(tag, psi)
            assert lhs == rhs
    # scaling the generator scales its lowering operator identically
    phi = GENERATORS["xi2"].scale(sc("-1/4"))
    for psi in monos[:8]:
        lhs = circle(phi, psi)
        rhs = phi * psi + poisson(phi, psi).scale(sc("1/2")) + lambda_op("xi2", psi).scale(sc("-1/4"))
        assert lhs == rhs


def test_lambda_op_is_pairing_adjoint():
    monos = monomials_up_to(5)
    for tag, phi in GENERATORS.items():
        for psi1 in monos:
            for psi2 in monos:
                lhs = pairing(phi * psi1, psi2)
                rhs = pairing(psi1, lambda_op(tag, psi2))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# Bridge to the one-coordinate operator picture
# ---------------------------------------------------------------------------

def wop_poly_from_superfn(f):
    """Map even z^t -> w^(2t) and odd z^t w -> w^(2t+1); requires no denominators."""
    assert f.is_polynomial()
    out = {}
    for mono, c in f.ev.num.terms.items():
        assert mono[-1] == 0  # no power of L
        out[2 * mono[0]] = c
    for mono, c in f.od.num.terms.items():
        assert mono[-1] == 0
        out[2 * mono[0] + 1] = c
    return {k: v for k, v in out.items() if not v.is_zero()}


def test_change_of_variables_bridge(full1):
    # the lower-critical second-order operator corresponds to -(1/4) d_w^2
    from twistedops.ring import SuperFn, ZPoly

    lam0, _ = rep.critical_pair(full1)
    A = rep.pi_minus(full1, full1.basis_element(0), lam0)
    B = WOp({(0, 2): sc("-1/4")})
    ctx = full1.ring
    for j in range(8):
        t, odd = divmod(j, 2)
        f = SuperFn.from_zpoly(ctx, ZPoly.monomial(1, (t,)))
        if odd:
            f = f * SuperFn.w(ctx)
        got = wop_poly_from_superfn(A.apply(f))
        want = {k: v for k, v in B.apply_monomial(j).items() if not v.is_zero()}
        assert got == want


def test_quantized_generators_match_operator_picture(full1):
    # zeta^2 -> w^2, zeta xi -> w d + 1/2, xi^2 -> d^2 reproduce the three
    # critical-twist operators up to the stated scalings
    assert symmetrize(PolyZX.zeta(2)) == WOp.w(2)
    assert symmetrize(PolyZX.monomial(1, 1)) == WOp({(1, 1): ONE, (0, 0): sc("1/2")})
    assert symmetrize(PolyZX.xi(2)).scale(sc("-1/4")) == WOp({(0, 2): sc("-1/4")})


def test_operator_and_symbol_never_equal():
    assert WOp.one() != PolyZX.one()
    assert PolyZX.zero() != WOp.zero()


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_symbols_and_operators_do_not_mix(op):
    symbol, wop = PolyZX.one(), WOp.w()
    for a, b in ((symbol, wop), (wop, symbol), (symbol, ZPoly.one(2)), (wop, ZPoly.one(2))):
        with pytest.raises(TypeError):
            op(a, b)
    assert type(op(symbol, symbol)) is PolyZX and type(op(wop, wop)) is WOp


def test_symbols_and_operators_are_two_variable_zpolys():
    values = [PolyZX.monomial(2, 3, sc(5)), circle(PolyZX.xi(2), PolyZX.zeta(3)),
              WOp.w(2) * WOp.d(3), symmetrize(PolyZX.monomial(3, 2))]
    for v in values:
        assert isinstance(v, ZPoly) and v.n == 2
        assert v.terms and all(len(m) == 3 and m[-1] == 0 for m in v.terms)
    assert len({PolyZX.one(), WOp.one(), PolyZX.one()}) == 2
    assert hash(PolyZX.monomial(1, 1)) == hash(PolyZX({(1, 1): ONE}))


# ---------------------------------------------------------------------------
# The integer kernel against the Fraction-weighted partial-derivative
# routines it replaced, kept here as references
# ---------------------------------------------------------------------------

_A_STEP = (1 << moyal._A) + (1 << moyal._TOP)  # one more zeta: the a field and the total
_B_STEP = (1 << FIELD) + (1 << moyal._TOP)     # one more xi


def ref_partial(f, n_xi, n_zeta, weight=Fraction(1)):
    """weight * d_xi^n_xi d_zeta^n_zeta f (zeta stands for w, xi for d on a WOp)."""
    step = n_zeta * _A_STEP + n_xi * _B_STEP
    out = {}
    for key, c in f.packed.items():
        a, b = moyal._ab(key)
        if a >= n_zeta and b >= n_xi:
            out[key - step] = c * Scalar(weight * (perm(a, n_zeta) * perm(b, n_xi)))
    return f._with(out)


def ref_wop_mul(A, B):
    out = WOp()
    top = min(max((moyal._ab(key)[1] for key in A.packed), default=0),
              max((moyal._ab(key)[0] for key in B.packed), default=0))
    for k in range(top + 1):
        out = out + ZPoly.__mul__(ref_partial(A, k, 0, Fraction(1, factorial(k))), ref_partial(B, 0, k))
    return out


def ref_reorder(p, half, cls):
    out = p.zero()
    for k in range(max((min(moyal._ab(key)) for key in p.packed), default=0) + 1):
        out = out + ref_partial(p, k, k, half ** k / factorial(k))
    return cls()._with(out.packed)


def ref_c_component(phi, psi, p):
    j, k = phi.euler_degree(), psi.euler_degree()
    if j == float("-inf") or k == float("-inf") or not 0 <= p <= j + k:
        return PolyZX.zero()
    out = PolyZX.zero()
    for t in range(p + 1):
        weight = Fraction((-1) ** t * comb(p, t), 2 ** p * factorial(p))
        out = ZPoly.__add__(out, ZPoly.__mul__(ref_partial(phi, p - t, t, weight), ref_partial(psi, t, p - t)))
    return out


def ref_lambda_op(tag, psi):
    quarter = Fraction(1, 4)
    n_xi, n_zeta, weight = {"zeta2": (2, 0, quarter), "zetaxi": (1, 1, -quarter), "xi2": (0, 2, quarter)}[tag]
    return ref_partial(psi, n_xi, n_zeta, weight)


# small Gaussian coefficients, so that sums into one key often cancel
gaussians = st.builds(Scalar, st.fractions(-2, 2, max_denominator=3), st.sampled_from([0, 0, 1, -1, Fraction(1, 2)]))


@st.composite
def zx_values(draw, cls, degree=None):
    """A value of ``cls`` with 1..6 terms, all of the given degree unless it is None."""
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        d = draw(st.integers(0, 6)) if degree is None else degree
        a = draw(st.integers(0, d))
        terms[(a, d - a)] = draw(gaussians)
    return cls(terms)


def assert_same(got, want):
    assert type(got) is type(want) and got == want and repr(got) == repr(want)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_integer_kernel_matches_fraction_references(data):
    d1, d2 = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    phi, psi = data.draw(zx_values(PolyZX, d1)), data.draw(zx_values(PolyZX, d2))
    for p in range(-1, d1 + d2 + 2):
        assert_same(c_component(phi, psi, p), ref_c_component(phi, psi, p))
    A, B = data.draw(zx_values(WOp)), data.draw(zx_values(WOp))
    mixed = data.draw(zx_values(PolyZX))
    assert_same(A * B, ref_wop_mul(A, B))
    for f in (phi, mixed):
        assert_same(symmetrize(f), ref_reorder(f, Fraction(1, 2), WOp))
        for tag in GENERATORS:
            assert_same(lambda_op(tag, f), ref_lambda_op(tag, f))
    for C in (A, B, A * B):
        assert_same(dequantize(C), ref_reorder(C, Fraction(-1, 2), PolyZX))


@given(*[st.integers(0, 12)] * 5)
@settings(max_examples=400, deadline=None)
def test_moyal_weight_matches_the_direct_sum(a1, b1, a2, b2, p):
    # every t, including those where a falling factorial is 0: an empty range
    # gives 0, and a range may start above t = 0
    direct = sum((-1) ** t * comb(p, t) * perm(b1, p - t) * perm(a1, t) * perm(a2, p - t) * perm(b2, t)
                 for t in range(p + 1))
    assert moyal._moyal_weight(a1, b1, a2, b2, p) == direct


def test_moyal_weight_edge_ranges():
    assert moyal._moyal_weight(0, 0, 0, 0, 0) == 1
    assert moyal._moyal_weight(0, 5, 5, 0, 3) == perm(5, 3) ** 2  # t = 0 only
    assert moyal._moyal_weight(1, 0, 0, 1, 1) == -1                # t = 1 only
    assert moyal._moyal_weight(0, 0, 3, 3, 1) == 0                 # no t survives


def ref_component_table(max_degree):
    """The per-pair table: fresh monomials and their text for every pair."""
    monos = [(a, d - a) for d in range(max_degree + 1) for a in range(d + 1)]
    rows = []
    for a1, b1 in monos:
        for a2, b2 in monos:
            phi = PolyZX.monomial(a1, b1)
            psi = PolyZX.monomial(a2, b2)
            comps = {}
            for p in range(min(a1 + b1, a2 + b2) + 1):
                c = moyal._bidifferential(phi, psi, p)
                if not c.is_zero():
                    comps[p] = moyal.polyzx_str(c)
            rows.append({"phi": moyal.polyzx_str(phi), "psi": moyal.polyzx_str(psi), "components": comps})
    return rows


@pytest.mark.parametrize("max_degree", range(9))
def test_component_table_matches_the_per_pair_table(max_degree):
    got, want = moyal.component_table(max_degree), ref_component_table(max_degree)
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        assert row == ref


def test_component_table_builds_no_polynomial(monkeypatch):
    # the table writes each entry from its monomial weight: no bidifferential sum, no PolyZX result
    want = ref_component_table(4)

    def refuse(*args, **kwargs):
        raise AssertionError("component_table built a polynomial")

    monkeypatch.setattr(moyal, "_bidifferential", refuse)
    monkeypatch.setattr(moyal, "_zpoly", refuse)
    assert moyal.component_table(4) == want


def test_moyal_weight_mirrors_with_the_parity_of_p():
    # t -> p - t in the sum: the table weighs each unordered pair once on this
    for a1, b1, a2, b2 in product(range(7), repeat=4):
        for p in range(7):
            assert moyal._moyal_weight(a2, b2, a1, b1, p) == (-1) ** p * moyal._moyal_weight(a1, b1, a2, b2, p)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_c_component_mirrors_with_the_parity_of_p(data):
    d1, d2 = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    phi, psi = data.draw(zx_values(PolyZX, d1)), data.draw(zx_values(PolyZX, d2))
    for p in range(-1, d1 + d2 + 2):
        forward = c_component(phi, psi, p)
        assert c_component(psi, phi, p) == (forward if p % 2 == 0 else -forward)


def test_integer_kernel_cancels_into_one_key():
    # in C_1(f, f) the pairs (zeta, xi) and (xi, zeta) cancel on the constant; in
    # C_1(f, g) they add up; dequantizing w d + 1/2 cancels the constant
    f, g = PolyZX.zeta() + PolyZX.xi(), PolyZX.zeta() - PolyZX.xi()
    assert c_component(f, f, 1).packed == {}
    assert c_component(f, g, 1) == PolyZX.one() == ref_c_component(f, g, 1)
    assert dequantize(WOp({(1, 1): ONE, (0, 0): sc("1/2")})).packed == PolyZX.monomial(1, 1).packed


# ---------------------------------------------------------------------------
# Symbols and operators are never read as one another
# ---------------------------------------------------------------------------

_SYMBOL, _OP, _PLAIN = PolyZX.monomial(1, 1), WOp.w() * WOp.d(), ZPoly.one(2)


@pytest.mark.parametrize("call", [
    lambda x: symmetrize(x),
    lambda x: circle(x, x),
    lambda x: circle(_SYMBOL, x),
    lambda x: circle(x, _SYMBOL),
    lambda x: c_component(x, x, 0),
    lambda x: c_component(_SYMBOL, x, 1),
    lambda x: poisson(x, x),
    lambda x: poisson(_SYMBOL, x),
    lambda x: pairing(x, x),
    lambda x: pairing(_SYMBOL, x),
    lambda x: supertrace(x),
    lambda x: parity(x),
    lambda x: lambda_op("zetaxi", x),
], ids=["symmetrize", "circle", "circle-right", "circle-left", "c_component", "c_component-right",
        "poisson", "poisson-right", "pairing", "pairing-right", "supertrace", "parity", "lambda_op"])
@pytest.mark.parametrize("value", [_OP, _PLAIN], ids=["WOp", "ZPoly"])
def test_symbol_entry_points_reject_non_symbols(call, value):
    with pytest.raises(TypeError):
        call(value)
    call(_SYMBOL)  # the symbol itself is accepted


@pytest.mark.parametrize("value", [_SYMBOL, _PLAIN], ids=["PolyZX", "ZPoly"])
def test_dequantize_rejects_non_operators(value):
    with pytest.raises(TypeError):
        dequantize(value)
    assert dequantize(_OP) == PolyZX({(1, 1): ONE, (0, 0): sc("-1/2")})
