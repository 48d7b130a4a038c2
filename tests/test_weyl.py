"""Operator layer: composition, transforms, filtrations, text form."""

import random
from fractions import Fraction
from math import comb, prod

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from twistedops import rep
from twistedops.ring import (
    LAMBDA,
    LambdaPoly,
    LocFn,
    NEG_INF,
    Scalar,
    SuperFn,
    ZPoly,
    IUNIT,
    ONE,
    ParseError,
)
from twistedops.weyl import (
    DiffOp,
    PolyOpPlus,
    _leibniz,
    _sub_indices,
    diffop_str,
    fourier,
    grlex_key,
    parse_diffop,
    polyop_str,
)


def sc(x):
    return Scalar(Fraction(x))


def mono_fn(J, mono, coeff=ONE, odd=False, k=0):
    ctx = J.ring
    frac = LocFn(ctx, ZPoly.monomial(ctx.n, mono, coeff), k)
    if odd:
        return SuperFn.from_locfn(LocFn.zero(ctx), frac)
    return SuperFn.from_locfn(frac)


# ---------------------------------------------------------------------------
# Composition and commutators
# ---------------------------------------------------------------------------

def test_canonical_commutation(full2):
    d1 = DiffOp.partial(full2, 0)
    z1 = DiffOp.mult(full2, mono_fn(full2, (1, 0, 0, 0)))
    got = d1.compose(z1)
    want = z1.compose(d1) + DiffOp.identity(full2)
    assert got == want
    assert d1.commutator(z1) == DiffOp.identity(full2)
    z2 = DiffOp.mult(full2, mono_fn(full2, (0, 1, 0, 0)))
    assert z1.commutator(z2).is_zero()


def test_w_squares_to_norm(full2):
    W = DiffOp.mult_w(full2)
    assert W.compose(W) == DiffOp.mult(full2, SuperFn.from_zpoly(full2.ring, full2.ring.F))


def test_partial_past_w(full1):
    # d . w = w d + (1/2) z^-1 w
    d = DiffOp.partial(full1, 0)
    W = DiffOp.mult_w(full1)
    got = d.compose(W)
    want = W.compose(d) + DiffOp.mult(full1, mono_fn(full1, (0,), odd=True, k=1).scale(sc("1/2")))
    assert got == want


def test_commutator_with_w_of_second_order(full1):
    # [z d^2, w] = w d - (1/4) z^-1 w, derived by hand from the chain rule
    zd2 = DiffOp(full1, {(2,): mono_fn(full1, (1,))})
    W = DiffOp.mult_w(full1)
    got = zd2.commutator(W)
    want = DiffOp(full1, {
        (1,): mono_fn(full1, (0,), odd=True),
        (0,): mono_fn(full1, (0,), odd=True, k=1).scale(sc("-1/4")),
    })
    assert got == want


def test_operator_context_mismatch(full1, full2):
    from twistedops.ring import ContextMismatchError
    with pytest.raises(ContextMismatchError):
        DiffOp.partial(full1, 0).compose(DiffOp.mult_w(full2))


def test_associativity_random(spin3):
    rng = random.Random(4)

    def rand_op():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            beta = tuple(rng.randint(0, 1) for _ in range(3))
            mono = tuple(rng.randint(0, 1) for _ in range(3))
            terms[beta] = mono_fn(spin3, mono, Scalar(Fraction(rng.randint(-3, 3))),
                                  odd=rng.random() < 0.4, k=rng.randint(0, 1))
        return DiffOp(spin3, terms)

    for _ in range(6):
        A, B, C = rand_op(), rand_op(), rand_op()
        assert A.compose(B).compose(C) == A.compose(B.compose(C))


def leibniz_reference(A, B):
    """A . B term by term: every partial recomputed, every binomial from comb."""
    out = type(A).zero(A.alg)
    for gamma, b in B.terms.items():
        for beta, a in A.terms.items():
            for delta in _sub_indices(beta):
                db = b
                for i, e in enumerate(delta):
                    for _ in range(e):
                        db = db.derivative(i)
                coeff = prod(comb(x, y) for x, y in zip(beta, delta))
                idx = tuple(x - y + g for x, y, g in zip(beta, delta, gamma))
                out = out + type(A)(A.alg, {idx: (a * db).scale(Scalar(coeff))})
    return out


@st.composite
def spin3_operators(draw, J, polynomial):
    """A DiffOp (or PolyOpPlus) on spin:3 with derivative orders up to 2 per
    coordinate; DiffOp coefficients are even, odd or mixed, with F-powers."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        beta = tuple(draw(st.integers(0, 2)) for _ in range(3))
        parts = []
        for odd in (False, True):
            mono = tuple(draw(st.integers(0, 2)) for _ in range(3))
            c = LambdaPoly([Scalar(draw(st.integers(-3, 3))) for _ in range(draw(st.integers(1, 2)))])
            parts.append(ZPoly.monomial(3, mono, c) if polynomial else
                         mono_fn(J, mono, c, odd=odd, k=draw(st.integers(0, 1))))
        if polynomial:
            terms[beta] = parts[0]
        else:
            keep = draw(st.sampled_from(["even", "odd", "both"]))
            terms[beta] = {"even": parts[0], "odd": parts[1], "both": parts[0] + parts[1]}[keep]
    return (PolyOpPlus if polynomial else DiffOp)(J, terms)


@pytest.mark.parametrize("polynomial", [False, True], ids=["DiffOp", "PolyOpPlus"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_compose_matches_leibniz_reference(spin3, polynomial, data):
    A = data.draw(spin3_operators(spin3, polynomial))
    B = data.draw(spin3_operators(spin3, polynomial))
    got, want = A.compose(B), leibniz_reference(A, B)
    assert got == want
    assert str(got) == str(want)
    # the commutator drops the delta = 0 rows, which cancel between the orders
    got, want = A.commutator(B), want - leibniz_reference(B, A)
    assert got == want
    assert str(got) == str(want)
    for beta in list(A.terms) + list(B.terms):
        assert _leibniz(beta)[0] == ((0,) * len(beta), None, beta)


def apply_reference(A, f):
    """A applied to f term by term, lowest derivative order first, every
    partial of f recomputed."""
    out = SuperFn.zero(A.alg.ring)
    for beta, c in sorted(A.terms.items(), key=lambda kv: grlex_key(kv[0])):
        df = f
        for i, e in enumerate(beta):
            for _ in range(e):
                df = df.derivative(i)
        out = out + c * df
    return out


@st.composite
def twisted_functions(draw, J):
    """An even, odd or mixed SuperFn on J: monomials of degree at most one
    per coordinate, coefficients up to L^2, denominators F^k, k = 0..2."""
    parts = []
    for odd in (False, True):
        mono = tuple(draw(st.integers(0, 1)) for _ in range(J.n))
        c = LambdaPoly([Scalar(draw(st.integers(-3, 3))) for _ in range(draw(st.integers(1, 3)))])
        parts.append(mono_fn(J, mono, c, odd=odd, k=draw(st.integers(0, 2))))
    keep = draw(st.sampled_from(["even", "odd", "both"]))
    return {"even": parts[0], "odd": parts[1], "both": parts[0] + parts[1]}[keep]


@st.composite
def twisted_operators(draw, J):
    """A DiffOp on J with one to three terms of derivative order at most 2."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        beta = [0] * J.n
        for _ in range(draw(st.integers(0, 2))):
            beta[draw(st.integers(0, J.n - 1))] += 1
        terms[tuple(beta)] = draw(twisted_functions(J))
    return DiffOp(J, terms)


@pytest.mark.parametrize("algebra", ["full2", "spin3"])
def test_delta_index_matches_row_by_row_references(request, algebra):
    J = request.getfixturevalue(algebra)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def check(data):
        A = data.draw(twisted_operators(J))
        B = data.draw(twisted_operators(J))
        f = data.draw(twisted_functions(J))
        AB, BA = leibniz_reference(A, B), leibniz_reference(B, A)
        for got, want in ((A.compose(B), AB), (A.commutator(B), AB - BA), (B.compose(A), BA)):
            assert got == want
            assert diffop_str(got) == diffop_str(want)
        for op in (A, B, AB):
            got, want = op.apply(f), apply_reference(op, f)
            assert got == want
            assert str(got) == str(want)
        assert A.apply(SuperFn.zero(J.ring)).is_zero()

    check()


def test_apply_examples(full2, full1):
    # (z1 d1)(z1^2) = 2 z1^2
    op = DiffOp(full2, {(1, 0, 0, 0): mono_fn(full2, (1, 0, 0, 0))})
    f = mono_fn(full2, (2, 0, 0, 0))
    assert op.apply(f) == f.scale(Scalar(2))
    assert op.apply(SuperFn.zero(full2.ring)).is_zero()
    # the twisted second-order operator kills constants
    pi = rep.pi_minus(full1, full1.basis_element(0))
    assert pi.apply(SuperFn.one(full1.ring)).is_zero()


def test_apply_is_module_action(spin3):
    rng = random.Random(9)
    A = DiffOp(spin3, {(1, 0, 0): mono_fn(spin3, (0, 1, 0)), (0, 0, 0): mono_fn(spin3, (0, 0, 0), odd=True)})
    B = DiffOp(spin3, {(0, 1, 0): mono_fn(spin3, (1, 0, 0)), (2, 0, 0): mono_fn(spin3, (0, 0, 1))})
    for _ in range(4):
        mono = tuple(rng.randint(0, 2) for _ in range(3))
        f = mono_fn(spin3, mono, odd=rng.random() < 0.5)
        assert A.compose(B).apply(f) == A.apply(B.apply(f))


# ---------------------------------------------------------------------------
# The algebraic Fourier transform
# ---------------------------------------------------------------------------

def test_fourier_generators(full1):
    # multiplication by u -> derivative, derivative -> multiplication by z
    u_mult = PolyOpPlus.mult(full1, ZPoly.coord(1, 0))
    assert fourier(u_mult) == DiffOp.partial(full1, 0)
    du = PolyOpPlus.partial(full1, 0)
    assert fourier(du) == DiffOp.mult(full1, mono_fn(full1, (1,)))
    # anti-rule on u d/du
    ud = PolyOpPlus(full1, {(1,): ZPoly.coord(1, 0)})
    zd = DiffOp(full1, {(1,): mono_fn(full1, (1,))})
    assert fourier(ud) == zd


def test_fourier_twisted_field(full1):
    # u^2 d/du + 2 L u  ->  z d^2 + 2 L d
    op = PolyOpPlus(full1, {
        (1,): ZPoly.monomial(1, (2,)),
        (0,): ZPoly.monomial(1, (1,), LAMBDA.scale(Scalar(2))),
    })
    want = DiffOp(full1, {
        (2,): mono_fn(full1, (1,)),
        (1,): mono_fn(full1, (0,), LAMBDA.scale(Scalar(2))),
    })
    assert fourier(op) == want


def test_fourier_anti_multiplicative(sym2):
    rng = random.Random(12)

    def rand_polyop():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            beta = tuple(rng.randint(0, 1) for _ in range(3))
            mono = tuple(rng.randint(0, 1) for _ in range(3))
            terms[beta] = ZPoly.monomial(3, mono, Scalar(Fraction(rng.randint(-3, 3))))
        return PolyOpPlus(sym2, terms)

    for _ in range(6):
        A, B = rand_polyop(), rand_polyop()
        assert fourier(A.compose(B)) == fourier(B).compose(fourier(A))


def random_polyop(J, rng):
    """A u-side operator of order at most 2: a few terms, each coefficient a
    few monomials of degree at most 2 with Gaussian rational scalars, some
    of them times 1 + L or L^2."""
    n = J.n
    multi = lambda top: tuple(rng.choice([i for i in range(n)] * 2 + [None]) for _ in range(top))
    index = lambda picks: tuple(sum(1 for p in picks if p == k) for k in range(n))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        coeff = ZPoly.zero(n)
        for _ in range(rng.randint(1, 3)):
            c = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-2, 2)))
            twist = rng.choice([None, LambdaPoly((ONE, ONE)), LambdaPoly((Scalar(0), Scalar(0), ONE))])
            coeff = coeff + ZPoly.monomial(n, index(multi(2)), c if twist is None else twist.scale(c))
        beta = index(multi(2))
        terms[beta] = terms.get(beta, ZPoly.zero(n)) + coeff
    return PolyOpPlus(J, terms)


@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4"])
def test_fourier_is_a_linear_anti_homomorphism(selector):
    # the lemma the u-side closure route rests on: brackets, spans and
    # containments carry over to the z-side through fourier
    from twistedops.jordan import from_selector

    J = from_selector(selector)
    rng = random.Random(sum(map(ord, selector)))
    for _ in range(8):
        A, B = random_polyop(J, rng), random_polyop(J, rng)
        assert max(sum(beta) for beta in A.terms) <= 2
        FA, FB = fourier(A), fourier(B)
        assert fourier(A.compose(B)) == FB.compose(FA)
        assert fourier(A + B) == FA + FB
        assert fourier(A.commutator(B)) == FB.commutator(FA)


def test_fourier_builds_the_basis_forms_once_per_algebra(monkeypatch):
    # the n forms tr(b_i o q) are built on the first transform and read
    # back on every later one; the stored forms do not keep J alive
    import gc
    import weakref

    from twistedops import jordan
    J = jordan.make_sym(2)
    ops = [rep.eta_plus(J, J.basis_element(i)) for i in range(J.n)]
    calls = []
    original = jordan.JordanAlgebra.linear_form
    monkeypatch.setattr(jordan.JordanAlgebra, "linear_form",
                        lambda self, x: calls.append(x) or original(self, x))
    images = [fourier(A) for A in ops]
    assert len(calls) == J.n
    assert [fourier(A) for A in ops] == images and len(calls) == J.n
    assert images == [rep.pi_plus(J, J.basis_element(i)).scale(Scalar(-1)) for i in range(J.n)]
    assert len(calls) == 2 * J.n  # pi_plus builds its own form
    gone = weakref.ref(J)
    del J, ops, images
    gc.collect()
    assert gone() is None


def fourier_by_composition(A):
    """The transform as composed operators, term by term: multiplication by
    ell^beta composed with a chain of compositions D^alpha of the
    derivatives along the dual basis vectors, the terms summed as DiffOps."""
    alg = A.alg
    n = alg.n
    out = DiffOp.zero(alg)
    ell = [alg.linear_form(alg.basis_element(i)) for i in range(n)]
    dual_d = [DiffOp.directional(alg, alg.dual_basis_element(i)) for i in range(n)]
    for beta, coeff in A.terms.items():
        mult_poly = ZPoly.one(n)
        for i, e in enumerate(beta):
            for _ in range(e):
                mult_poly = mult_poly * ell[i]
        for alpha, lam_coeff in coeff.sorted_terms():
            dop = DiffOp.identity(alg)
            for i, e in enumerate(alpha):
                for _ in range(e):
                    dop = dop.compose(dual_d[i])
            mult = DiffOp.mult(alg, SuperFn.from_zpoly(alg.ring, mult_poly))
            out = out + mult.compose(dop.scale(lam_coeff))
    return out


def random_polyop3(J, rng):
    """A u-side operator of order at most 3 whose coefficients have u-degree
    at most 3: Gaussian rational scalars, some times L, 1 + L or L^2."""
    n = J.n
    index = lambda top: tuple(map([rng.randrange(n) for _ in range(rng.randint(0, top))].count, range(n)))
    twists = [LambdaPoly((ONE,)), LAMBDA, LambdaPoly((ONE, ONE)), LambdaPoly((Scalar(0), Scalar(0), ONE))]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        beta = index(3)
        for _ in range(rng.randint(1, 3)):
            c = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-2, 2)))
            mono = ZPoly.monomial(n, index(3), rng.choice(twists).scale(c))
            terms[beta] = terms.get(beta, ZPoly.zero(n)) + mono
    return PolyOpPlus(J, terms)


@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4", "sym:3", "full:3"])
def test_fourier_on_symbols_matches_the_composition_route(selector):
    # the ring map on symbols is the transform that composed operators:
    # equal operators and equal text on the eta fields at formal L and
    # at 3/7, on multiplication by F, and on random operators of order 3
    from twistedops.jordan import from_selector

    J = from_selector(selector)
    basis = [J.basis_element(i) for i in range(J.n)]
    ops = [rep.eta_plus(J, x) for x in basis]
    ops += [rep.eta_minus(J, x, lam) for lam in (None, Fraction(3, 7)) for x in basis]
    ops = [A.scale(Scalar(-1)) for A in ops] + [PolyOpPlus.mult(J, J.normF)]
    rng = random.Random(sum(map(ord, selector)))
    ops += [random_polyop3(J, rng) for _ in range(200)]
    assert max(sum(beta) for A in ops[-200:] for beta in A.terms) == 3
    for A in ops:
        got, want = fourier(A), fourier_by_composition(A)
        assert got == want and diffop_str(got) == diffop_str(want), polyop_str(A)


def test_fourier_composes_no_operator(monkeypatch):
    # the transform multiplies symbols, so no Leibniz sum runs inside it
    from twistedops import weyl
    from twistedops.jordan import from_selector

    J = from_selector("full:3")
    ops = [rep.eta_minus(J, J.basis_element(i)) for i in range(J.n)] + [PolyOpPlus.mult(J, J.normF)]
    sums = []
    original = weyl._NormalOrdered._leibniz_sum
    monkeypatch.setattr(weyl._NormalOrdered, "_leibniz_sum",
                        lambda self, other, first: sums.append(first) or original(self, other, first))
    images = [fourier(A) for A in ops]
    assert sums == [] and not any(B.is_zero() for B in images)


# ---------------------------------------------------------------------------
# The sign anti-automorphism and conjugation by w
# ---------------------------------------------------------------------------

def test_delta_on_z_times_d(full2):
    z1d1 = DiffOp(full2, {(1, 0, 0, 0): mono_fn(full2, (1, 0, 0, 0))})
    got = z1d1.delta_map()
    assert got == -z1d1 - DiffOp.identity(full2)


def test_delta_on_w_sign(full2, spin3, full1):
    for J in (full1, full2, spin3):
        W = DiffOp.mult_w(J)
        assert W.delta_map() == W.scale(IUNIT ** J.r)
    # r = 2: the sign is -1
    assert DiffOp.mult_w(full2).delta_map() == DiffOp.mult_w(full2).scale(Scalar(-1))


def test_delta_involutive_on_even(full2):
    z1 = DiffOp.mult(full2, mono_fn(full2, (1, 0, 0, 0)))
    assert z1.delta_map().delta_map() == z1


def test_delta_anti_multiplicative(spin3):
    rng = random.Random(21)

    def rand_op():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            beta = tuple(rng.randint(0, 1) for _ in range(3))
            mono = tuple(rng.randint(0, 1) for _ in range(3))
            terms[beta] = mono_fn(spin3, mono, Scalar(Fraction(rng.randint(-2, 2))),
                                  odd=rng.random() < 0.5)
        return DiffOp(spin3, terms)

    for _ in range(5):
        A, B = rand_op(), rand_op()
        assert A.compose(B).delta_map() == B.delta_map().compose(A.delta_map())


def test_delta_square_is_galois_sign(spin3, full2):
    # delta^2 multiplies the odd part by (i^r)^2 = (-1)^r
    for J in (spin3, full2):
        W = DiffOp.mult_w(J)
        assert W.delta_map().delta_map() == W.scale(Scalar(-1) ** J.r)


def test_conjugation_by_w(full1, full2):
    # multiplication operators are fixed
    z1 = DiffOp.mult(full2, mono_fn(full2, (1, 0, 0, 0)))
    assert z1.conjugate_by_w() == z1
    W = DiffOp.mult_w(full2)
    assert W.conjugate_by_w() == W
    # n = 1: w d w^-1 = d - (1/2) z^-1
    d = DiffOp.partial(full1, 0)
    want = d + DiffOp.mult(full1, mono_fn(full1, (0,), k=1).scale(sc("-1/2")))
    assert d.conjugate_by_w() == want


def test_conjugation_invertible(spin3):
    A = DiffOp(spin3, {(1, 1, 0): mono_fn(spin3, (0, 0, 1), odd=True, k=1)})
    Winv = DiffOp.mult_w_inv(spin3)
    W = DiffOp.mult_w(spin3)
    back = Winv.compose(A.conjugate_by_w()).compose(W)
    assert back == A


# ---------------------------------------------------------------------------
# Filtrations
# ---------------------------------------------------------------------------

def test_order_and_sharp_of_twisted_operator(sym2):
    pi = rep.pi_minus(sym2, sym2.basis_element(0))
    assert pi.order() == 2
    assert pi.sharp_degree() == 1


def test_sharp_of_w_and_powers(full2, full1):
    assert DiffOp.mult_w(full2).sharp_degree() == Fraction(full2.r, 2)
    # coefficient z^2 with a second derivative: sharp degree 2
    op = DiffOp(full1, {(2,): mono_fn(full1, (2,))})
    assert op.sharp_degree() == 2
    assert op.order() == 2
    assert DiffOp.zero(full1).order() == NEG_INF
    assert DiffOp.zero(full1).sharp_degree() == NEG_INF


def test_filtration_laws(full1):
    rng = random.Random(2)

    def rand_op():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            beta = (rng.randint(0, 2),)
            mono = (rng.randint(0, 2),)
            terms[beta] = mono_fn(full1, mono, Scalar(Fraction(rng.randint(-3, 3))),
                                  odd=rng.random() < 0.5, k=rng.randint(0, 1))
        return DiffOp(full1, terms)

    for _ in range(12):
        A, B = rand_op(), rand_op()
        sa, sb = A.sharp_degree(), B.sharp_degree()
        assert A.compose(B).sharp_degree() <= sa + sb
        assert A.commutator(B).sharp_degree() <= sa + sb - 1


# ---------------------------------------------------------------------------
# Text round trip
# ---------------------------------------------------------------------------

def test_canonical_text_of_twisted_operator(full1):
    pi = rep.pi_minus(full1, full1.basis_element(0))
    assert diffop_str(pi) == "(-1)*z1 * d1^2 + (-2)(L) * d1"
    assert parse_diffop(diffop_str(pi), full1) == pi


def test_roundtrip_with_denominators(full2):
    op = DiffOp(full2, {
        (1, 0, 2, 0): mono_fn(full2, (0, 1, 0, 0), Scalar(Fraction(-2, 3), Fraction(1, 2)), odd=True, k=2),
        (0, 0, 0, 0): mono_fn(full2, (0, 0, 0, 0), LAMBDA.scale(sc(3)) + LambdaPoly.const(sc(1))),
    })
    text = diffop_str(op)
    assert parse_diffop(text, full2) == op
    assert diffop_str(parse_diffop(text, full2)) == text


def test_zero_operator_text(full1):
    assert diffop_str(DiffOp.zero(full1)) == "0"
    assert parse_diffop("0", full1).is_zero()


@pytest.mark.parametrize("text", [
    "(1)*z1^-1",       # negative exponent
    "(1)*w*w",         # w twice (w*w is F, not w)
    "(1",              # unclosed group
    "(1)*d1^",         # missing exponent
    "(1)*z",           # missing index
    "(1)*zx",          # non-numeric index
    "(1)*z1 / F^x",    # non-numeric F-power
    "(1)(L^)",         # missing L exponent
])
def test_parse_rejects_malformed(full2, text):
    with pytest.raises(ParseError):
        parse_diffop(text, full2)


def test_parse_sum_with_high_denominator_power(full1):
    # lifting the lower term to F^1200 must not recurse once per power
    op = parse_diffop("(1) / F^1200 + (1)", full1)
    assert parse_diffop(diffop_str(op), full1) == op


def test_operator_types_never_equal(full1):
    assert DiffOp.zero(full1) != PolyOpPlus.zero(full1)
    assert PolyOpPlus.zero(full1) != DiffOp.zero(full1)


_GROUPS = ["(1)", "(-2/3)", "(1+1i)", "(0)", "(2)(L)", "(1)(1 + -2*L + L^2)", "(1)(L^)", "(1", "1"]
_FACTORS = ["z1", "z2^2", "z4", "w", "F", "F^2", "d1", "d3^2", "z5", "z", "z1^-1", "d1^", "x", ""]
_SEPARATORS = ["*", " * ", "/", " / ", " "]

_terms = st.tuples(
    st.sampled_from(_GROUPS),
    st.lists(st.tuples(st.sampled_from(_SEPARATORS), st.sampled_from(_FACTORS)), max_size=4),
).map(lambda t: t[0] + "".join(sep + f for sep, f in t[1]))

# free text leaves out '+' so that no sum can ask for a huge power of F
_texts = st.one_of(
    st.text(alphabet="()0123456789-*/^ zdwFLi", max_size=24),
    st.lists(_terms, min_size=1, max_size=3).map(" + ".join),
)


@given(text=_texts)
@settings(max_examples=300, deadline=None)
def test_parse_accepts_or_raises_parse_error(full2, text):
    try:
        op = parse_diffop(text, full2)
    except ParseError:
        return
    printed = diffop_str(op)
    assert parse_diffop(printed, full2) == op
    assert diffop_str(parse_diffop(printed, full2)) == printed


# ---------------------------------------------------------------------------
# Cross-validation against sympy on the one-coordinate algebra
# ---------------------------------------------------------------------------

def _superfn_to_sympy(f, z, L):
    def loc_to_sympy(loc):
        # exponent vectors are (z-exponent, L-exponent)
        num = sum(
            (sympy.Rational(c.re) + sympy.Rational(c.im) * sympy.I) * L ** mono[1] * z ** mono[0]
            for mono, c in loc.num.terms.items()
        )
        return num / z ** loc.k

    return loc_to_sympy(f.ev) + loc_to_sympy(f.od) * sympy.sqrt(z)


def _diffop_to_sympy_action(A, expr, z, L):
    total = sympy.Integer(0)
    for beta, c in A.terms.items():
        total += _superfn_to_sympy(c, z, L) * sympy.diff(expr, z, beta[0])
    return sympy.simplify(total)


def test_apply_matches_sympy(full1):
    z, L = sympy.symbols("z L", positive=True)
    rng = random.Random(17)
    ops = [
        rep.pi_minus(full1, full1.basis_element(0)),
        DiffOp(full1, {(2,): mono_fn(full1, (1,))}),
        DiffOp.mult_w(full1).compose(DiffOp.partial(full1, 0)),
    ]
    for A in ops:
        for _ in range(3):
            f = mono_fn(full1, (rng.randint(0, 3),), Scalar(Fraction(rng.randint(1, 4))),
                        odd=rng.random() < 0.5, k=rng.randint(0, 1))
            got = _superfn_to_sympy(A.apply(f), z, L)
            want = _diffop_to_sympy_action(A, _superfn_to_sympy(f, z, L), z, L)
            assert sympy.simplify(got - want) == 0


def test_compose_matches_sympy(full1):
    z, L = sympy.symbols("z L", positive=True)
    A = rep.pi_minus(full1, full1.basis_element(0))
    B = DiffOp.mult_w(full1).compose(DiffOp.partial(full1, 0))
    AB = A.compose(B)
    for k in range(4):
        f = mono_fn(full1, (k,), odd=(k % 2 == 0))
        lhs = _superfn_to_sympy(AB.apply(f), z, L)
        rhs = _diffop_to_sympy_action(A, _diffop_to_sympy_action(B, _superfn_to_sympy(f, z, L), z, L), z, L)
        assert sympy.simplify(lhs - rhs) == 0


# ---------------------------------------------------------------------------
# Per-operator partials
# ---------------------------------------------------------------------------

def _derivative_calls(monkeypatch):
    calls = []
    original = SuperFn.derivative

    def spy(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(SuperFn, "derivative", spy)
    return calls


def test_commutator_same_with_cold_warm_or_fresh_partials(monkeypatch):
    import dataclasses
    import weakref

    from twistedops import jordan, weyl

    J = jordan.make_full(2)
    A = rep.pi_minus(J, J.idempotent_elem())
    build_B = lambda: rep.semi_invariant_w_dF(J)
    other = rep.pi_minus(J, J.basis_element(1))

    cold = build_B()
    assert cold._partials is None and cold._by_delta is None
    assert A._by_delta is None
    want = A.commutator(cold)
    assert want == leibniz_reference(A, build_B()) - leibniz_reference(build_B(), A)
    # filled on first use, kept on the operators: each side of a commutator
    # stands once on the left (its delta index) and once on the right (its partials)
    assert cold._partials and cold._by_delta and A._partials and A._by_delta
    assert {delta for delta, _ in cold._by_delta} == {
        delta for beta in cold.terms for delta, _, _ in _leibniz(beta)}
    assert cold._by_delta[0][0] == (0,) * J.n
    index = A._by_delta
    warm = build_B()
    other.commutator(warm)  # warm with another operator's rows
    fresh = build_B()
    assert fresh == cold and fresh._partials is None and fresh._by_delta is None
    calls = _derivative_calls(monkeypatch)
    again = A.commutator(cold)
    assert calls == []  # both operators' partials are kept from the first commutator
    assert A._by_delta is index  # and the index is built once
    for B in (cold, warm, fresh):
        got = A.commutator(B)
        assert got == want and diffop_str(got) == diffop_str(want)
    assert diffop_str(again) == diffop_str(want)
    assert A.compose(cold) == A.compose(DiffOp(J, cold.terms))

    # an m + 1 control builds its own operators, with their own partials
    skew = dataclasses.replace(J, m=J.m + 1)
    T = rep.semi_invariant_w_dF(skew)
    pi = rep.pi_minus(skew, skew.basis_element(0), rep.critical_pair(skew)[0])
    assert T._partials is None and pi._partials is None
    assert T._by_delta is None and pi._by_delta is None
    got = pi.commutator(T)
    assert T._partials is not cold._partials and pi._partials is not A._partials
    assert T._by_delta is not cold._by_delta and pi._by_delta is not A._by_delta
    assert T._by_delta and pi._by_delta
    assert diffop_str(got) == diffop_str(DiffOp(skew, pi.terms).commutator(DiffOp(skew, T.terms)))
    assert not got.is_zero()

    # the partials live on operators only: weyl keeps no module-level store
    stores = [name for name, value in vars(weyl).items() if not name.startswith("__")
              and isinstance(value, (dict, list, set, weakref.WeakKeyDictionary, weakref.WeakValueDictionary))]
    assert stores == []


def test_closure_takes_no_derivative_of_zero_and_a_repeat_takes_none(monkeypatch):
    from twistedops import jordan, verify

    J = jordan.make_full(2)
    zero_seen = []

    def spy_on(cls):
        original = cls.derivative

        def spy(self, i):
            zero_seen.append(self.is_zero())
            return original(self, i)

        monkeypatch.setattr(cls, "derivative", spy)

    # the Fourier link holds, so closure brackets the u-side fields, whose
    # coefficients are ZPolys
    assert verify.check_fourier(J).ok
    spy_on(ZPoly)
    assert verify.check_closure(J).ok
    assert zero_seen and not any(zero_seen)  # a zero partial is remembered, never differentiated
    monkeypatch.undo()
    spy_on(SuperFn)
    P, M = rep.pi_plus(J, J.basis_element(1)), rep.pi_minus(J, J.basis_element(2))
    zero_seen.clear()
    first = P.commutator(M)
    assert zero_seen and not any(zero_seen)
    zero_seen.clear()
    assert P.commutator(M) == first and zero_seen == []


def test_partials_past_the_degree_of_a_polynomial_coefficient_are_skipped(monkeypatch):
    import math

    from twistedops import jordan, verify, weyl

    J = jordan.make_full(2)
    z = lambda *mono: ZPoly.monomial(4, mono)
    polynomial = DiffOp(J, {(2, 0, 0, 1): SuperFn.from_zpoly(J.ring, z(1, 0, 0, 0) * z(0, 1, 0, 0)),
                            (1, 1, 0, 0): SuperFn.from_zpoly(J.ring, z(0, 0, 0, 1).scale(Scalar(0, 2)))})
    with_w = DiffOp(J, {(1, 0, 1, 0): mono_fn(J, (1, 0, 0, 1), odd=True),
                        (0, 0, 0, 2): mono_fn(J, (0, 2, 0, 0))})
    with_f_inverse = DiffOp(J, {(0, 2, 0, 0): mono_fn(J, (1, 0, 0, 0), k=1),
                                (1, 0, 0, 0): mono_fn(J, (0, 0, 1, 0), odd=True, k=2)})
    ops = [polynomial, with_w, with_f_inverse, rep.pi_minus(J, J.basis_element(1)),
           rep.semi_invariant_w_dF(J), DiffOp.mult_w_inv(J).compose(DiffOp.partial(J, 3))]
    for A in ops:
        for B in ops:
            AB, BA = leibniz_reference(A, B), leibniz_reference(B, A)
            assert A.compose(B) == AB and diffop_str(A.compose(B)) == diffop_str(AB)
            assert A.commutator(B) == AB - BA and diffop_str(A.commutator(B)) == diffop_str(AB - BA)
    etas = [rep.eta_minus(J, J.basis_element(1)), rep.eta_plus(J, J.basis_element(2)),
            rep.eta_minus(J, J.idempotent_elem())]
    for A in etas:
        for B in etas:
            assert A.compose(B) == leibniz_reference(A, B)

    # on full:3's z-side k-span the bound takes derivatives that reading
    # each zero partial off its lowered chain would take: a second-order
    # row of pi^y meets the linear form of pi^x, which involves every
    # variable, so the support skip leaves those partials to the bound
    def span_derivatives():
        calls = _derivative_calls(monkeypatch)
        assert rep.k_span(jordan.make_full(3))[1] == 17
        monkeypatch.undo()
        return len(calls)

    bounded = span_derivatives()
    reach = weyl._reach
    monkeypatch.setattr(weyl, "_reach", lambda c: (math.inf, reach(c)[1]))
    unbounded = span_derivatives()
    assert bounded < unbounded


def test_partials_along_absent_variables_are_skipped(monkeypatch):
    from twistedops import jordan, verify, weyl

    def closure_lookups():
        calls = []
        original = weyl._partial

        def spy(cache, idx):
            calls.append(idx)
            return original(cache, idx)

        monkeypatch.setattr(weyl, "_partial", spy)
        assert verify.check_closure(jordan.make_full(3)).ok
        monkeypatch.undo()
        return len(calls)

    skipping = closure_lookups()
    reach = weyl._reach
    monkeypatch.setattr(weyl, "_reach", lambda c: (reach(c)[0], -1))  # every variable
    every = closure_lookups()
    assert skipping < every


def _bits(n, monos):
    return sum(1 << i for i in range(n) if any(mono[i] for mono in monos))


@st.composite
def sparse_operators(draw, J, polynomial):
    """An operator on J of order at most 2 whose coefficients each omit a
    random subset of the variables.  PolyOpPlus coefficients are ZPolys;
    DiffOp coefficients are polynomial, odd (a multiple of w) or over a
    power of F."""
    n = J.n
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        beta = [0] * n
        for _ in range(draw(st.integers(0, 2))):
            beta[draw(st.integers(0, n - 1))] += 1
        present = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        num = ZPoly.zero(n)
        for _ in range(draw(st.integers(1, 2))):
            mono = tuple(draw(st.integers(0, 2)) if keep else 0 for keep in present)
            lam = LambdaPoly([Scalar(draw(st.integers(-3, 3))) for _ in range(draw(st.integers(1, 2)))])
            num = num + ZPoly.monomial(n, mono, lam)
        if polynomial:
            terms[tuple(beta)] = num
            continue
        kind = draw(st.sampled_from(["polynomial", "odd", "F power"]))
        frac = LocFn(J.ring, num, 0 if kind == "polynomial" else draw(st.integers(0 if kind == "odd" else 1, 2)))
        terms[tuple(beta)] = SuperFn.from_locfn(LocFn.zero(J.ring), frac) if kind == "odd" else SuperFn.from_locfn(frac)
    return (PolyOpPlus if polynomial else DiffOp)(J, terms)


@pytest.mark.parametrize("polynomial", [False, True], ids=["DiffOp", "PolyOpPlus"])
@pytest.mark.parametrize("algebra", ["sym2", "full2", "spin4"])
def test_support_skip_matches_leibniz_reference(request, algebra, polynomial):
    from twistedops import weyl

    J = request.getfixturevalue(algebra)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def check(data):
        A = data.draw(sparse_operators(J, polynomial))
        B = data.draw(sparse_operators(J, polynomial))
        for c in list(A.terms.values()) + list(B.terms.values()):
            if polynomial or (c.is_polynomial() and c.od.is_zero()):
                num = c if polynomial else c.ev.num
                assert weyl._reach(c)[1] == _bits(J.n, num.terms)
            else:
                assert weyl._reach(c)[1] == -1  # w and F involve every variable
        AB, BA = leibniz_reference(A, B), leibniz_reference(B, A)
        for got, want in ((A.compose(B), AB), (A.commutator(B), AB - BA), (B.compose(A), BA)):
            assert got == want
            assert str(got) == str(want)

    check()


def test_each_algebra_has_one_w_and_one_w_inverse_operator():
    import dataclasses

    from twistedops import jordan

    J = jordan.make_full(2)
    W, Winv = DiffOp.mult_w(J), DiffOp.mult_w_inv(J)
    assert DiffOp.mult_w(J) is W and DiffOp.mult_w_inv(J) is Winv
    assert W == DiffOp.mult(J, SuperFn.w(J.ring)) and Winv == DiffOp.mult(J, SuperFn.w_inv(J.ring))
    rep.pi_minus(J, J.basis_element(0)).conjugate_by_w()
    assert Winv._partials
    skew = dataclasses.replace(J, m=J.m + 1)
    assert DiffOp.mult_w(skew) is not W and DiffOp.mult_w_inv(skew) is not Winv
    assert DiffOp.mult_w(skew)._partials is None and DiffOp.mult_w_inv(skew)._partials is None


def test_a_passing_w_conjugation_forms_no_partial_of_w_inverse(monkeypatch):
    from twistedops import jordan, verify

    J = jordan.from_selector("spin:6")
    n = J.n
    w_inv = SuperFn.w_inv(J.ring)
    chain = [w_inv] + [w_inv.derivative(i) for i in range(n)]  # every partial of order 2 is taken of one of these
    calls = []
    original = SuperFn.derivative

    def spy(self, i):
        calls.append(any(self == f for f in chain))
        return original(self, i)

    monkeypatch.setattr(SuperFn, "derivative", spy)
    assert verify.check_w_conjugation(J).ok
    first = sum(calls)
    calls.clear()
    assert verify.check_w_conjugation(J).ok
    verify._w_conjugation_witness(J)  # the minus side again, past its per-algebra verdict
    again = sum(calls)
    assert first == 0
    assert again == 0


def per_term_delta_map(A):
    """Reference: delta(c d^beta) = d^beta . delta(c), one composition per
    term, summed with ``+``."""
    from twistedops.weyl import _flip_superfn
    alg = A.alg
    out = DiffOp.zero(alg)
    for beta, c in A.terms.items():
        flipped = DiffOp.mult(alg, _flip_superfn(c, IUNIT ** alg.r))
        out = out + DiffOp(alg, {beta: SuperFn.one(alg.ring)}).compose(flipped)
    return out


@pytest.mark.parametrize("variant", ["algebra", "m+1", "corrupt", "corrupt-noncommutative"])
@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4"])
def test_delta_map_in_one_pass_is_the_per_term_composition(selector, variant, monkeypatch):
    from twistedops.jordan import from_selector
    from test_verify import VARIANTS

    J = VARIANTS[variant](from_selector(selector))
    W = DiffOp.mult_w(J)
    pis = [rep.pi_minus(J, J.basis_element(i)) for i in range(J.n)]
    ops = [*pis, W.compose(pis[0]), DiffOp.mult_w_inv(J), pis[-1].commutator(W).scale(LAMBDA)]
    calls = _derivative_calls(monkeypatch)
    for A in ops:
        calls.clear()
        got = A.delta_map()
        taken = len(calls)
        calls.clear()
        want = per_term_delta_map(A)
        assert got == want and diffop_str(got) == diffop_str(want)
        assert taken == len(calls)  # the same degree and support skips
