"""Twisted operator families, symmetry span, module action."""

import dataclasses
import gc
import weakref
from fractions import Fraction

import pytest

from twistedops import rep
from twistedops.jordan import JElem, PrimitiveIdempotentError, from_selector
from twistedops.ring import LAMBDA, DegreeError, LambdaPoly, LocFn, Scalar, SuperFn, ZPoly, ONE, ZERO
from twistedops.weyl import DiffOp, PolyOpPlus, fourier

from test_jordan import corrupt_structure
from test_verify import ALGEBRAS


def sc(x):
    return Scalar(Fraction(x))


def mono_fn(J, mono, coeff=ONE, odd=False, k=0):
    ctx = J.ring
    frac = LocFn(ctx, ZPoly.monomial(ctx.n, mono, coeff), k)
    if odd:
        return SuperFn.from_locfn(LocFn.zero(ctx), frac)
    return SuperFn.from_locfn(frac)


# ---------------------------------------------------------------------------
# Generator selectors
# ---------------------------------------------------------------------------

def test_integer_twists_specialize_like_fractions(sym2):
    from twistedops import verify
    for i in range(sym2.n):
        y = sym2.basis_element(i)
        assert rep.pi_minus(sym2, y, 1) == rep.pi_minus(sym2, y, Fraction(1))
        assert rep.eta_minus(sym2, y, -2) == rep.eta_minus(sym2, y, Fraction(-2))
    assert verify.run_suite(sym2, "closure", lam_value=2).overall == "pass"


def test_generator_selectors(full2):
    g = rep.generator_from_selector(full2, "p+:1")
    assert g.side == "plus" and g.element == full2.basis_element(0)
    g = rep.generator_from_selector(full2, "p-:4")
    assert g.side == "minus" and g.element == full2.basis_element(3)
    g = rep.generator_from_selector(full2, "idem")
    assert g.side == "minus" and g.element == full2.idempotent_elem()
    with pytest.raises(ValueError):
        rep.generator_from_selector(full2, "p+:9")
    with pytest.raises(ValueError):
        rep.generator_from_selector(full2, "k:1")
    for bad in ("p+:0_1", "p-: 2", "p-:2 ", "p+:+1", "p-:-1", "p+:0", "p+:01", "p-:"):
        with pytest.raises(ValueError):
            rep.generator_from_selector(full2, bad)


# ---------------------------------------------------------------------------
# The multiplication side
# ---------------------------------------------------------------------------

def test_pi_plus_rank_one(full1):
    op = rep.pi_plus(full1, full1.basis_element(0))
    assert op == DiffOp.mult(full1, mono_fn(full1, (1,)))
    zero = rep.pi_plus(full1, full1.zero_elem())
    assert zero.is_zero()


def test_pi_plus_full2_offdiagonal(full2):
    # tr(E12 o q) = z21, the coordinate paired by the trace form
    op = rep.pi_plus(full2, full2.basis_element(1))
    assert op == DiffOp.mult(full2, mono_fn(full2, (0, 0, 1, 0)))


# ---------------------------------------------------------------------------
# The derivative side
# ---------------------------------------------------------------------------

def test_pi_minus_rank_one(full1):
    op = rep.pi_minus(full1, full1.basis_element(0))
    want = DiffOp(full1, {
        (2,): mono_fn(full1, (1,), sc(-1)),
        (1,): mono_fn(full1, (0,), LAMBDA.scale(sc(-2))),
    })
    assert op == want


def test_pi_minus_takes_the_twist_as_a_lambda_poly(sym2):
    # a LambdaPoly twist is used as given: a constant one equals the same
    # value given as a Fraction, and L itself is the formal default
    lam0, _ = rep.critical_pair(sym2)
    y = sym2.idempotent_elem()
    for value in (lam0, Fraction(-2, 9), 0):
        as_poly = LambdaPoly.from_rational(value)
        assert rep.pi_minus(sym2, y, as_poly) == rep.pi_minus(sym2, y, Fraction(value))
    assert rep.pi_minus(sym2, y, LAMBDA) == rep.pi_minus(sym2, y)
    shifted = LAMBDA + LambdaPoly.from_rational(1)
    assert rep.pi_minus(sym2, y, shifted) == rep.pi_minus(sym2, y).subst_lambda(shifted)


def test_pi_minus_kills_constants(sym2, spin4):
    for J in (sym2, spin4):
        for i in range(J.n):
            op = rep.pi_minus(J, J.basis_element(i))
            assert op.apply(SuperFn.one(J.ring)).is_zero()


def spin_product(a, b):
    # test-local closed form of the spin product, independent of the tables
    alpha, u = a[0], a[1:]
    beta, v = b[0], b[1:]
    dot = sum((x * y for x, y in zip(u, v)), Fraction(0))
    return (alpha * beta + dot,) + tuple(alpha * y + beta * x for x, y in zip(u, v))


def spin_triple(a, b, c):
    ab_c = spin_product(spin_product(a, b), c)
    a_bc = spin_product(a, spin_product(b, c))
    ac_b = spin_product(spin_product(a, c), b)
    return tuple(x + y - z for x, y, z in zip(ab_c, a_bc, ac_b))


def test_pi_minus_spin4_against_expansion_oracle(spin4):
    # brute-force expansion over basis pairs with a test-local spin model
    J = spin4
    n = J.n
    y = (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
    op = rep.pi_minus(J, J.idempotent_elem())
    basis = [tuple(Fraction(int(t == i)) for t in range(n)) for i in range(n)]
    # trace form is 2*(Minkowski-free dot); dual basis vectors are b_i / 2
    dual = [tuple(x / 2 for x in b) for b in basis]

    def spin_trace(x):
        return 2 * x[0]

    expected = {}
    for i in range(n):
        for j in range(n):
            trip = spin_triple(dual[i], y, dual[j])
            for k in range(n):
                coeff = spin_trace(spin_product(trip, basis[k]))
                if coeff:
                    beta = tuple((1 if t == i else 0) + (1 if t == j else 0) for t in range(n))
                    key = (beta, k)
                    expected[key] = expected.get(key, Fraction(0)) - coeff
    want = DiffOp.zero(J)
    for (beta, k), c in expected.items():
        if c:
            mono = tuple(1 if t == k else 0 for t in range(n))
            want = want + DiffOp(J, {beta: mono_fn(J, mono, Scalar(c))})
    lam_part = DiffOp.zero(J)
    for i, yi in enumerate(y):
        if yi:
            beta = tuple(1 if t == i else 0 for t in range(n))
            lam_part = lam_part + DiffOp(J, {beta: mono_fn(J, (0,) * n, LAMBDA.scale(Scalar(-2 * J.m * yi)))})
    assert op == want + lam_part


def _twist(lam):
    return LAMBDA if lam is None else LambdaPoly.from_rational(lam)


def pi_minus_by_pairs(J, y, lam=None):
    """Reference: - sum_{i<=j} c_ij tr({b^i, y, b^j} o q) d_i d_j - 2 m L d^y,
    c_ii = 1 and c_ij = 2, one dual-basis triple per pair."""
    lam = _twist(lam)
    n = J.n
    terms = {}
    duals = [J.dual_basis_element(i) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            form = J.linear_form(J.triple(duals[i], y, duals[j]))
            idx = tuple((2 if k == i else 0) if i == j else (1 if k in (i, j) else 0) for k in range(n))
            coeff = SuperFn.from_zpoly(J.ring, form.scale(Scalar(-1 if i == j else -2)))
            terms[idx] = terms.get(idx, SuperFn.zero(J.ring)) + coeff
    scale = lam.scale(Scalar(-2 * J.m))
    for i, yi in enumerate(y.coords):
        idx = tuple(1 if k == i else 0 for k in range(n))
        terms[idx] = terms.get(idx, SuperFn.zero(J.ring)) + SuperFn.const(J.ring, scale.scale(yi))
    return DiffOp(J, terms)


def eta_minus_by_pairs(J, y, lam=None):
    """Reference: the field sum_{i<=j} c_ij u_i u_j {b_i, y, b_j} and the
    function 2 m L sum_ij u_i G_ij y_j, with the Gram matrix G."""
    lam = _twist(lam)
    n = J.n
    terms = {}
    for i in range(n):
        for j in range(i, n):
            trip = J.triple(J.basis_element(i), y, J.basis_element(j))
            mono = tuple((2 if k == i else 0) if i == j else (1 if k in (i, j) else 0) for k in range(n))
            for k, c in enumerate(trip.coords):
                idx = tuple(1 if t == k else 0 for t in range(n))
                add = ZPoly.monomial(n, mono, c * Scalar(1 if i == j else 2))
                terms[idx] = terms.get(idx, ZPoly.zero(n)) + add
    fn = ZPoly.zero(n)
    two_m = lam.scale(Scalar(2 * J.m))
    for i in range(n):
        g = sum((yj * Scalar(J.gram[i][j]) for j, yj in enumerate(y.coords)), ZERO)
        fn = fn + ZPoly.monomial(n, tuple(1 if t == i else 0 for t in range(n)), two_m.scale(g))
    terms[(0,) * n] = fn
    return PolyOpPlus(J, terms)


@pytest.mark.parametrize("selector", ALGEBRAS)
def test_twisted_families_match_basis_pair_references(selector):
    # pi^y and eta^y are built from the generic element; the references
    # sum over basis pairs, as the paper's coordinate formulas do
    J = from_selector(selector)
    lam0, lam0p = rep.critical_pair(J)
    # an off-basis y with mixed coordinates scales the per-basis rows
    mixed = JElem(([sc(Fraction(1, 2)), sc(-3), Scalar(0, 1)] + [ZERO] * J.n)[:J.n])
    elems = [J.basis_element(i) for i in range(J.n)] + [J.idempotent_elem(), mixed]
    # the m+1 control is its own algebra: its own -2mL term and its own rows
    control = dataclasses.replace(J, m=J.m + 1)
    for K in (J, control):
        for y in elems:
            for lam in (None, rep.GENERIC_TWIST, lam0, lam0p):
                assert rep.pi_minus(K, y, lam) == pi_minus_by_pairs(K, y, lam)
                assert rep.eta_minus(K, y, lam) == eta_minus_by_pairs(K, y, lam)
    # a copy with a corrupted product shares the selector and the ring, not the rows
    bad = corrupt_structure(J)
    assert any(rep.pi_minus(bad, y) != rep.pi_minus(J, y) for y in elems)
    # the rows do not keep their algebra alive
    gone = weakref.ref(control)
    del K, control
    gc.collect()
    assert gone() is None


# ---------------------------------------------------------------------------
# The vector fields on the opposite patch
# ---------------------------------------------------------------------------

def test_eta_rank_one(full1):
    eta_p = rep.eta_plus(full1, full1.basis_element(0))
    assert eta_p == PolyOpPlus(full1, {(1,): ZPoly.const(1, sc(-1))})
    eta_m = rep.eta_minus(full1, full1.basis_element(0))
    want = PolyOpPlus(full1, {
        (1,): ZPoly.monomial(1, (2,)),
        (0,): ZPoly.monomial(1, (1,), LAMBDA.scale(sc(2))),
    })
    assert eta_m == want


@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4"])
def test_eta_minus_of_an_element_with_polynomial_coordinates(selector):
    # the rows are summed with ZPoly weights as J.triple sums them
    J = from_selector(selector)
    n = J.n
    z = lambda i: ZPoly.coord(n, i)
    y = JElem(((z(0).scale(sc(2)) + z(n - 1).scale(sc(-3)), Scalar(0, 1)) + (ZERO,) * (n - 3) + (z(1) * z(1),)))
    p = J.generic_elem()
    for lam in (None, rep.GENERIC_TWIST):
        terms = {tuple(int(t == k) for t in range(n)): c for k, c in enumerate(J.triple(p, y, p).coords)}
        terms[(0,) * n] = J.linear_form(y).scale(_twist(lam).scale(Scalar(2 * J.m)))
        assert rep.eta_minus(J, y, lam) == PolyOpPlus(J, terms)


@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4"])
def test_pi_minus_of_the_generic_element_is_linear_in_its_coordinates(selector):
    # pi^q = sum_k z_k pi^(b_k): each ZPoly coordinate multiplies its row and its d_k
    J = from_selector(selector)
    n = J.n
    for lam in (None, rep.GENERIC_TWIST):
        want = DiffOp.zero(J)
        for k in range(n):
            z_k = DiffOp.mult(J, SuperFn.from_zpoly(J.ring, ZPoly.coord(n, k)))
            want = want + z_k.compose(rep.pi_minus(J, J.basis_element(k), lam))
        assert rep.pi_minus(J, J.generic_elem(), lam) == want


def test_eta_minus_vector_part_at_unit(sym2, spin3):
    # the quadratic field evaluated at the unit returns the generator itself
    for J in (sym2, spin3):
        e = [Scalar(c) for c in J.unit]
        for i in range(J.n):
            y = J.basis_element(i)
            op = rep.eta_minus(J, y)
            value = []
            for k in range(J.n):
                beta = tuple(1 if t == k else 0 for t in range(J.n))
                coeff = op.terms.get(beta, ZPoly.zero(J.n))
                # drop the twist-linear function part (order-zero term)
                value.append(coeff.evaluate(e, lam=ZERO))
            assert JElem(tuple(value)) == y


@pytest.mark.parametrize("selector", ["full:1", "full:2", "sym:2", "spin:3", "spin:4", "spin:5"])
def test_fourier_consistency(selector):
    J = from_selector(selector)
    for i in range(J.n):
        x = J.basis_element(i)
        assert fourier(rep.eta_plus(J, x).scale(sc(-1))) == rep.pi_plus(J, x)
        assert fourier(rep.eta_minus(J, x).scale(sc(-1))) == rep.pi_minus(J, x)


# ---------------------------------------------------------------------------
# Abelian wings and the generated span
# ---------------------------------------------------------------------------

def test_wings_abelian(sym2):
    plus = [rep.pi_plus(sym2, sym2.basis_element(i)) for i in range(3)]
    minus = [rep.pi_minus(sym2, sym2.basis_element(i)) for i in range(3)]
    for i in range(3):
        for j in range(3):
            assert plus[i].commutator(plus[j]).is_zero()
            assert minus[i].commutator(minus[j]).is_zero()


def test_k_span_rank_one(full1):
    ops, dim = rep.k_span(full1)
    assert dim == 1
    # the single commutator is 2 z d + 2 * twist
    twist = rep.GENERIC_TWIST
    want = DiffOp(full1, {
        (1,): mono_fn(full1, (1,), sc(2)),
        (0,): mono_fn(full1, (0,), Scalar(2 * twist)),
    })
    assert ops[0] == want


@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4", "sym:3"])
def test_span_of_u_side_operators_matches_their_fourier_images(selector):
    # ZPoly coefficients are read as SuperFn ones are: the eta commutators,
    # with dependent combinations appended, enlarge the span exactly when
    # their images under fourier do
    J = from_selector(selector)
    plus = [rep.eta_plus(J, J.basis_element(i)) for i in range(J.n)]
    minus = [rep.eta_minus(J, J.basis_element(i), rep.GENERIC_TWIST) for i in range(J.n)]
    ops = [P.commutator(M) for P in plus for M in minus]
    ops += [ops[0] + ops[-1], ops[1].scale(sc(3)) - ops[2], ops[3].scale(Scalar(0, 1))]
    u_side, z_side = rep.SpanBasis(), rep.SpanBasis()
    assert [u_side.add(op) for op in ops] == [z_side.add(fourier(op)) for op in ops]
    assert u_side.dimension == z_side.dimension == rep.expected_k_dimension(J)
    assert all(u_side.contains(op) for op in ops)
    assert not u_side.contains(plus[0]) and not z_side.contains(fourier(plus[0]))


def test_span_refuses_a_twist_dependent_coefficient_on_either_side(sym2):
    y = sym2.basis_element(0)
    for op in (rep.eta_minus(sym2, y), rep.pi_minus(sym2, y)):
        with pytest.raises(DegreeError):
            rep.SpanBasis([op])
    for op in (rep.eta_minus(sym2, y, 0), rep.pi_minus(sym2, y, 0)):
        assert rep.SpanBasis([op]).dimension == 1
    # a power of F in a coefficient is refused as well
    with pytest.raises(ValueError, match="polynomial coefficients"):
        rep.SpanBasis([DiffOp.mult_w_inv(sym2)])


@pytest.mark.parametrize("selector,expected", [
    ("sym:2", 4),
    ("full:2", 7),
    ("spin:3", 4),
    ("spin:4", 7),
    ("spin:5", 11),
])
def test_k_span_dimensions(selector, expected):
    J = from_selector(selector)
    ops, dim = rep.k_span(J)
    assert dim == expected == rep.expected_k_dimension(J)


def test_expected_k_dimension_refuses_an_unknown_kind(full2):
    with pytest.raises(ValueError, match="unknown kind 'quat'"):
        rep.expected_k_dimension(dataclasses.replace(full2, kind="quat"))


def test_bracket_closure(spin3):
    lam = rep.GENERIC_TWIST
    ops, _ = rep.k_span(spin3, lam)
    plus = [rep.pi_plus(spin3, spin3.basis_element(i)) for i in range(3)]
    minus = [rep.pi_minus(spin3, spin3.basis_element(i), lam) for i in range(3)]
    plus_span = rep.SpanBasis()
    minus_span = rep.SpanBasis()
    k_basis = rep.SpanBasis()
    for op in plus:
        plus_span.add(op)
    for op in minus:
        minus_span.add(op)
    for op in ops:
        k_basis.add(op)
    for K in ops:
        for i in range(3):
            assert plus_span.contains(K.commutator(plus[i]))
            assert minus_span.contains(K.commutator(minus[i]))
        for K2 in ops:
            assert k_basis.contains(K.commutator(K2))


# ---------------------------------------------------------------------------
# The polynomial module
# ---------------------------------------------------------------------------

def test_module_membership(full2):
    ctx = full2.ring
    w = SuperFn.w(ctx)
    z1 = SuperFn.from_zpoly(ctx, ZPoly.coord(4, 0))
    assert (w * z1).is_polynomial()
    assert not SuperFn.w_inv(ctx).is_polynomial()


def test_critical_twist_annihilates_lowest_vectors(sym2, spin4):
    for J in (sym2, spin4):
        lam0, _ = rep.critical_pair(J)
        w = SuperFn.w(J.ring)
        for i in range(J.n):
            op = rep.pi_minus(J, J.basis_element(i), lam0)
            assert op.apply(SuperFn.one(J.ring)).is_zero()
            assert op.apply(w).is_zero()


def test_module_stability_and_criticality_witness(full2):
    lam0, _ = rep.critical_pair(full2)
    ctx = full2.ring
    w = SuperFn.w(ctx)
    z1 = SuperFn.from_zpoly(ctx, ZPoly.coord(4, 0))
    for i in range(4):
        at0 = rep.pi_minus(full2, full2.basis_element(i), lam0)
        out, inside = rep.act_on_H(at0, w * z1)
        assert inside
    # at a generic twist the image acquires denominators
    atg = rep.pi_minus(full2, full2.basis_element(0), rep.GENERIC_TWIST)
    out, inside = rep.act_on_H(atg, w * z1)
    assert not inside
    assert out.od.k >= 1


def test_multiplication_by_w_preserves_module(full2):
    ctx = full2.ring
    W = DiffOp.mult_w(full2)
    z1 = SuperFn.from_zpoly(ctx, ZPoly.coord(4, 0))
    out, inside = rep.act_on_H(W, z1)
    assert inside
    assert out == SuperFn.w(ctx) * z1


# ---------------------------------------------------------------------------
# Distinguished vectors from the norm-derivative operator
# ---------------------------------------------------------------------------

def test_norm_derivative_op_rank_one(full1):
    assert rep.norm_derivative_op(full1) == DiffOp.partial(full1, 0)
    T = rep.semi_invariant_w_dF(full1)
    assert T == DiffOp(full1, {(1,): mono_fn(full1, (0,), odd=True)})


@pytest.mark.parametrize("selector", ["full:1", "sym:2", "spin:3"])
def test_semi_invariants_annihilated(selector):
    J = from_selector(selector)
    lam0, lam0p = rep.critical_pair(J)
    T = rep.semi_invariant_w_dF(J)
    Tp = rep.semi_invariant_dF_w(J)
    for i in range(J.n):
        y = J.basis_element(i)
        assert rep.pi_minus(J, y, lam0).commutator(T).is_zero()
        assert rep.pi_minus(J, y, lam0p).commutator(Tp).is_zero()


def test_idempotent_guard_used(full2):
    with pytest.raises(PrimitiveIdempotentError):
        full2.check_primitive_idempotent(full2.unit_elem())


def zpoly_accumulated_rows(J) -> tuple:
    """The rows of ``rep._second_order_row`` summed as ZPolys: each
    coordinate of each triple {b_k, b^j, q} subtracted from its entry."""
    q, n = J.generic_elem(), J.n
    duals = [J.dual_basis_element(j) for j in range(n)]
    rows = []
    for k in range(n):
        b = J.basis_element(k)
        second = {}
        for j in range(n):
            trip = J.triple(b, duals[j], q)
            for i, c in enumerate(trip.coords):
                idx = tuple(int(t == i) + int(t == j) for t in range(n))
                second[idx] = second.get(idx, ZPoly.zero(n)) - c
        rows.append({idx: SuperFn.from_zpoly(J.ring, c) for idx, c in second.items()})
    return tuple(rows)


def second_order_rows(J) -> tuple:
    """Every row of ``rep._second_order_row``, in basis order."""
    return tuple(rep._second_order_row(J, k) for k in range(J.n))


@pytest.mark.parametrize("corruption", [None, "commutative", "non-commutative"])
@pytest.mark.parametrize("selector", ["sym:2", "sym:3", "full:2", "full:3", "spin:3", "spin:4", "spin:6"])
def test_second_order_rows_match_the_zpoly_accumulation(selector, corruption):
    J = from_selector(selector)
    if corruption:
        J = corrupt_structure(J, commutative=corruption == "commutative")
    rows, want = second_order_rows(J), zpoly_accumulated_rows(J)
    assert rows == tuple(DiffOp(J, row) for row in want)
    assert [list(row.terms) for row in rows] == [[beta for beta, c in row.items() if not c.is_zero()] for row in want]


def test_second_order_rows_build_a_superfn_for_each_nonzero_entry_only(monkeypatch):
    J = from_selector("full:3")
    built = []
    original = SuperFn.from_zpoly

    def spy(ctx, p):
        built.append(p)
        return original(ctx, p)

    monkeypatch.setattr(SuperFn, "from_zpoly", staticmethod(spy))
    rows = second_order_rows(J)
    monkeypatch.undo()
    assert len(built) == sum(len(row.terms) for row in rows) == 81
    assert not any(p.is_zero() for p in built)
    assert rows == tuple(DiffOp(J, row) for row in zpoly_accumulated_rows(J))


@pytest.mark.parametrize("corruption", [None, "commutative", "non-commutative"])
@pytest.mark.parametrize("selector", ["sym:2", "full:2", "full:3", "spin:4"])
def test_a_row_built_alone_on_a_cold_algebra_is_that_row_of_the_full_tuple(selector, corruption):
    def build():
        J = from_selector(selector)
        return corrupt_structure(J, commutative=corruption == "commutative") if corruption else J

    rows = second_order_rows(build())
    for k in range(len(rows)):
        cold = build()
        assert rep._second_order_row(cold, k) == rows[k]
        assert list(rep._row_tables(cold)[-1]) == [k]


def test_the_m_plus_one_control_builds_only_the_idempotents_rows():
    from twistedops import verify
    J = dataclasses.replace(from_selector("full:3"), m=Fraction(4))
    assert not verify.check_critical(J).ok
    assert list(rep._row_tables(J)[-1]) == [k for k, c in enumerate(J.idempotent) if c] == [0]


@pytest.mark.parametrize("selector", ["sym:2", "full:3", "spin:4"])
def test_directional_lifts_only_the_nonzero_coordinates(selector, monkeypatch):
    J = from_selector(selector)
    q = J.generic_elem()
    ys = [J.basis_element(J.n - 1), J.idempotent_elem(),
          JElem((ZPoly.zero(J.n), q.coords[0], ZPoly.zero(J.n), *q.coords[3:]))]
    want = [DiffOp(J, {tuple(int(t == i) for t in range(J.n)):
                       SuperFn.from_zpoly(J.ring, c) if isinstance(c, ZPoly) else SuperFn.const(J.ring, c)
                       for i, c in enumerate(y.coords)}) for y in ys]
    lifted, depth = [], [0]

    def spy(original):
        def lift(ctx, c):  # records the outer lift only: const calls from_zpoly
            if not depth[0]:
                lifted.append(c)
            depth[0] += 1
            try:
                return original(ctx, c)
            finally:
                depth[0] -= 1
        return staticmethod(lift)

    for name in ("const", "from_zpoly"):
        monkeypatch.setattr(SuperFn, name, spy(getattr(SuperFn, name)))
    for y, op in zip(ys, want):
        lifted.clear()
        assert DiffOp.directional(J, y) == op
        assert lifted == [c for c in y.coords if not c.is_zero()]
