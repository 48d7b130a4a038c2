"""Algebra families: structure data, products, norm calculus."""

import dataclasses
import functools
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from twistedops import jordan, rep
from twistedops.jordan import (
    DimensionMismatchError,
    JElem,
    NotInvertibleError,
    PrimitiveIdempotentError,
    derivative_identities,
    from_selector,
    make_sym,
    point_identities,
    random_point,
    validate_structure,
    verify_jordan_calculus,
)
from twistedops.ring import EXPONENT_LIMIT, DegreeError, LambdaPoly, LocFn, Scalar, SuperFn, ZPoly, ONE, ZERO, _zpoly, pack
from twistedops.weyl import DiffOp


def sc(x):
    return Scalar(Fraction(x))


def elem(*values):
    return JElem.from_rationals(values)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def test_sym_sizes():
    J1 = make_sym(1)
    assert (J1.n, J1.r, J1.m) == (1, 1, Fraction(1))
    assert J1.normF == ZPoly.coord(1, 0)
    J2 = make_sym(2)
    assert (J2.n, J2.r, J2.m) == (3, 2, Fraction(3, 2))
    z1, z2, z3 = (ZPoly.coord(3, i) for i in range(3))
    assert J2.normF == z1 * z2 - z3 * z3
    e = J2.unit_elem()
    assert J2.trace(e) == Scalar(2)


def test_full_sizes(full1, full2):
    assert (full1.n, full1.r, full1.m) == (1, 1, Fraction(1))
    assert full1.normF == ZPoly.coord(1, 0)
    z = [ZPoly.coord(4, i) for i in range(4)]
    assert full2.normF == z[0] * z[3] - z[1] * z[2]
    # dual basis of E12 (index 1) is E21 (index 2)
    dual = full2.dual_basis_element(1)
    assert dual == full2.basis_element(2)


def test_spin_sizes(spin3):
    assert (spin3.n, spin3.r, spin3.m) == (3, 2, Fraction(3, 2))
    z = [ZPoly.coord(3, i) for i in range(3)]
    assert spin3.normF == z[0] * z[0] - z[1] * z[1] - z[2] * z[2]
    # q o adj(q) = F e at q = (2, 1, 0)
    q = elem(2, 1, 0)
    adj = spin3.adjugate_at(q)
    prod = spin3.product(q, adj)
    assert prod == elem(3, 0, 0)
    # canonical primitive idempotent
    y = spin3.idempotent_elem()
    assert spin3.product(y, y) == y
    assert spin3.trace(y) == ONE


def test_selector_parsing():
    assert from_selector("sym:2").selector == "sym:2"
    assert from_selector("spin:4").selector == "spin:4"
    with pytest.raises(ValueError):
        from_selector("weird:2")
    with pytest.raises(ValueError):
        from_selector("full")
    # sizes are positive decimal integers; int() would accept the rest
    for bad in ("sym:0_2", "sym: 2", "sym:2 ", "sym:+2", "sym:-2", "sym:0", "sym:02", "full:", "spin:\u0663"):
        with pytest.raises(ValueError):
            from_selector(bad)
    with pytest.raises(ValueError, match="rank must be >= 1"):
        jordan.make_full(0)


@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4"])
def test_trace_form_moves_the_triple(selector):
    # tr({a, b, c} o q) = tr(a o {b, c, q}), the identity rep.pi_minus rests on
    J = from_selector(selector)
    q = J.generic_elem()
    basis = [J.basis_element(i) for i in range(J.n)]
    for a in basis:
        for b in basis:
            for c in basis:
                assert J.trace_form(J.triple(a, b, c), q) == J.trace_form(a, J.triple(b, c, q))


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def test_unit_acts_trivially(sym2):
    rng = random.Random(7)
    e = sym2.unit_elem()
    for _ in range(10):
        x = random_point(sym2, rng, invertible=False)
        assert sym2.product(e, x) == x


def test_full2_elementary_product(full2):
    # E11 o E12 = (1/2) E12
    e11, e12 = full2.basis_element(0), full2.basis_element(1)
    assert full2.product(e11, e12) == JElem((ZERO, sc("1/2"), ZERO, ZERO))


def test_spin_vector_square(spin3):
    v = spin3.basis_element(1)
    assert spin3.product(v, v) == elem(1, 0, 0)


def test_triple_idempotent(full2, spin3):
    for J in (full2, spin3):
        y = J.idempotent_elem()
        assert J.triple(y, y, y) == y


def test_triple_orthogonal_projection(full2):
    # {E11, E22, E11} = 0, matching the rank-one projection formula
    e11, e22 = full2.basis_element(0), full2.basis_element(3)
    assert full2.triple(e11, e22, e11).is_zero()
    assert full2.trace_form(e11, e22) == ZERO


def test_triple_with_inverse(full2, spin4):
    rng = random.Random(3)
    for J in (full2, spin4):
        for _ in range(8):
            b = random_point(J, rng)
            a = random_point(J, rng, invertible=False)
            assert J.triple(a, b, J.inverse_at(b)) == a


# ---------------------------------------------------------------------------
# Adjugate and inverse
# ---------------------------------------------------------------------------

def test_full2_classical_adjugate(full2):
    # q = [[1, 2], [3, 4]] in row-major coordinates
    q = elem(1, 2, 3, 4)
    assert full2.norm_at(q) == sc(-2)
    assert full2.adjugate_at(q) == elem(4, -2, -3, 1)
    inv = full2.inverse_at(q)
    assert inv == elem(-2, 1, Fraction(3, 2), Fraction(-1, 2))
    assert full2.product(q, inv) == full2.unit_elem()


def test_spin_adjugate(spin4):
    q = elem(5, 1, 2, 3)
    assert spin4.adjugate_at(q) == elem(5, -1, -2, -3)


def test_unit_self_inverse(sym2):
    e = sym2.unit_elem()
    assert sym2.inverse_at(e) == e


def test_singular_point_raises(full2):
    with pytest.raises(NotInvertibleError):
        full2.inverse_at(elem(1, 0, 0, 0))


WRONG_LENGTH_ENTRIES = {
    "product-left": lambda J, a: J.product(a, J.unit_elem()),
    "product-right": lambda J, a: J.product(J.unit_elem(), a),
    "add_elem": lambda J, a: J.add_elem(J.unit_elem(), a),
    "trace": lambda J, a: J.trace(a),
    "linear_form": lambda J, a: J.linear_form(a),
    "norm_at": lambda J, a: J.norm_at(a),
    "adjugate_at": lambda J, a: J.adjugate_at(a),
    "inverse_at": lambda J, a: J.inverse_at(a),
    "check_primitive_idempotent": lambda J, a: J.check_primitive_idempotent(a),
    "directional": DiffOp.directional,
    "pi_minus": rep.pi_minus,
    "eta_plus": rep.eta_plus,
}


@pytest.mark.parametrize("entry", WRONG_LENGTH_ENTRIES)
@pytest.mark.parametrize("length", [1, 4])
def test_wrong_length_elements_are_refused(sym2, entry, length):
    # sym:2 has 3 coordinates: an extra coordinate is never read as a
    # term, and a missing one never reads as zero or an IndexError
    with pytest.raises(DimensionMismatchError, match=f"expected 3 coordinates, got {length}"):
        WRONG_LENGTH_ENTRIES[entry](sym2, elem(*range(1, length + 1)))


def _to_sympy(p, zs):
    """A z-polynomial (no twist) as a sympy expression in the symbols zs."""
    out = sympy.Integer(0)
    for mono, c in p.terms.items():
        assert mono[-1] == 0, "unexpected power of L"
        term = sympy.Rational(c.a, c.d) + sympy.I * sympy.Rational(c.b, c.d)
        for z, e in zip(zs, mono):
            term *= z ** e
        out += term
    return out


def test_adjugate_matches_sympy():
    # independent oracle: sympy's determinant and adjugate of the generic
    # matrix, and the closed forms z0^2 - sum zi^2, (z0, -z1, ...) for spin
    for selector in ([f"sym:{r}" for r in range(1, 5)] + [f"full:{r}" for r in range(1, 5)]
                     + [f"spin:{p}" for p in range(2, 9)]):
        J = from_selector(selector)
        zs = sympy.symbols(f"z0:{J.n}")
        if J.kind == "spin":
            want_F = zs[0] ** 2 - sum(z ** 2 for z in zs[1:])
            want_adj = [zs[0]] + [-z for z in zs[1:]]
        else:
            M = sympy.zeros(J.r, J.r)
            for z, label in zip(zs, J.labels):
                for part in label.split("+"):        # "E12+E21": z at (1, 2) and (2, 1)
                    M[int(part[1]) - 1, int(part[2]) - 1] = z
            adj = M.adjugate()
            want_F = M.det()
            want_adj = [adj[int(label[1]) - 1, int(label[2]) - 1] for label in J.labels]
        assert sympy.expand(_to_sympy(J.normF, zs) - want_F) == 0, selector
        assert len(J.adjugate) == J.n
        for k, (got, want) in enumerate(zip(J.adjugate, want_adj)):
            assert sympy.expand(_to_sympy(got, zs) - want) == 0, f"{selector}: adj coordinate {k + 1}"


# ---------------------------------------------------------------------------
# The localized trace function
# ---------------------------------------------------------------------------

def test_tr_v_qinv_full2(full2):
    got = full2.tr_v_qinv(full2.basis_element(0))
    assert got == LocFn(full2.ring, ZPoly.coord(4, 3), 1)


def test_tr_v_qinv_unit_at_unit(sym2):
    f = sym2.tr_v_qinv(sym2.unit_elem())
    e = [Scalar(c) for c in sym2.unit]
    assert f.evaluate(e) == Scalar(sym2.r)


def test_tr_v_qinv_rank_one(full1):
    assert full1.tr_v_qinv(full1.basis_element(0)) == LocFn(full1.ring, ZPoly.one(1), 1)


# ---------------------------------------------------------------------------
# Structure and identity suites
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("selector", ["full:1", "full:2", "sym:1", "sym:2", "spin:3", "spin:4", "spin:5"])
def test_structure_valid(selector):
    J = from_selector(selector)
    results = validate_structure(J)
    assert all(c.ok for c in results), [c.name for c in results if not c.ok]


@pytest.mark.parametrize("selector", ["full:2", "sym:2", "spin:3", "spin:4", "spin:5"])
def test_derivative_identities_symbolic(selector):
    J = from_selector(selector)
    results = derivative_identities(J, mode="symbolic")
    assert [c.name for c in results] == [
        "norm-derivative", "sqrt-derivative", "inverse-derivative", "sqrt-second-derivative",
    ]
    assert all(c.ok for c in results), [c.witness for c in results if not c.ok]


def test_derivative_identities_points_full3():
    J = from_selector("full:3")
    results = derivative_identities(J, mode="points", rng=random.Random(5), count=20)
    assert all(c.ok for c in results)


def test_point_identities(sym2, spin5):
    for J in (sym2, spin5):
        results = point_identities(J, random.Random(1))
        assert all(c.ok for c in results), [c.name for c in results if not c.ok]


def test_full_suite_wrapper(spin3):
    results = verify_jordan_calculus(spin3, rng=random.Random(0))
    assert all(c.ok for c in results)
    assert len(results) >= 10


def lifted(J, e: JElem) -> list:
    """The coordinates of ``e`` as polynomials, constants included."""
    return [c if isinstance(c, ZPoly) else ZPoly.const(J.n, c) for c in e.coords]


def reference_product(J, a: JElem, b: JElem) -> list:
    """a o b summed straight from the Fraction structure constants ``prod``."""
    x, y = lifted(J, a), lifted(J, b)
    out = [ZPoly.zero(J.n)] * J.n
    for i, j, k in itertools.product(range(J.n), repeat=3):
        if J.prod[i][j][k]:
            out[k] = out[k] + (x[i] * y[j]).scale(Scalar(J.prod[i][j][k]))
    return out


@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4"])
def test_product_table_matches_fraction_constants(selector):
    J = from_selector(selector)
    q, adj = J.generic_elem(), J.adjugate_elem()
    basis = [J.basis_element(i) for i in range(J.n)]
    point = random_point(J, random.Random(3))
    args = [q, adj, point, J.idempotent_elem(), *basis]
    for a, b in itertools.product(args, repeat=2):
        got = J.product(a, b)
        assert lifted(J, got) == reference_product(J, a, b)
        if not isinstance(a[0], ZPoly) and not isinstance(b[0], ZPoly):
            assert all(isinstance(c, Scalar) for c in got.coords)


# ---------------------------------------------------------------------------
# Negative control: corrupt one structure constant
# ---------------------------------------------------------------------------

def corrupt_structure(J, delta=Fraction(1, 3), commutative=True):
    import dataclasses
    prod = [[[c for c in cell] for cell in row] for row in J.prod]
    prod[0][J.n - 1][0] += delta
    if commutative:
        prod[J.n - 1][0][0] += delta
    return dataclasses.replace(J, prod=tuple(tuple(tuple(c) for c in row) for row in prod))


def test_corrupt_structure_detected(sym2):
    bad = corrupt_structure(sym2)
    results = validate_structure(bad)
    failed = [c for c in results if not c.ok]
    assert failed, "corruption went unnoticed"
    assert all(c.witness for c in failed)


def test_corrupt_product_identities_fail_at_a_basis_element(sym2):
    bad = corrupt_structure(sym2)
    results = {c.name: c for c in point_identities(bad, random.Random(0))}
    for name in ("power-associativity", "inverse-triple", "triple-shift", "triple-fundamental"):
        check = results[name]
        assert not check.ok, name
        assert any(f"={label}" in check.witness for label in bad.labels), check.witness
        assert "terms, value" in check.witness


@pytest.mark.parametrize("selector, commutative, identity", [
    ("sym:2", True, "norm-derivative"),
    ("full:2", True, "inverse-derivative"),
    ("full:2", False, "sqrt-second-derivative"),
])
def test_corrupt_structure_fails_the_points_cross_check(selector, commutative, identity):
    bad = corrupt_structure(from_selector(selector), commutative=commutative)
    [check] = derivative_identities(bad, mode="points", rng=random.Random(0), count=5)
    assert check.status == "fail"
    assert check.witness.startswith(f"{identity} at q=JElem("), check.witness


@pytest.mark.parametrize("selector, rank, failing", [
    ("spin:3", 3, {"norm-normalized"}),                      # above the rank: F = 0
    ("sym:3", 2, {"norm-normalized", "adjugate-identity"}),  # below the rank
])
def test_wrong_rank_fails_the_norm_checks(selector, rank, failing):
    # F and adj q are derived from the structure data and the rank; with a
    # wrong rank the derived pair is no norm, and the structure checks say so
    J = from_selector(selector)
    bad = jordan._finish(J.kind, rank, J.n, J.labels, J.prod, J.unit, J.trace_vec, J.idempotent)
    if rank > J.r:
        assert bad.normF.is_zero()
    results = {c.name: c for c in validate_structure(bad)}
    for name in failing:
        assert not results[name].ok, name
        assert results[name].witness, name
    assert all(c.ok for c in validate_structure(J))


def test_points_cross_check_fails_when_the_norm_vanishes():
    # spin:3 built at rank 3 has F = 0, so no point is invertible: the points
    # check fails at once instead of resampling forever (run apart, with a timeout)
    code = (
        "import random\n"
        "from twistedops import jordan\n"
        "J = jordan.from_selector('spin:3')\n"
        "bad = jordan._finish(J.kind, 3, J.n, J.labels, J.prod, J.unit, J.trace_vec, J.idempotent)\n"
        "[c] = jordan.derivative_identities(bad, mode='points', rng=random.Random(0), count=5)\n"
        "print(c.name, c.status, c.witness, sep='|')\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          encoding="utf-8", timeout=30)
    assert proc.returncode == 0, proc.stderr
    name, status, witness = proc.stdout.strip().split("|")
    assert (name, status) == ("derivative-identities-at-points", "fail")
    assert witness == "the norm vanishes identically: no invertible point"


@pytest.mark.parametrize("selector", ["full:2", "sym:3"])
def test_derivative_identities_form_each_trace_once_and_no_partial_of_w(selector, monkeypatch):
    # tr(b_i o adj q) once per i, for the residuals e_i, X_ij and S_ij; the
    # identities are polynomial, so no function of the cover is differentiated
    J = from_selector(selector)
    n, calls = J.n, {"trace_form": 0, "derivative": 0}

    def spy(cls, name):
        original = getattr(cls, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(cls, name, counted)

    spy(jordan.JordanAlgebra, "trace_form")
    spy(SuperFn, "derivative")
    assert all(c.ok for c in derivative_identities(J))
    assert calls == {"trace_form": n, "derivative": 0}


CLAIMS = {
    "norm-derivative": "dF/dz{0} != tr(b{0} o adj q)",
    "sqrt-derivative": "d_{0} w != (1/2) tr(b{0} q^-1) w",
    "inverse-derivative": "d_{0} tr(b{1} q^-1) mismatch",
    "sqrt-second-derivative": "d_{0} d_{1} w mismatch",
}


def localized_ring_verdicts(J) -> dict:
    """Reference: the four derivative identities as equalities of LocFn and
    SuperFn values in the localized ring, d_i w and d_i d_j w taken by the
    ring's chain rule; {(name, index): holds} at every i and (i, j)."""
    ctx = J.ring
    adj = J.adjugate_elem()
    basis = [J._form(J.basis_element(i)) for i in range(J.n)]
    tr_adj = [J.trace_form(J.basis_element(i), adj) for i in range(J.n)]
    tr_qinv = [LocFn(ctx, t, 1) for t in tr_adj]
    dw = [SuperFn.w(ctx).derivative(i) for i in range(J.n)]
    odd = lambda f: SuperFn.from_locfn(LocFn.zero(ctx), f)
    verdicts = {}
    for i in range(J.n):
        verdicts["norm-derivative", (i,)] = ctx.dF(i) == tr_adj[i]
        verdicts["sqrt-derivative", (i,)] = dw[i] == odd(tr_qinv[i].scale(sc("1/2")))
    for i, j in itertools.product(range(J.n), repeat=2):
        triple = LocFn(ctx, J._trace_of(basis[j], jordan._sandwiches(J)[i]), 2)  # tr(b_j o {q^-1, b_i, q^-1})
        verdicts["inverse-derivative", (i, j)] = tr_qinv[j].derivative(i) == -triple
        cofactor = (tr_qinv[i] * tr_qinv[j]).scale(sc("1/4")) - triple.scale(sc("1/2"))
        verdicts["sqrt-second-derivative", (i, j)] = dw[j].derivative(i) == odd(cofactor)
    return verdicts


NORM_CALCULUS_VARIANTS = {
    "algebra": lambda J: J,
    "m+1": lambda J: dataclasses.replace(J, m=J.m + 1),
    "corrupt": corrupt_structure,
    "corrupt-noncommutative": lambda J: corrupt_structure(J, commutative=False),
    "rank+1": lambda J: jordan._finish(J.kind, J.r + 1, J.n, J.labels, J.prod, J.unit, J.trace_vec, J.idempotent),
    "rank-1": lambda J: jordan._finish(J.kind, J.r - 1, J.n, J.labels, J.prod, J.unit, J.trace_vec, J.idempotent),
}


@pytest.mark.parametrize("variant", NORM_CALCULUS_VARIANTS)
@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4"])
def test_norm_calculus_residuals_agree_with_the_localized_ring(selector, variant):
    # every residual is zero exactly where the localized-ring equality holds,
    # at every index, and each check fails at the first index where one fails
    J = NORM_CALCULUS_VARIANTS[variant](from_selector(selector))
    want = localized_ring_verdicts(J)
    rows = jordan._norm_calculus(J)
    got = {(name, idx): residual(*idx).is_zero()
           for name, residual, arity, _ in rows for idx in itertools.product(range(J.n), repeat=arity)}
    assert got == want
    results = derivative_identities(J)
    assert [c.name for c in results] == [name for name, *_ in rows] == list(CLAIMS)
    for check in results:
        failing = [idx for (name, idx), holds in want.items() if name == check.name and not holds]
        witness = CLAIMS[check.name].format(*(k + 1 for k in failing[0])) if failing else None
        assert (check.status, check.witness) == ("fail" if failing else "pass", witness)
    if variant == "rank+1":
        assert J.normF.is_zero()
    assert all(want.values()) == (variant in ("algebra", "m+1", "rank+1"))


@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4"])
def test_noncommutative_corruption_fails_the_triple_identities(selector):
    bad = corrupt_structure(from_selector(selector), commutative=False)  # b1 o bn != bn o b1
    results = {c.name: c for c in point_identities(bad, random.Random(0))}
    for name in ("triple-shift", "triple-fundamental"):
        assert not results[name].ok, name
        assert f"={bad.labels[0]}" in results[name].witness, results[name].witness


def reference_triple(J, a: JElem, b: JElem, c: JElem) -> list:
    """(a o b) o c + a o (b o c) - (a o c) o b from three whole products,
    coordinate by coordinate, constants as polynomials."""
    ab_c, a_bc, ac_b = (lifted(J, J.product(x, y)) for x, y in (
        (J.product(a, b), c), (a, J.product(b, c)), (J.product(a, c), b)))
    return [x + y - z for x, y, z in zip(ab_c, a_bc, ac_b)]


@pytest.mark.parametrize("corruption", [None, "commutative", "non-commutative"])
@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4"])
def test_triple_matches_the_three_product_reference(selector, corruption):
    # a non-commutative copy fails if the fused triple reorders a product
    J = from_selector(selector)
    if corruption:
        J = corrupt_structure(J, commutative=corruption == "commutative")
    point = JElem(Scalar(Fraction(i + 1, 3), i % 2) for i in range(J.n))
    args = [J.generic_elem(), J.adjugate_elem(), point, J.basis_element(J.n - 1)]
    for a, b, c in itertools.product(args, repeat=3):
        want = reference_triple(J, a, b, c)
        kind = ZPoly if any(isinstance(x, ZPoly) for e in (a, b, c) for x in e.coords) else Scalar
        got = J.triple(a, b, c)
        assert lifted(J, got) == want, (a, b, c)
        assert all(type(x) is kind for x in got.coords)


# ---------------------------------------------------------------------------
# The integer kernel: numerators over one denominator, kept on the element
# ---------------------------------------------------------------------------

def scalar_triple(J, a: JElem, b: JElem, c: JElem) -> list:
    """(a o b) o c + a o (b o c) - (a o c) o b, every product summed from
    the Fraction constants by ``reference_product``."""
    P = lambda x, y: JElem(reference_product(J, x, y))
    ab_c, a_bc, ac_b = (reference_product(J, x, y) for x, y in (
        (P(a, b), c), (a, P(b, c)), (P(a, c), b)))
    return [x + y - z for x, y, z in zip(ab_c, a_bc, ac_b)]


def _has_zpoly(*elems) -> bool:
    return any(isinstance(x, ZPoly) for e in elems for x in e.coords)


def kernel_inputs(J) -> list:
    """Gaussian points with nonzero imaginary parts, a fractional real
    point, a mixed Scalar/ZPoly element with Gaussian and L terms, q,
    adj q and a basis element."""
    n = J.n
    z = [ZPoly.coord(n, i) for i in range(n)]
    gauss = JElem(Scalar(Fraction(i + 1, 3), Fraction(1 - i, 2)) for i in range(n))
    imaginary = JElem(Scalar(0, Fraction(i % 3 - 1, 5)) for i in range(n))
    fractional = JElem(Scalar(Fraction(2 * i - 3, i + 2)) for i in range(n))
    mixed = JElem(
        (z[i].scale(Scalar(Fraction(1, 2), 1)) + z[(i + 1) % n] * z[i].scale(Scalar(0, -3))
         + ZPoly.const(n, LambdaPoly([ZERO, Scalar(Fraction(1, 7))])))
        if i % 2 else Scalar(Fraction(-i, 4), Fraction(1, 3))
        for i in range(n))
    return [gauss, imaginary, fractional, mixed, J.generic_elem(), J.adjugate_elem(),
            J.basis_element(n - 1)]


KERNEL_ALGEBRAS = [(sel, corruption) for sel in ("sym:2", "full:2", "spin:4")
                   for corruption in (None, "commutative", "non-commutative")]


def kernel_algebra(selector, corruption):
    J = from_selector(selector)
    if corruption:
        J = corrupt_structure(J, commutative=corruption == "commutative")
    return J


@pytest.mark.parametrize("selector, corruption", KERNEL_ALGEBRAS)
def test_integer_product_matches_the_scalar_reference(selector, corruption):
    J = kernel_algebra(selector, corruption)
    args = kernel_inputs(J)
    for a, b in itertools.product(args, repeat=2):
        got = J.product(a, b)
        assert lifted(J, got) == reference_product(J, a, b), (a, b)
        kind = ZPoly if _has_zpoly(a, b) else Scalar
        assert all(type(x) is kind for x in got.coords)


@pytest.mark.parametrize("selector, corruption", KERNEL_ALGEBRAS)
def test_integer_triple_matches_both_references(selector, corruption):
    J = kernel_algebra(selector, corruption)
    args = kernel_inputs(J)
    picks = [args[0], args[1], args[2], args[3], args[5]]
    for a, b, c in itertools.product(picks, repeat=3):
        want = reference_triple(J, a, b, c)
        assert want == scalar_triple(J, a, b, c)
        got = J.triple(a, b, c)
        assert lifted(J, got) == want, (a, b, c)
        assert all(type(x) is (ZPoly if _has_zpoly(a, b, c) else Scalar) for x in got.coords)


def test_one_element_gives_the_same_results_across_calls_and_algebras(sym2, spin3):
    # sym:2 and spin:3 both have 3 coordinates; the integer form of an
    # element depends on its coordinates alone
    x = JElem((Scalar(Fraction(1, 2), 1), Scalar(Fraction(-2, 3)), Scalar(0, Fraction(3, 4))))
    y = JElem((Scalar(5), Scalar(Fraction(1, 6), -1), Scalar(Fraction(7, 5))))
    fresh = lambda e: JElem(e.coords)
    first = [(J, J.product(x, y), J.triple(x, y, x), J.triple(y, x, y)) for J in (sym2, spin3)]
    for _ in range(2):
        for J, xy, xyx, yxy in first:
            assert J.product(x, y) == xy == J.product(fresh(x), fresh(y))
            assert J.triple(x, y, x) == xyx == J.triple(fresh(x), fresh(y), fresh(x))
            assert J.triple(y, x, y) == yxy == J.triple(fresh(y), fresh(x), fresh(y))
    assert first[0][1] != first[1][1]


def test_wrong_length_is_refused_after_the_form_is_cached(full2, sym2):
    x = elem(1, 2, 3, 4)
    full2.product(x, x)  # reads and keeps x's integer form
    assert x._num is not None
    for call in (lambda: sym2.product(x, sym2.unit_elem()), lambda: sym2.product(sym2.unit_elem(), x),
                 lambda: sym2.triple(x, sym2.unit_elem(), sym2.unit_elem()),
                 lambda: sym2.triple(sym2.unit_elem(), x, sym2.unit_elem()),
                 lambda: sym2.triple(sym2.unit_elem(), sym2.unit_elem(), x)):
        with pytest.raises(DimensionMismatchError, match="expected 3 coordinates, got 4"):
            call()


def test_equality_and_hash_ignore_the_cached_form(full2):
    q = full2.generic_elem()
    a, b = elem(1, Fraction(1, 2), 3, 4), elem(1, Fraction(1, 2), 3, 4)
    full2.product(a, q)
    assert a._num is not None and b._num is None
    assert a == b and hash(a) == hash(b)
    r = full2.product(q, q)
    plain = JElem(r.coords)
    assert r._num is not None and plain._num is None
    assert r == plain and hash(r) == hash(plain) and repr(r) == repr(plain)
    with pytest.raises(AttributeError):
        r._num = None


def test_results_keep_their_form_and_q_is_read_once(monkeypatch, full2):
    J = jordan.make_full(2)  # construction reads through the kernel too
    reads = []
    original = jordan._read
    monkeypatch.setattr(jordan, "_read", lambda coords: reads.append(coords) or original(coords))
    q, adj = J.generic_elem(), J.adjugate_elem()
    assert J.generic_elem() is q and J.adjugate_elem() is adj
    q2 = J.product(q, q)
    sandwich = J.triple(adj, q2, adj)
    J.product(sandwich, J.triple(q2, q, q2))
    assert len(reads) == 1  # adj q; q's form is kept from construction, every result carried its own
    assert q2._num[0] == 1  # q o q is (2 z1^2 + 2 z2 z3, ...)/2: the content 2 is divided out
    assert q2 == full2.product(full2.generic_elem(), full2.generic_elem())


def test_construction_reads_q_once_and_builds_each_table_once(monkeypatch):
    # F and adj q are derived on the algebra that is returned, so the form
    # of q and the tables built on the way stay with it
    reads, builds = [], []
    original = jordan._read
    monkeypatch.setattr(jordan, "_read", lambda coords: reads.append(coords) or original(coords))
    for name in ("_table", "_trace_table"):
        prop = functools.cached_property(lambda self, f=getattr(jordan.JordanAlgebra, name).func, name=name:
                                         builds.append(name) or f(self))
        prop.__set_name__(jordan.JordanAlgebra, name)
        monkeypatch.setattr(jordan.JordanAlgebra, name, prop)
    J = jordan.make_full(2)
    q = J.generic_elem()
    J.product(q, q)
    J.trace_form(q, q)
    assert [c for c in reads if c == q.coords] == [q.coords]
    assert sorted(builds) == ["_table", "_trace_table"]


def test_overflowing_exponent_raises_degree_error(full2):
    top = JElem([ZPoly.monomial(4, (EXPONENT_LIMIT - 1, 0, 0, 0))] + [ZERO] * 3)
    q = full2.generic_elem()
    assert full2.product(top, full2.unit_elem()).coords[0] == top.coords[0]  # form now cached
    for call in (lambda: full2.product(top, q), lambda: full2.product(q, top),
                 lambda: full2.triple(top, q, full2.unit_elem()),
                 lambda: full2.triple(full2.unit_elem(), top, q)):
        with pytest.raises(DegreeError):
            call()


def test_primitive_idempotent_guard(full2):
    with pytest.raises(PrimitiveIdempotentError):
        full2.check_primitive_idempotent(full2.unit_elem())  # trace is 2, not 1
    with pytest.raises(PrimitiveIdempotentError):
        full2.check_primitive_idempotent(full2.basis_element(1))  # not idempotent


@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4"])
def test_passing_checks_carry_no_witness(selector):
    J = from_selector(selector)
    results = (
        validate_structure(J)
        + point_identities(J, random.Random(1))
        + derivative_identities(J, mode="symbolic")
        + derivative_identities(J, mode="points", rng=random.Random(2), count=4)
    )
    assert results and all(c.ok for c in results)
    assert all(c.witness is None for c in results)


# ---------------------------------------------------------------------------
# Traces, the sandwich table and the identities on integer forms
# ---------------------------------------------------------------------------

def trace_form_mismatches(J) -> list:
    """The input pairs on which ``trace_form`` differs from the trace of the
    product in value or type; the inputs mix Scalar, Gaussian, ZPoly and
    mixed coordinates."""
    args = kernel_inputs(J)
    bad = []
    for a, b in itertools.product(args, repeat=2):
        want, got = J.trace(J.product(a, b)), J.trace_form(a, b)
        if got != want or type(got) is not (ZPoly if _has_zpoly(a, b) else Scalar):
            bad.append((a, b))
    return bad


@pytest.mark.parametrize("selector, corruption", KERNEL_ALGEBRAS)
def test_trace_form_matches_the_trace_of_the_product(selector, corruption):
    assert trace_form_mismatches(kernel_algebra(selector, corruption)) == []


@pytest.mark.parametrize("selector, corruption", KERNEL_ALGEBRAS)
def test_a_trace_table_read_off_the_gram_matrix_fails(selector, corruption):
    # a corrupted copy keeps the Gram matrix of the algebra it came from, so
    # a trace table built from it disagrees with its structure constants
    J = kernel_algebra(selector, corruption)
    G = [[Fraction(g) for g in row] for row in J.gram]
    den = math.lcm(*(g.denominator for row in G for g in row))
    J.__dict__["_trace_table"] = (den, tuple(tuple(((0, g.numerator * (den // g.denominator)),) if g else ()
                                                   for g in row) for row in G), 1)
    assert bool(trace_form_mismatches(J)) == (corruption is not None)


@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4"])
def test_a_built_algebra_reads_traces_and_linear_forms_off_one_table(selector):
    # tr(b_j o b_k) is the Gram matrix, so the two tables are one; a
    # corrupted copy keeps the old Gram matrix and builds both anew
    J = from_selector(selector)
    assert J._gram_table is J._trace_table
    for commutative in (True, False):
        bad = corrupt_structure(J, commutative=commutative)
        assert bad._gram_table != bad._trace_table
        assert bad._gram_table == J._gram_table


@pytest.mark.parametrize("length", [3, 5])
def test_scale_elem_and_trace_form_refuse_wrong_lengths(full2, length):
    x = elem(*range(1, length + 1))
    for call in (lambda: full2.scale_elem(Fraction(2), x), lambda: full2.trace_form(x, full2.unit_elem()),
                 lambda: full2.trace_form(full2.unit_elem(), x), lambda: full2.tr_v_qinv(x)):
        with pytest.raises(DimensionMismatchError, match=f"expected 4 coordinates, got {length}"):
            call()


def spy(monkeypatch, cls, name) -> list:
    """Record the arguments of every call to ``cls.name``."""
    calls, original = [], getattr(cls, name)

    def recorded(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)
    monkeypatch.setattr(cls, name, recorded)
    return calls


def test_derivative_identities_form_no_product_per_pair(monkeypatch):
    J = from_selector("full:3")
    products = spy(monkeypatch, jordan.JordanAlgebra, "product")
    triples = spy(monkeypatch, jordan.JordanAlgebra, "triple")
    assert all(c.ok for c in derivative_identities(J))
    assert len(products) < J.n and len(triples) < J.n


@pytest.mark.parametrize("variant", ["algebra", "rank+1", "corrupt-noncommutative"])
def test_a_jordan_suite_builds_the_sandwiches_only_on_the_fallback_and_once(monkeypatch, variant):
    # on a clean algebra adj q / F is the Jordan inverse, so neither the shift
    # nor the derivative identities form a sandwich {adj q, b, adj q}; where a
    # premise fails (F = 0, or a non-commutative product) the table is built
    # once and read by both
    from twistedops import verify
    J = NORM_CALCULUS_VARIANTS[variant](from_selector("full:3"))
    adj = J._form(J.adjugate_elem())
    triples = spy(monkeypatch, jordan.JordanAlgebra, "_triple_form")
    overall = verify.run_suite(J, "jordan").overall
    middles = [J._result(args[1]) for args in triples if args[0] is adj and args[2] is adj]
    if variant == "algebra":
        assert overall == "pass" and middles == []
    else:
        assert middles == [J.basis_element(i) for i in range(J.n)]


def checks_with_counts(monkeypatch, run, calls: dict) -> tuple[dict, dict]:
    """The checks ``run()`` returns by name, and per check how many entries it
    added to each list in ``calls``, spies' records."""
    counts, timed = {}, jordan.timed_check

    def counted(name, fn):
        before = {key: len(record) for key, record in calls.items()}
        result = timed(name, fn)
        counts[name] = {key: len(record) - before[key] for key, record in calls.items()}
        return result
    monkeypatch.setattr(jordan, "timed_check", counted)
    checks = {c.name: c for c in run()}
    monkeypatch.setattr(jordan, "timed_check", timed)
    return checks, counts


@pytest.mark.parametrize("selector", ["sym:2", "full:3", "spin:4"])
def test_a_clean_jordan_suite_forms_no_shift_and_no_inverse_derivative(monkeypatch, selector):
    # the shift makes no triple, the two derivative identities read off the
    # Jordan inverse form no X (no trace, no product of polynomials), and the
    # inverse triple is formed once, with the idempotent projection's triples
    # the only others of the run
    from twistedops import verify
    J = from_selector(selector)
    calls = {"triple": spy(monkeypatch, jordan.JordanAlgebra, "_triple_form"),
             "trace": spy(monkeypatch, jordan.JordanAlgebra, "_trace_of"),
             "mul": spy(monkeypatch, ZPoly, "__mul__")}
    checks, counts = checks_with_counts(monkeypatch, lambda: verify.run_suite(J, "jordan").checks, calls)
    assert all(c.ok for c in checks.values())
    assert counts["triple-shift"]["triple"] == 0
    for name in ("inverse-derivative", "sqrt-second-derivative"):
        assert counts[name] == {"triple": 0, "trace": 0, "mul": 0}, name
    assert counts["inverse-triple"]["triple"] == counts["idempotent-projection"]["triple"] == J.n
    assert len(calls["triple"]) == 2 * J.n


def scalar_route_point_identities(J) -> dict:
    """(status, witness) of the four product identities, both sides summed
    as coordinates: the elements of ``product`` and ``triple``, and the left
    side of the fundamental identity as n ZPoly products per pair."""
    q, adj = J.generic_elem(), J.adjugate_elem()
    basis = [J.basis_element(i) for i in range(J.n)]
    times_F = lambda a: JElem(tuple(entry_mul(J.normF, c) for c in a.coords))

    def first_residual(lhs: list, rhs: list, claim: str):
        for k, (x, y) in enumerate(zip(lhs, rhs)):
            if x != y:
                d = x - y
                z = jordan.random_point(J, random.Random(0), invertible=False)
                return (f"{claim}: residual coordinate {k+1} has {len(d.packed)} terms, "
                        f"value {d.evaluate(list(z.coords))} at z={z}")

    def power_associativity():
        q2 = J.product(q, q)
        for i, b in enumerate(basis):
            yield (J.product(q2, J.product(q, b)).coords, J.product(q, J.product(q2, b)).coords,
                   f"q^2 o (q o b) != q o (q^2 o b) at b={J.labels[i]}")

    def inverse_triple():
        for i, b in enumerate(basis):
            yield J.triple(b, q, adj).coords, times_F(b).coords, f"{{b,q,adj q}} != F b at b={J.labels[i]}"

    def shift_identity():
        for i, v in enumerate(basis):
            yield (J.triple(J.triple(adj, v, adj), q, v).coords,
                   times_F(J.product(adj, J.product(v, v))).coords,
                   f"{{{{adj q,v,adj q}},q,v}} != F adj q o v^2 at v={J.labels[i]}")

    def fundamental_identity():
        U = [J.triple(q, b, q) for b in basis]
        for i, b in enumerate(basis):
            for j, c in enumerate(basis):
                lhs = [ZPoly.zero(J.n)] * J.n
                for t, Ut in zip(J.triple(b, q, c).coords, U):
                    if not t.is_zero():
                        lhs = [x + t * y for x, y in zip(lhs, Ut.coords)]
                yield (lhs, J.triple(U[i], c, q).coords,
                       f"{{q,{{b,q,c}},q}} != {{{{q,b,q}},c,q}} at b={J.labels[i]}, c={J.labels[j]}")

    out = {}
    for name, sides in (("power-associativity", power_associativity), ("inverse-triple", inverse_triple),
                        ("triple-shift", shift_identity), ("triple-fundamental", fundamental_identity)):
        witness = next(filter(None, (first_residual(*s) for s in sides())), None)
        out[name] = ("fail" if witness else "pass", witness)
    return out


ROUTE_ALGEBRAS = [(sel, corruption) for sel in ("sym:2", "sym:3", "full:2", "full:3", "spin:3", "spin:4", "spin:6")
                  for corruption in (None, "commutative", "non-commutative")]


@pytest.mark.parametrize("selector, corruption", ROUTE_ALGEBRAS)
def test_identities_on_forms_agree_with_the_scalar_route(monkeypatch, selector, corruption):
    # every residual is shown at the same point, whatever ran before it
    original = jordan.random_point
    monkeypatch.setattr(jordan, "random_point", lambda J, rng, invertible=True:
                        original(J, random.Random(0), invertible))
    J = kernel_algebra(selector, corruption)
    want = scalar_route_point_identities(J)
    got = {c.name: (c.status, c.witness) for c in point_identities(J, random.Random(1)) if c.name in want}
    assert got == want
    assert (want["triple-fundamental"][0] == "pass") == (corruption is None)


def direct_fundamental(J) -> tuple:
    """(status, witness) of the fundamental identity formed pair by pair on
    integer forms: the loop point_identities runs when a Jordan axiom fails,
    kept here as the reference, its residual shown at the point that
    ``jordan.random_point`` gives."""
    fq = J._form(J.generic_elem())
    basis = [J._form(J.basis_element(i)) for i in range(J.n)]
    prod, trip = J._product_form, J._triple_form

    def body():
        q2 = prod(fq, fq)
        U = [trip(fq, b, fq, fac=q2) for b in basis]
        Uq = [prod(u, fq) for u in U]
        bq = [prod(b, fq) for b in basis]
        qb = [prod(fq, b) for b in basis]
        for i, b in enumerate(basis):
            for j, c in enumerate(basis):
                lhs = J._weighted(trip(b, fq, c, fbc=qb[j], fab=bq[i]), U)
                rhs = trip(U[i], c, fq, fac=Uq[i], fbc=bq[j])
                if jordan._same(lhs, rhs):
                    continue
                for k, (x, y) in enumerate(zip(J._result(lhs).coords, J._result(rhs).coords)):
                    if x != y:
                        d = x - y
                        z = jordan.random_point(J, random.Random(0), invertible=False)
                        raise jordan.JordanError(
                            f"{{q,{{b,q,c}},q}} != {{{{q,b,q}},c,q}} at b={J.labels[i]}, c={J.labels[j]}: "
                            f"residual coordinate {k+1} has {len(d.packed)} terms, "
                            f"value {d.evaluate(list(z.coords))} at z={z}")

    result = jordan.timed_check("triple-fundamental", body)
    return result.status, result.witness


def point_identities_with_combines(monkeypatch, J, calls: list) -> tuple[dict, dict]:
    """The checks of point_identities on J by name, and how many entries
    each added to ``calls``, a spy's record of ``JordanAlgebra._combine``."""
    checks, counts = checks_with_counts(monkeypatch, lambda: point_identities(J, random.Random(1)), {"combine": calls})
    return checks, {name: count["combine"] for name, count in counts.items()}


@pytest.mark.parametrize("selector", ["sym:2", "full:3", "spin:4"])
def test_the_fundamental_identity_is_formed_only_off_a_jordan_algebra(monkeypatch, selector):
    # on a Jordan algebra the identity follows from the two axioms and no
    # product is formed; on a corrupted copy, commutative or not, the check
    # forms as many as the direct loop
    calls = spy(monkeypatch, jordan.JordanAlgebra, "_combine")
    checks, counts = point_identities_with_combines(monkeypatch, from_selector(selector), calls)
    assert all(c.ok for c in checks.values())
    assert counts["triple-fundamental"] == 0
    for commutative in (True, False):
        J = corrupt_structure(from_selector(selector), commutative=commutative)
        calls.clear()
        assert direct_fundamental(J)[0] == "fail"
        direct = len(calls)
        checks, counts = point_identities_with_combines(monkeypatch, J, calls)
        assert counts["triple-fundamental"] == direct > 0


@pytest.mark.parametrize("selector", ["sym:2", "sym:3", "full:2", "full:3", "spin:3", "spin:4", "spin:6"])
@pytest.mark.parametrize("variant", ["algebra", "m+1", "commutative", "non-commutative"])
def test_the_derived_fundamental_identity_agrees_with_the_direct_loop(monkeypatch, selector, variant):
    # derived exactly when the structure is commutative and power-associativity
    # passes, and with the direct loop's verdict and witness either way
    original = jordan.random_point
    monkeypatch.setattr(jordan, "random_point", lambda J, rng, invertible=True:
                        original(J, random.Random(0), invertible))
    J = from_selector(selector)
    if variant == "m+1":
        J = dataclasses.replace(J, m=J.m + 1)
    elif variant != "algebra":
        J = corrupt_structure(J, commutative=variant == "commutative")
    want = direct_fundamental(J)
    calls = spy(monkeypatch, jordan.JordanAlgebra, "_combine")
    checks, counts = point_identities_with_combines(monkeypatch, J, calls)
    fundamental = checks["triple-fundamental"]
    assert (fundamental.status, fundamental.witness) == want
    axioms = validate_structure(J)[0].ok and checks["power-associativity"].ok
    assert (counts["triple-fundamental"] == 0) == axioms == (variant in ("algebra", "m+1"))


def test_forms_are_the_same_only_with_equal_coordinates_of_equal_type(full2):
    same = lambda x, y: jordan._same(jordan._read(x.coords), jordan._read(y.coords))
    n = full2.n
    z = [ZPoly.coord(n, i) for i in range(n)]
    p = JElem((z[0] + z[1].scale(sc("1/2")), z[2] * z[3], ZPoly.zero(n), ZPoly.const(n, sc(3))))
    reordered = JElem((z[1].scale(sc("1/2")) + z[0], z[3] * z[2], ZPoly.zero(n), ZPoly.const(n, sc(3))))
    assert list(p[0].packed) != list(reordered[0].packed) and same(p, reordered)
    assert same(full2.product(p, p), JElem(full2.product(p, p).coords))
    real, lifted_real = elem(1, 2, 0, 4), JElem(ZPoly.const(n, sc(c)) for c in (1, 2, 0, 4))
    gaussian = JElem((Scalar(1), Scalar(2), Scalar(0, 1), Scalar(4)))
    assert same(real, elem(1, 2, 0, 4)) and same(lifted_real, JElem(lifted_real.coords))
    for x, y in ((real, lifted_real), (real, gaussian), (gaussian, real), (real, elem(2, 4, 0, 8)),
                 (real, elem(Fraction(1, 2), 1, 0, 2)),
                 (real, elem(1, 2, 0, 5)), (p, JElem(p.coords[:3] + (ZPoly.const(n, sc(4)),)))):
        assert not same(x, y), (x, y)


@pytest.mark.parametrize("selector", ["sym:2", "full:2", "spin:4"])
def test_weighted_sum_matches_the_coordinate_sum(selector):
    # sum_t w_t x_t, the left side of the fundamental identity, with
    # Gaussian, fractional and mixed weights and elements
    J = from_selector(selector)
    args = kernel_inputs(J)
    xs = args[:J.n]
    for w in args:
        got = J._result(J._weighted(J._form(w), tuple(J._form(x) for x in xs)))
        want = [sum((wt * xk for wt, xk in zip(lifted(J, w), column)), ZPoly.zero(J.n))
                for column in zip(*(lifted(J, x) for x in xs))]
        assert lifted(J, got) == want, w
        assert all(type(c) is (ZPoly if _has_zpoly(w, *xs) else Scalar) for c in got.coords)


# ---------------------------------------------------------------------------
# Traces, scalings, sums and the norm: weighted sums of integer forms
# ---------------------------------------------------------------------------

def entry_mul(a, b):
    """Product of two coordinate entries (Scalar or ZPoly, mixed allowed)."""
    if isinstance(a, ZPoly):
        return a * b if isinstance(b, ZPoly) else a.scale(b)
    return b.scale(a) if isinstance(b, ZPoly) else a * b


def reference_trace(J, a: JElem):
    """sum_t tr(b_t) a_t, coordinate by coordinate; defined on elements whose
    coordinates are all Scalar or all ZPoly."""
    out = None
    for ti, ai in zip(J.trace_vec, a.coords):
        if ti and not ai.is_zero():
            term = entry_mul(Scalar(ti), ai)
            out = term if out is None else out + term
    if out is None:
        return ZPoly.zero(J.n) if _has_zpoly(a) else ZERO
    return out


def reference_scale(c: Fraction, a: JElem) -> JElem:
    return JElem(tuple(entry_mul(Scalar(c), x) for x in a.coords))


def reference_add(a: JElem, b: JElem) -> JElem:
    return JElem(tuple(x + y for x, y in zip(a.coords, b.coords)))


def reference_norm_and_adjugate(J) -> tuple:
    """F and adj q with p_k = sum_i (q^(k-1))_i tr(b_i o q), tr(b_i o q) the
    Gram form ``linear_form(b_i)``, and adj q summed coordinate by
    coordinate."""
    n, r = J.n, J.r
    q = J.generic_elem()
    powers = [J.unit_elem(), q][:r]
    while len(powers) < r:
        powers.append(J.product(q, powers[-1]))
    forms = [J.linear_form(J.basis_element(i)) for i in range(n)]
    traces = [sum((entry_mul(x, f) for x, f in zip(p.coords, forms) if not x.is_zero()), ZPoly.zero(n))
              for p in powers]
    c = [ZPoly.one(n)]
    for k in range(1, r + 1):
        acc = sum((c[k - i] * traces[i - 1] for i in range(1, k + 1)), ZPoly.zero(n))
        c.append(acc.scale(Scalar(Fraction(-1, k))))
    adj = [ZPoly.zero(n)] * n
    for k in range(r):
        for j, x in enumerate(powers[r - 1 - k].coords):
            if not x.is_zero():
                adj[j] = adj[j] + entry_mul(c[k], x)
    sign = Scalar((-1) ** (r - 1))
    return c[r].scale(-sign), tuple(a.scale(sign) for a in adj)


def uniform_inputs(J) -> list:
    """Elements whose coordinates are all Scalar or all ZPoly: the inputs of
    ``kernel_inputs`` but the mixed one, that one lifted to ZPolys (Gaussian
    and L terms), and both zeros."""
    args = kernel_inputs(J)
    return args[:3] + [JElem(lifted(J, args[3]))] + args[4:] + [J.zero_elem(), JElem([ZPoly.zero(J.n)] * J.n)]


SCALINGS = [Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(5, 7)]


@pytest.mark.parametrize("selector, corruption", KERNEL_ALGEBRAS)
def test_trace_scale_and_add_match_the_coordinate_references(selector, corruption):
    J = kernel_algebra(selector, corruption)
    same = lambda got, want: got == want and type(got) is type(want)
    args = uniform_inputs(J)
    for a in args:
        assert same(J.trace(a), reference_trace(J, a)), a
        for c in SCALINGS:
            got, want = J.scale_elem(c, a), reference_scale(c, a)
            assert all(map(same, got.coords, want.coords)), (c, a)
        for b in args:
            if _has_zpoly(a) == _has_zpoly(b):
                got, want = J.add_elem(a, b), reference_add(a, b)
                assert all(map(same, got.coords, want.coords)), (a, b)


@pytest.mark.parametrize("selector, corruption", KERNEL_ALGEBRAS)
def test_element_sums_take_mixed_coordinates(selector, corruption):
    # one type rule for every element operation: ZPoly coordinates out when
    # any input coordinate is a ZPoly; the values are the coordinate sums
    J = kernel_algebra(selector, corruption)
    args = kernel_inputs(J)
    for a in args:
        kind = ZPoly if _has_zpoly(a) else Scalar
        got = J.trace(a)
        want = sum((x.scale(Scalar(t)) for x, t in zip(lifted(J, a), J.trace_vec)), ZPoly.zero(J.n))
        assert type(got) is kind and (got if kind is ZPoly else ZPoly.const(J.n, got)) == want, a
        scaled = J.scale_elem(Fraction(-3, 2), a)
        assert lifted(J, scaled) == [x.scale(Scalar(Fraction(-3, 2))) for x in lifted(J, a)], a
        assert all(type(x) is kind for x in scaled.coords)
        for b in args:
            total = J.add_elem(a, b)
            assert lifted(J, total) == [x + y for x, y in zip(lifted(J, a), lifted(J, b))], (a, b)
            assert all(type(x) is (ZPoly if _has_zpoly(a, b) else Scalar) for x in total.coords)


def test_norm_and_adjugate_match_the_gram_form_reference():
    for selector in ([f"sym:{r}" for r in range(1, 5)] + [f"full:{r}" for r in range(1, 5)]
                     + [f"spin:{p}" for p in range(2, 9)]):
        J = from_selector(selector)
        F, adj = reference_norm_and_adjugate(J)
        assert J.normF == F and J.adjugate == adj, selector
        assert all(type(x) is ZPoly for x in J.adjugate), selector


# ---------------------------------------------------------------------------
# Linear forms: the Gram table through the integer kernel
# ---------------------------------------------------------------------------

def reference_linear_form(J, x: JElem) -> ZPoly:
    """sum_k (sum_i x_i G_ik) z_k summed coordinate by coordinate, G the Gram
    matrix; defined on elements with Scalar coordinates."""
    packed = {}
    for k in range(J.n):
        c = ZERO
        for xi, row in zip(x.coords, J.gram):
            if row[k] and not xi.is_zero():
                c = c + xi * Scalar(row[k])
        if not c.is_zero():
            packed[pack(J.n, tuple(int(j == k) for j in range(J.n + 1)))] = c
    return _zpoly(J.n, packed)


@pytest.mark.parametrize("selector, corruption", KERNEL_ALGEBRAS)
def test_linear_form_matches_the_gram_reference(selector, corruption):
    # a corrupted copy keeps the Gram matrix, so its linear forms stay the
    # original's; on a clean algebra they are the trace forms tr(x o q)
    J = kernel_algebra(selector, corruption)
    args = kernel_inputs(J)
    scalars = (args[:3] + [J.zero_elem(), J.unit_elem(), J.idempotent_elem()]
               + [J.basis_element(i) for i in range(J.n)] + [J.dual_basis_element(i) for i in range(J.n)])
    for x in scalars:
        got, want = J.linear_form(x), reference_linear_form(J, x)
        assert got == want and type(got) is type(want), x
    if corruption is None:
        for x in args:
            got = J.linear_form(x)
            assert got == J.trace_form(x, J.generic_elem()) and type(got) is ZPoly, x


def test_linear_forms_of_polynomial_elements(full2):
    # tr(q o q) = tr(q^2) for the generic 2 x 2 matrix, and tr(q o adj q) = 2F
    z = [ZPoly.coord(4, i) for i in range(4)]
    assert full2.linear_form(full2.generic_elem()) == z[0] * z[0] + (z[1] * z[2]).scale(sc(2)) + z[3] * z[3]
    assert full2.linear_form(full2.adjugate_elem()) == full2.normF.scale(sc(2))


# ---------------------------------------------------------------------------
# Failure branches and the elimination route of the Gram inverse
# ---------------------------------------------------------------------------

def test_gauss_inverse_refuses_a_singular_matrix():
    with pytest.raises(jordan.JordanError, match="singular"):
        jordan._gauss_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_gauss_inverse_of_a_dense_matrix():
    # every built-in Gram matrix has one nonzero entry per row, so only
    # a dense matrix runs the elimination
    a = [[Fraction(x) for x in row] for row in ([2, 1, 1], [1, 3, 2], [1, 0, 0])]
    inv = jordan._gauss_inverse(a)
    assert [[sum(a[i][k] * inv[k][j] for k in range(3)) for j in range(3)] for i in range(3)] == \
        [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("selector", ["full:2", "spin:4"])
def test_a_wrong_dimension_ratio_fails_its_check(selector):
    import dataclasses
    J = from_selector(selector)
    failed = {c.name: c.witness for c in validate_structure(dataclasses.replace(J, m=J.m + 1)) if not c.ok}
    assert failed["dimension-ratio"] == "n/r = 2 != m = 3"


def test_derivative_identities_refuse_an_unknown_mode(sym2):
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        derivative_identities(sym2, mode="bogus")
