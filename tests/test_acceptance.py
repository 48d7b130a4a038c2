"""Acceptance gate: every criterion as an exact check at its stated scale.

All identity checks are exact (zero tolerance); the only approximate
quantities are the wall-clock budgets, asserted as upper bounds.  Each
test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output).
"""

import dataclasses
import json
import random
import time
from fractions import Fraction
from math import factorial

import pytest

from twistedops import cli, jordan, moyal, rep, verify
from twistedops.jordan import PrimitiveIdempotentError, from_selector
from twistedops.report import validate_report_dict
from twistedops.ring import LambdaPoly, LocFn, Scalar, SuperFn, ONE, ZERO
from twistedops.weyl import DiffOp, fourier

CORE_ALGEBRAS = ["full:1", "full:2", "sym:2", "spin:3", "spin:4", "spin:5"]


def announce(number, name, ok=True):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------

def test_criterion_01_critical_values_rank_one(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "critical", "--algebra", "full:1")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.strip() == "1/4, 3/4"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    announce(1, "critical values full:1 = (1/4, 3/4) under 1 s")


@pytest.mark.parametrize("selector,expected,budget", [
    ("sym:2", "1/3, 2/3", 60.0),
    ("full:2", "3/8, 5/8", 60.0),
    ("spin:3", "1/3, 2/3", 60.0),
    ("spin:4", "3/8, 5/8", 60.0),
    ("spin:5", "2/5, 3/5", 60.0),
    ("full:3", "5/12, 7/12", 600.0),
])
def test_criterion_02_critical_values_higher_rank(capsys, selector, expected, budget):
    start = time.perf_counter()
    code, out = run_cli(capsys, "critical", "--algebra", selector)
    elapsed = time.perf_counter() - start
    assert code == 0 and out.strip() == expected
    # agreement with the closed form 1/2 -+ 1/(4m)
    J = from_selector(selector)
    lam0, lam0p = rep.critical_pair(J)
    assert out.strip() == f"{Scalar(lam0)}, {Scalar(lam0p)}"
    assert elapsed < budget, f"took {elapsed:.2f}s"
    announce(2, f"critical values {selector} = ({expected})")


def test_criterion_03_first_bracket_identity():
    for selector in CORE_ALGEBRAS:
        J = from_selector(selector)
        for i in range(J.n):
            lhs, rhs = verify.w_bracket_sides(J, i)
            assert (lhs - rhs).is_zero(), f"{selector} basis {i+1}"
    announce(3, "bracket with w exact at formal twist, all basis directions")


def test_criterion_04_idempotent_bracket_identity():
    for selector in CORE_ALGEBRAS:
        J = from_selector(selector)
        res = verify.check_idempotent_bracket(J)
        assert res.ok, f"{selector}: {res.witness}"
    announce(4, "idempotent bracket equals the squared derivative")


def test_criterion_05_double_commutator_structure():
    for selector in CORE_ALGEBRAS:
        J = from_selector(selector)
        y = J.idempotent_elem()
        p = rep.pi_minus(J, y)
        W = DiffOp.mult_w(J)
        D = p.commutator(p.commutator(W))
        # order zero, with the first-order (vector-field) part identically
        # zero in the twist parameter
        assert all(sum(beta) == 0 for beta in D.terms), selector
        assert D.order() <= 0
        # exact equality with -m^2 (L - l0)(L - l0') w tr(y q^-1)^2
        quad = verify.double_commutator_quadratic(J)
        lam0, lam0p = rep.critical_pair(J)
        m2 = Scalar(J.m * J.m)
        expect_quad = LambdaPoly((
            -m2 * Scalar(lam0) * Scalar(lam0p),
            m2 * Scalar(lam0 + lam0p),
            -m2,
        ))
        assert quad == expect_quad, selector
        t = J.tr_v_qinv(y)
        rhs_coeff = SuperFn.from_locfn(LocFn.zero(J.ring), (t * t).scale(quad))
        assert D == DiffOp.mult(J, rhs_coeff), selector
    announce(5, "double commutator collapses to the quadratic times w tr^2")


def test_criterion_06_conjugation_by_w():
    for selector in CORE_ALGEBRAS:
        J = from_selector(selector)
        lam0, lam0p = rep.critical_pair(J)
        for i in range(J.n):
            x = J.basis_element(i)
            mult = rep.pi_plus(J, x)
            assert mult.conjugate_by_w() == mult, selector
            assert rep.pi_minus(J, x, lam0p).conjugate_by_w() == rep.pi_minus(J, x, lam0), selector
    announce(6, "conjugation by w carries the upper twist to the lower")


def test_criterion_07_sign_antimap_and_beta():
    from twistedops.ring import IUNIT

    one_minus = LambdaPoly((ONE, Scalar(-1)))
    for selector in CORE_ALGEBRAS:
        J = from_selector(selector)
        for i in range(J.n):
            for op in (rep.pi_plus(J, J.basis_element(i)),
                       rep.pi_minus(J, J.basis_element(i))):
                assert op.delta_map() == (-op).subst_lambda(one_minus), selector
        W = DiffOp.mult_w(J)
        beta_w = W.delta_map().conjugate_by_w()
        assert beta_w == W.scale(IUNIT ** J.r), selector
        assert beta_w.delta_map().conjugate_by_w() == W.scale(Scalar(-1) ** J.r), selector
    announce(7, "sign antimap sends twist L to 1-L; beta acts on w by i^r")


def test_criterion_08_fourier_consistency():
    for selector in CORE_ALGEBRAS:
        J = from_selector(selector)
        for i in range(J.n):
            x = J.basis_element(i)
            assert fourier(rep.eta_plus(J, x).scale(Scalar(-1))) == rep.pi_plus(J, x), selector
            assert fourier(rep.eta_minus(J, x).scale(Scalar(-1))) == rep.pi_minus(J, x), selector
    announce(8, "Fourier transform of the vector fields matches the operators")


def test_criterion_09_symmetry_span_and_closure():
    expected = {"sym": lambda J: J.r * J.r,
                "full": lambda J: 2 * J.r * J.r - 1,
                "spin": lambda J: 1 + J.n * (J.n - 1) // 2}
    for selector in CORE_ALGEBRAS:
        J = from_selector(selector)
        ops, dim = rep.k_span(J, Fraction(5, 7))
        assert dim == expected[J.kind](J), selector
        res = verify.check_closure(J, Fraction(5, 7))
        assert res.ok, f"{selector}: {res.witness}"
    announce(9, "span dimensions match and brackets close at twist 5/7")


def test_criterion_10_module_and_lowest_weight():
    for selector in CORE_ALGEBRAS:
        J = from_selector(selector)
        res = verify.check_h_module(J)
        assert res.ok, f"{selector}: {res.witness}"
        res = verify.check_lowest_weight(J)
        assert res.ok, f"{selector}: {res.witness}"
    announce(10, "module stability at the critical twist with denominator witness")


def test_criterion_11_jordan_calculus():
    for selector in ["full:2", "sym:2", "spin:3", "spin:4", "spin:5"]:
        J = from_selector(selector)
        results = jordan.derivative_identities(J, mode="symbolic")
        assert all(c.ok for c in results), selector
    J3 = from_selector("full:3")
    results = jordan.derivative_identities(J3, mode="points",
                                           rng=random.Random(0), count=20)
    assert all(c.ok for c in results)
    # completeness and trace normalization, exactly, on every algebra
    for selector in CORE_ALGEBRAS + ["full:3", "sym:3", "spin:6"]:
        J = from_selector(selector)
        acc = J.zero_elem()
        for i in range(J.n):
            acc = J.add_elem(acc, J.product(J.basis_element(i), J.dual_basis_element(i)))
        assert acc == J.scale_elem(J.m, J.unit_elem()), selector
        for i in range(J.n):
            total = sum((J.prod[i][j][j] for j in range(J.n)), Fraction(0))
            assert total == J.m * J.trace_vec[i], selector
    announce(11, "derivative identities exact (symbolic) and at 20 seeded points")


def test_criterion_12_quantization_lab():
    start = time.perf_counter()
    monos = [moyal.PolyZX.monomial(a, d - a) for d in range(7) for a in range(d + 1)]
    # pairing closed form
    for p in range(7):
        for q in range(7):
            want = Scalar(Fraction(factorial(p), 2 ** p)) if p == q else ZERO
            assert moyal.pairing(moyal.PolyZX.xi(p), moyal.PolyZX.zeta(q)) == want
    half = Scalar(Fraction(1, 2))
    for phi in monos:
        for psi in monos:
            j, k = phi.euler_degree(), psi.euler_degree()
            pmax = int(2 * min(j, k))
            total = moyal.PolyZX.zero()
            for p in range(pmax + 1):
                cp = moyal.c_component(phi, psi, p)
                cq = moyal.c_component(psi, phi, p)
                assert cp == (cq if p % 2 == 0 else -cq)
                total = total + cp
            assert total == moyal.circle(phi, psi)  # band bound
            assert moyal.c_component(phi, psi, 0) == phi * psi
            assert moyal.c_component(phi, psi, 1) == moyal.poisson(phi, psi).scale(half)
            # supertrace sign rule
            t1 = moyal.supertrace(moyal.circle(phi, psi))
            t2 = moyal.supertrace(moyal.circle(psi, phi))
            if moyal.parity(phi) != moyal.parity(psi):
                assert t1 == ZERO and t2 == ZERO
            else:
                assert t1 == (t2 if moyal.parity(phi) == 0 else -t2)
    # degree-one commutators reproduce the bracket exactly
    small = [m for m in monos if m.poly_degree() <= 5]
    for tag, phi in moyal.GENERATORS.items():
        for psi in small:
            assert (moyal.circle(phi, psi) - moyal.circle(psi, phi)
                    == moyal.poisson(phi, psi))
            assert (moyal.circle(phi, psi)
                    == phi * psi + moyal.poisson(phi, psi).scale(half)
                    + moyal.lambda_op(tag, psi))
            for psi2 in small:
                assert (moyal.pairing(phi * psi, psi2)
                        == moyal.pairing(psi, moyal.lambda_op(tag, psi2)))
    # abelian collapse
    for a in range(5):
        for b in range(5):
            assert moyal.circle(moyal.PolyZX.zeta(a), moyal.PolyZX.zeta(b)) == moyal.PolyZX.zeta(a + b)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    announce(12, f"quantization lab exact in {elapsed:.1f} s")


def test_criterion_13_negative_controls(sym2):
    # (a) one perturbed structure constant is caught, with witnesses
    prod = [[[c for c in cell] for cell in row] for row in sym2.prod]
    prod[0][2][0] += Fraction(1, 5)
    prod[2][0][0] += Fraction(1, 5)
    bad = dataclasses.replace(
        sym2, prod=tuple(tuple(tuple(c) for c in row) for row in prod))
    report = verify.run_suite(bad, "jordan")
    assert report.overall == "fail"
    failed = [c for c in report.checks if not c.ok]
    assert failed and all(c.witness for c in failed)
    assert validate_report_dict(json.loads(report.to_json())) == []
    # (b) a non-idempotent direction is rejected by the guard
    with pytest.raises(PrimitiveIdempotentError):
        verify.double_commutator_quadratic(sym2, sym2.basis_element(2))
    # (c) a perturbed dimension ratio moves the roots off the closed form
    skew = dataclasses.replace(sym2, m=sym2.m + 1)
    res = verify.check_critical(skew)
    assert not res.ok and res.witness
    announce(13, "negative controls fail loudly with witnesses")
