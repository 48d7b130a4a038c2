"""A walk through the exact function ring of the square-root cover.

Everything below is computed over the Gaussian rationals: no floats,
no rounding, and fractions stay in canonical form (the norm polynomial
F is cancelled out of denominators whenever it divides exactly).
"""

from fractions import Fraction

from twistedops.ring import (
    LAMBDA, LambdaPoly, LocFn, RingContext, Scalar, SuperFn, ZPoly,
    grade, parse_superfn, superfn_str,
)

# Work over four coordinates arranged as a 2x2 matrix, with F the
# determinant z1*z4 - z2*z3.
n = 4
z = [ZPoly.coord(n, i) for i in range(n)]
F = z[0] * z[3] - z[1] * z[2]
ctx = RingContext(n, F, r=2)

print("norm polynomial F:", F)

# w is a formal square root of F: w * w = F.
w = SuperFn.w(ctx)
print("w * w == F:", w * w == SuperFn.from_zpoly(ctx, F))

# Differentiation knows the chain rule for w.
dw = w.derivative(0)
print("d(w)/dz1 =", superfn_str(dw), "   (i.e. (1/2) z4 w / F)")

# Localized fractions cancel F automatically.
frac = LocFn(ctx, F * z[0], 2)
print("F*z1 / F^2 collapses to:", frac, " (denominator exponent", frac.k, ")")

# The Euler grading counts z at 1, w at r/2, and 1/F at -r.
print("grade(w) =", grade(w))
print("grade(z1*z2) =", grade(SuperFn.from_zpoly(ctx, z[0] * z[1])))
w_over_F = SuperFn.from_locfn(LocFn.zero(ctx), LocFn(ctx, ZPoly.one(n), 1))
print("grade(w/F) =", grade(w_over_F))

# The twist parameter stays formal: coefficients are polynomials in L.
lam = LAMBDA
quad = -(lam * lam) + lam + LambdaPoly.from_rational(Fraction(-3, 16))
print("a twist quadratic:", quad, "with roots", tuple(map(str, quad.quadratic_roots())))

# Text form round-trips exactly.
f = dw + SuperFn.from_zpoly(ctx, z[1].scale(Scalar(2)))
text = superfn_str(f)
print("serialized:", text)
print("round-trips:", parse_superfn(text, ctx) == f)
