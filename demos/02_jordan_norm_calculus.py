"""Jordan algebras, their norms, and the derivative identities.

The package ships three exact families:

    sym:r   symmetric r x r matrices     (norm = determinant)
    full:r  all r x r matrices           (norm = determinant)
    spin:p  the rank-2 spin factor       (norm = a quadratic form)

Each algebra knows its unit, trace form, dual basis, adjugate map and
the degree-r norm polynomial F.  The punchline of this demo: the
partial derivatives of F and of w = sqrt(F) are expressed through the
trace and the triple product, and those expressions hold *exactly* as
polynomial identities.
"""

import random

from twistedops.jordan import from_selector, random_point, verify_jordan_calculus

for selector in ("full:2", "sym:2", "spin:3"):
    J = from_selector(selector)
    print(f"== {selector}:  n={J.n}  rank={J.r}  m=n/r={J.m}")
    print("   norm F =", J.normF)

    # adjugate identity q o adj(q) = F(q) e at a random rational point
    rng = random.Random(0)
    q = random_point(J, rng)
    adj = J.adjugate_at(q)
    prod = J.product(q, adj)
    f = J.norm_at(q)
    print("   q o adj(q) = F(q) e at a random point:",
          prod == J.scale_elem(f.re, J.unit_elem()))

    # the full identity suite: structure, product identities, derivatives
    results = verify_jordan_calculus(J, rng)
    width = max(len(c.name) for c in results)
    for c in results:
        print(f"   {c.name:<{width}}  {c.status}")
    print()
