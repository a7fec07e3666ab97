"""Fedosov's construction with a curved symplectic connection.

Symplectic connections on the plane form an affine space: contracting a
totally symmetric 3-tensor T with the Poisson matrix gives valid Christoffel
symbols.  The recursion then produces the unique abelian r, flat sections,
and a genuinely non-Moyal star product whose axioms we verify exactly.
"""

import itertools
import random

from fedconn import (
    SymplecticData, ConnectionFamily, FedosovSetup, WeylForm, Poly,
    parse_poly, monomials_up_to, validate_star_axioms,
)

sym = SymplecticData([[0, -1], [1, 0]])
r2 = sym.roster


def connection_from_T(T):
    full = {}
    for key, p in T.items():
        for perm in set(itertools.permutations(key)):
            full[perm] = p
    gamma = {}
    for k in range(2):
        for i in range(2):
            for j in range(i, 2):
                acc = Poly.zero(r2)
                for l in range(2):
                    v = sym.pi[k][l]
                    if not v.is_zero() and (l, i, j) in full:
                        acc = acc + full[(l, i, j)].scale(v)
                if not acc.is_zero():
                    gamma[(k, i, j)] = acc
    return ConnectionFamily(sym, gamma)


conn = connection_from_T({(0, 0, 0): parse_poly("x2", r2), (0, 0, 1): Poly.const(r2, 1)})
print("nabla omega = 0:", conn.validate())
print("Weyl curvature element R:", conn.curvature_weyl(8))

alpha = (
    WeylForm.omega_form(sym, 8)
    + WeylForm.two_form(sym, 8, {(1, 0, 1): parse_poly("x1", r2)})
    + WeylForm.two_form(sym, 8, {(2, 0, 1): Poly.const(r2, 2)})
)
setup = FedosovSetup(conn, alpha, trunc=8)
print("\nlowest component of r:")
print(setup.r.homogeneous(3).serialize())
print("delta* r = 0:", setup.r.delta_star().is_zero())
print("characteristic form reproduces alpha:",
      (setup.weyl_curvature(setup.r) - alpha).homogeneous(4).is_zero())

star = setup.extract_star(3)
print("\nstar coefficients as bidifferential operators:")
for line in star.serialize().splitlines()[:8]:
    print(" ", line)
print("  ...")

for name, ok, wit in validate_star_axioms(star, sym, 2):
    print(f"axiom [{name}]: {'ok' if ok else wit}")

rng = random.Random(0)
basis = monomials_up_to(r2, 3)
f, g, k = (rng.choice(basis) for _ in range(3))
print(f"\nassociativity on ({f}, {g}, {k}):",
      star.apply(star.apply(f, g), k) == star.apply(f, star.apply(g, k)))
