"""Gauge equivalence and parallel transport of formal connections.

Two different trivializations of the same family produce two compatible flat
connections.  Over a parameter space with trivial first cohomology they are
gauge equivalent: the inductive construction yields a self-equivalence P of
the family of star products with V[P] = P A'(V) - A(V) P.  Parallel
transport of either connection conjugates star_0 into star_t.
"""

from fedconn import (
    SymplecticData, ConnectionFamily, FamilyContext, WeylForm, parse_poly,
    trivialize_alpha, solve_s, connection_form,
    gauge_equivalence, self_equivalence_check, parallel_transport,
    conjugation_check, invert, is_derivation,
)

sym = SymplecticData([[0, -1], [1, 0]])
alpha = WeylForm.omega_form(sym, 8) + WeylForm.two_form(
    sym, 8, {(1, 0, 1): parse_poly("t1", sym.roster)}
)
family = FamilyContext(ConnectionFamily(sym), alpha, ["t1"], order=3)

beta = trivialize_alpha(family)
A = connection_form(family, {"t1": solve_s(family, beta, "t1")})

# a second trivialization: shift by an exact (hence closed) 1-form at h^1
shift = WeylForm.from_poly(sym, 8, parse_poly("x1^2*x2", sym.roster)).d_x().shift_h(1)
beta2 = beta.shifted_by_closed("t1", shift)
A2 = connection_form(family, {"t1": solve_s(family, beta2, "t1")})

diff = A2["t1"] - A["t1"]
print("difference of the two connections is a derivation:",
      is_derivation(diff, family.star, basis_degree=2)[0])

P = gauge_equivalence(family, A, A2, 3)
print("\ngauge transformation P:")
for line in P.serialize().splitlines():
    print(" ", line)
defect = P.t_derivative("t1") - (P.compose(A2["t1"]) - A["t1"].compose(P))
print("gauge equation V[P] = P A'(V) - A(V) P:", defect.is_zero())
print("self-equivalence of the family:", self_equivalence_check(family, P, 2)[0])
print("P o P^{-1} = id:", P.compose(invert(P)).serialize())

phi = parallel_transport(family, A, "t1")
print("\nparallel transport Phi(t):")
for line in phi.serialize().splitlines():
    print(" ", line)
print("Phi conjugates star_0 to star_t:",
      conjugation_check(family, phi, "t1", basis_degree=2)[0])
