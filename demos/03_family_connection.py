"""A formal connection for a smooth family of star products.

The family alpha_t = omega + h t dx1^dx2 over one parameter deforms the
star product.  Trivializing the variation of the characteristic form
produces, through the s-recursion, a connection 1-form A with

    d_H A(V) = V[star]      (the derivation property of D_V = V + A(V))
    A(V)(f) = -h i_V i_{X_f} beta_1  mod h^2.

Both identities are checked as exact identities in t.
"""

from fedconn import (
    SymplecticData, ConnectionFamily, FamilyContext, WeylForm, parse_poly,
    trivialize_alpha, solve_s, connection_form, verify_compatibility,
    lowest_order_identity, derivation_identity,
)

sym = SymplecticData([[0, -1], [1, 0]])
alpha = WeylForm.omega_form(sym, 8) + WeylForm.two_form(
    sym, 8, {(1, 0, 1): parse_poly("t1", sym.roster)}
)
family = FamilyContext(ConnectionFamily(sym), alpha, ["t1"], order=3)

beta = trivialize_alpha(family)
print("i_V beta (the trivialization of V[alpha]):")
print(beta["t1"].serialize())

s = solve_s(family, beta, "t1")
print("\ni_V s by total degree:")
for d in range(9):
    h = s.homogeneous(d)
    if not h.is_zero():
        print(f"  degree {d}:")
        for line in h.serialize().splitlines():
            print("   ", line)

A = connection_form(family, {"t1": s})
print("\nA(d/dt1) as an operator:")
for line in A["t1"].serialize().splitlines():
    print(" ", line)

ok, wit = lowest_order_identity(family, A, beta)
print("\nlow-order formula A(V)(f) = -h i_V i_{X_f} beta_1:", "ok" if ok else wit)

ok, wit = verify_compatibility(family, A, basis_degree=3)
print("compatibility d_H A(V) = V[star] mod h^4:", "ok" if ok else wit)

ok, wit = derivation_identity(family, A, basis_degree=2)
print("derivation identity on t-dependent sections:", "ok" if ok else wit)
