"""The flat plane: Weyl calculus and the Moyal-Weyl star product.

Walks through the basic objects: the symplectic context, Weyl-algebra
elements, the delta homotopy, flat sections, and the recovery of the
closed-form Moyal coefficients from the general machinery.
"""

from fedconn import (
    SymplecticData, ConnectionFamily, FedosovSetup, WeylForm,
    moyal_star, parse_poly, taylor_flat_section,
)

# The standard symplectic plane.  omega * pi = Id fixes pi, and the sign is
# chosen so that the Poisson matrix has pi^{12} = +1.
sym = SymplecticData([[0, -1], [1, 0]])
print("pi =", [[str(v) for v in row] for row in sym.pi])
print("{x1, x2} =", sym.poisson(parse_poly("x1", sym.roster), parse_poly("x2", sym.roster)))

# Weyl-algebra generators multiply with the h-graded Moyal-Weyl product.
N = 8
y1 = WeylForm.y_monomial(sym, N, (1, 0))
y2 = WeylForm.y_monomial(sym, N, (0, 1))
print("\ny1 o y2 =", y1.mw(y2))
print("commutator =", y1.mw(y2) - y2.mw(y1))

# delta and its homotopy inverse decompose every element:
a = WeylForm.y_monomial(sym, N, (0, 1), J=(0,))  # y^2 dx^1
print("\ndelta_inv(y^2 dx^1) =", a.delta_inv())
print("homotopy identity holds:",
      a.center_part() + a.delta().delta_inv() + a.delta_inv().delta() == a)

# The flat Fedosov setup: r = 0 and flat sections are Taylor expansions.
setup = FedosovSetup(ConnectionFamily(sym), None, trunc=N)
f = parse_poly("x1^2*x2", sym.roster)
print("\nr =", setup.r)
print("tau(f) is the fiberwise Taylor expansion:",
      setup.tau(f) == taylor_flat_section(sym, f, N))

# The star product reduces to the Moyal-Weyl product, recovered exactly as
# bidifferential operators.
x1, x2 = parse_poly("x1", sym.roster), parse_poly("x2", sym.roster)
print("\nx1 * x2 =", setup.star(x1, x2, 3))
print("x2 * x1 =", setup.star(x2, x1, 3))
star = setup.extract_star(4)
print("extracted coefficients equal the closed form:",
      star == moyal_star(sym, 4))
