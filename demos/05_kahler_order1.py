"""Linear Kahler families and the order-1 connection checks.

A symplectic shear produces a polynomial family of compatible complex
structures on the plane.  The variation bivector G(V), the first star
coefficient c1, and the order-1 connection term

    A1(V)(f) = -(1/4) Delta_{G(V)}(f) + c1(V[F], f) + V[c1](F, f)

satisfy, exactly: the variation lemma for V[c1], the order-1 Leibniz
identity, and flatness via the potential P1.  A deliberately mutated
quarter-factor fails, which is what makes the passing checks meaningful.
"""

import sys
from fractions import Fraction

from fedconn import SymplecticData, LinearKahlerFamily, Poly, parse_poly
from fedconn import kahler
from fedconn.kahler import verify_lemma_vc1, order1_hitchin_check
from fedconn.scalars import I


def pr(expr):
    """A t-only value: a Poly over the empty roster ()."""
    return parse_poly(expr, ())


sym = SymplecticData([[0, -1], [1, 0]])
fam = LinearKahlerFamily(
    sym,
    [[pr("-t1"), pr("1+t1^2")], [pr("-1"), pr("t1")]],
    samples=[{"t1": 0}, {"t1": Fraction(1, 2)}, {"t1": -2}],
)
print("g_t =", [[str(v) for v in row] for row in fam.g])
print("gtilde_t =", [[str(v) for v in row] for row in fam.gtilde])

G, Gh, Ga = fam.gtilde_variation("t1")
print("\nG(V) = -V[gtilde] =", [[str(v) for v in row] for row in G])
print("holomorphic part =", [[str(v) for v in row] for row in Gh])

f = parse_poly("x1^2*x2", sym.roster)
g = parse_poly("x2^2 - x1", sym.roster)
c1 = fam.c1_operator()
print("\nc1(f,g) =", c1.apply(f, g).poly(0))
print("c1(f,g) - c1(g,f) = i{f,g}:",
      (c1.apply(f, g) - c1.apply(g, f)).poly(0) == sym.poisson(f, g).scale(I))

vc1, _ = fam.variation_operators("t1")
print("V[c1](f,g) =", vc1.apply(f, g).poly(0))
print("variation lemma, for all f and g:", verify_lemma_vc1(fam, "t1", basis_degree=2))

F = parse_poly("t1*x1^2*x2", sym.roster)
print("\norder-1 report for the Ricci-potential stand-in F =", F)
for name, ok, wit in order1_hitchin_check(fam, F, basis_degree=2):
    print(f"  [{name}] {'ok' if ok else wit}")

print("\nmutated quarter factor (1/2 instead of 1/4):")
kahler.DELTA_FACTOR = Fraction(1, 2)
failing = [name for name, ok, _ in order1_hitchin_check(fam, F, basis_degree=2) if not ok]
kahler.DELTA_FACTOR = Fraction(1, 4)
if not failing:
    sys.exit("the mutated quarter factor passes every order-1 check")
print(f"  [{failing[0]}] FAILS as expected")

print("\nH(V) =", fam.operator_H("t1", F))
print("E(V)(x1) =", fam.operator_E("t1", F, Poly.var(sym.roster, "x1")))
