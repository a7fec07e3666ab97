"""Symplectic data on R^(2n): constant symplectic form, Poisson calculus,
polynomial families of symplectic connections, their Weyl curvature and the
variation 1-form of the covariant derivative.

Sign conventions (fixed once, verified by the test suite):

* omega * pi = Id, written as sum_j omega_ij pi^{jk} = delta_i^k.
* {f, g} = pi^{ij} d_i f d_j g.
* X_f is the vector field with X_f(g) = {f, g}.
* d_nabla = dx^i wedge (d/dx^i - Gamma^m_ij y^j d/dy^m).

The Weyl curvature element R and the variation element i_V S are not given by
a guessed index formula: they are solved from their defining operator
identities  d_nabla^2 = -ad_over_h(R, .)  and  V[d_nabla] = (1/2) ad_over_h(i_V S, .)
acting on the fiber generators y^m, then checked for symmetry.  A failed
internal check raises SymplecticCheckError.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar
from .polynomials import Poly, PolySums, is_param_name, add_term
from .weylforms import WeylContext, WeylForm
from .multidiff import MultiDiffOp


class SymplecticCheckError(AssertionError):
    """An internal check of the symplectic calculus failed: the y-linear
    action of d_nabla^2, or the symmetry of the solved curvature or
    variation tensor.  ``check`` names it in reports; the message gives the
    witness."""

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


class SymplecticData(WeylContext):
    """Constant symplectic structure; also the Weyl-algebra context."""

    # -- Poisson calculus ----------------------------------------------------

    def poisson(self, f: Poly, g: Poly) -> Poly:
        """{f, g} = pi^{ij} d_i f d_j g."""
        f = f.with_roster(self.roster)
        g = g.with_roster(self.roster)
        out = Poly.zero(self.roster)
        for i, j, v in self._pi_entries:
            out = out + (f.differentiate(self.roster[i]) * g.differentiate(self.roster[j])).scale(v)
        return out

    def poisson_operator(self) -> MultiDiffOp:
        """The Poisson bivector as the arity-2, h^0 operator (f, g) -> {f, g}:
        one term pi^{ij} d_i (x) d_j per nonzero entry."""
        return MultiDiffOp.pairing(self.roster, self._pi_entries)

    def hamiltonian_vf(self, f: Poly):
        """Components of X_f, the field with X_f(g) = {f, g}: X^j = pi^{ij} d_i f."""
        f = f.with_roster(self.roster)
        comps = [Poly.zero(self.roster) for _ in range(self.dim)]
        for i, j, v in self._pi_entries:
            comps[j] = comps[j] + f.differentiate(self.roster[i]).scale(v)
        return tuple(comps)

    def gradient_of_potential(self, X):
        """The 1-form eta with eta_i = sum_j omega_ij X^j."""
        eta = []
        for i in range(self.dim):
            acc = Poly.zero(self.roster)
            for j in range(self.dim):
                w = self.omega[i][j]
                if not w.is_zero():
                    acc = acc + X[j].scale(w)
            eta.append(acc)
        return tuple(eta)

    def potential_of_gradient(self, eta) -> Poly:
        """f with df = eta and f(0) = 0; raises when eta is not closed."""
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                lhs = eta[b].differentiate(self.roster[a])
                rhs = eta[a].differentiate(self.roster[b])
                if lhs != rhs:
                    raise ValueError(
                        f"1-form is not closed: d_{a+1} eta_{b+1} != d_{b+1} eta_{a+1}"
                    )
        f = Poly.zero(self.roster)
        for i in range(self.dim):
            f = f + eta[i].map_x(
                lambda e: (e[:i] + (e[i] + 1,) + e[i + 1:], Fraction(1, sum(e) + 1)))
        return f


class ConnectionFamily:
    """Christoffel table Gamma^k_ij(x; t), symmetric in (i, j), over a SymplecticData."""

    def __init__(self, sym: SymplecticData, gamma=None):
        self.sym = sym
        table = {}
        for (k, i, j), p in (gamma or {}).items():
            p = p.with_roster(sym.roster)
            if p.is_zero():
                continue
            for key in {(k, i, j), (k, j, i)}:
                if key in table and table[key] != p:
                    raise ValueError(f"Gamma^{k+1}_{{{i+1},{j+1}}} breaks the (i,j) symmetry")
                table[key] = p
        self.gamma = table
        self.entries = [(m, i, j, p) for (m, i, j), p in sorted(table.items())]

    def t_derivative_table(self, name: str):
        out = {}
        for (m, i, j), p in self.gamma.items():
            d = p.differentiate(name)
            if not d.is_zero():
                out[(m, i, j)] = d
        return out

    def subs_params(self, values: dict) -> "ConnectionFamily":
        return ConnectionFamily(
            self.sym,
            {key: p.subs_params(values) for key, p in self.gamma.items()},
        )

    # -- validation -----------------------------------------------------------

    def validate(self):
        """(ok, witness): passes iff nabla omega = 0 identically."""
        sym = self.sym
        zero = Poly.zero(sym.roster)
        for i in range(sym.dim):
            for j in range(sym.dim):
                for k in range(j + 1, sym.dim):
                    acc = zero
                    for l in range(sym.dim):
                        g1 = self.gamma.get((l, i, j))
                        if g1 is not None:
                            acc = acc + g1.scale(-sym.omega[l][k])
                        g2 = self.gamma.get((l, i, k))
                        if g2 is not None:
                            acc = acc + g2.scale(-sym.omega[j][l])
                    if not acc.is_zero():
                        witness = (
                            f"(nabla_{i+1} omega)_{{{j+1},{k+1}}} = {acc}"
                        )
                        return False, witness
        return True, None

    # -- covariant derivative ----------------------------------------------------

    def cov_deriv(self, a: WeylForm, sink=None, weight=1):
        """d_nabla a = dx^i wedge (d_i - Gamma^m_ij y^j d/dy^m) a.

        Its d_x and Gamma terms are summed in one PolySums: with a ``sink``,
        the caller's, into which d_nabla a times ``weight`` (an int or a
        Scalar) is added and nothing is returned."""
        if a.ctx != self.sym:
            raise ValueError("form does not live over this symplectic data")
        out = PolySums() if sink is None else sink
        a.d_x(out, weight)
        for (k, alpha, J), c in a.terms.items():
            for (m, i, j, g) in self.entries:
                e = alpha[m]
                if not e or i in J:
                    continue
                na = list(alpha)
                na[m] -= 1
                na[j] += 1
                before = sum(1 for q in J if q < i)
                out.add_product((k, tuple(na), tuple(sorted(J + (i,)))), g, c,
                                -e * weight if before % 2 == 0 else e * weight)
        if sink is None:
            return WeylForm(self.sym, a.trunc, out.polys())

    # -- curvature and its variation ------------------------------------------------

    def curvature_weyl(self, trunc: int) -> WeylForm:
        """The unique y-quadratic 2-form R with d_nabla^2 = -ad_over_h(R, .)."""
        sym = self.sym
        n = sym.dim
        if not self.gamma:
            return WeylForm.zero(sym, trunc)
        # action on generators: d_nabla^2 y^m = sum C^J_{mb}(x) y^b dx^J
        C = {}
        for m in range(n):
            ym = WeylForm.y_monomial(sym, trunc, tuple(1 if q == m else 0 for q in range(n)))
            d2 = self.cov_deriv(self.cov_deriv(ym))
            for (k, alpha, J), c in d2.terms.items():
                if k != 0 or sum(alpha) != 1:
                    raise SymplecticCheckError(
                        "curvature action",
                        f"d_nabla^2 y{m + 1} has a term of y-degree {sum(alpha)} at h^{k}")
                b = alpha.index(1)
                C.setdefault(J, {})[(m, b)] = c
        terms = {}
        zero = Poly.zero(sym.roster)
        for J, table in C.items():
            rhat = {}
            for a in range(n):
                for c_idx in range(n):
                    acc = zero
                    for m in range(n):
                        w = sym.omega[a][m]
                        if w.is_zero():
                            continue
                        p = table.get((m, c_idx))
                        if p is not None:
                            acc = acc + p.scale(w * Scalar(Fraction(-1, 2)))
                    rhat[(a, c_idx)] = acc
            for a in range(n):
                for c_idx in range(a, n):
                    if rhat[(a, c_idx)] != rhat[(c_idx, a)]:
                        raise SymplecticCheckError(
                            "curvature symmetry",
                            f"entries ({a + 1},{c_idx + 1}) and ({c_idx + 1},{a + 1}) of the "
                            f"curvature tensor on {'^'.join(f'dx{q + 1}' for q in J)} differ")
                    coeff = rhat[(a, c_idx)] if a == c_idx else rhat[(a, c_idx)] + rhat[(c_idx, a)]
                    if coeff.is_zero():
                        continue
                    alpha = [0] * n
                    alpha[a] += 1
                    alpha[c_idx] += 1
                    terms[(0, tuple(alpha), J)] = coeff
        return WeylForm(sym, trunc, terms)

    def variation_S(self, name: str, trunc: int) -> WeylForm:
        """i_V S for V = d/d(name): the y-quadratic 1-form with
        V[d_nabla] = (1/2) ad_over_h(i_V S, .)."""
        if not is_param_name(name):
            raise ValueError(f"{name!r} is not a parameter direction")
        sym = self.sym
        n = sym.dim
        dgamma = self.t_derivative_table(name)
        if not dgamma:
            return WeylForm.zero(sym, trunc)
        terms = {}
        zero = Poly.zero(sym.roster)
        for i in range(n):
            qhat = {}
            for a in range(n):
                for c_idx in range(n):
                    acc = zero
                    for m in range(n):
                        w = sym.omega[a][m]
                        if w.is_zero():
                            continue
                        p = dgamma.get((m, i, c_idx))
                        if p is not None:
                            acc = acc + p.scale(-w)
                    qhat[(a, c_idx)] = acc
            for a in range(n):
                for c_idx in range(a, n):
                    if qhat[(a, c_idx)] != qhat[(c_idx, a)]:
                        raise SymplecticCheckError(
                            "variation symmetry",
                            f"entries ({a + 1},{c_idx + 1}) and ({c_idx + 1},{a + 1}) of i_V S "
                            f"on dx{i + 1} differ (direction {name})")
                    coeff = qhat[(a, c_idx)] if a == c_idx else qhat[(a, c_idx)] + qhat[(c_idx, a)]
                    if coeff.is_zero():
                        continue
                    alpha = [0] * n
                    alpha[a] += 1
                    alpha[c_idx] += 1
                    add_term(terms, (0, tuple(alpha), (i,)), coeff)
        return WeylForm(sym, trunc, terms)


def symplectic_pair_difference_symmetric(c1: ConnectionFamily, c2: ConnectionFamily) -> bool:
    """Whether omega-contraction of (Gamma1 - Gamma2) is totally symmetric in
    all three indices (the affine-space parametrization of symplectic
    connections)."""
    sym = c1.sym
    n = sym.dim
    zero = Poly.zero(sym.roster)

    def T(l, i, j):
        acc = zero
        for m in range(n):
            w = sym.omega[l][m]
            if w.is_zero():
                continue
            g1 = c1.gamma.get((m, i, j))
            g2 = c2.gamma.get((m, i, j))
            if g1 is not None:
                acc = acc + g1.scale(w)
            if g2 is not None:
                acc = acc - g2.scale(w)
        return acc

    for l in range(n):
        for i in range(n):
            for j in range(n):
                t = T(l, i, j)
                if t != T(i, l, j) or t != T(l, j, i):
                    return False
    return True
