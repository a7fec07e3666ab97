"""Symplectic data on R^(2n): constant symplectic form, Poisson calculus,
polynomial families of symplectic connections, their Weyl curvature and the
variation 1-form of the covariant derivative.

Sign conventions (fixed once, verified by the test suite):

* omega * pi = Id, written as sum_j omega_ij pi^{jk} = delta_i^k.
* {f, g} = pi^{ij} d_i f d_j g.
* X_f is the vector field with X_f(g) = {f, g}.
* d_nabla = dx^i wedge (d/dx^i - Gamma^m_ij y^j d/dy^m), with the signs of
  dx^i wedge that ``weylforms`` fixes for every form (``dx_wedges``).

The Weyl curvature element R and the variation element i_V S are not given by
a guessed index formula: they are solved from their defining operator
identities  d_nabla^2 = -ad_over_h(R, .)  and  V[d_nabla] = (1/2) ad_over_h(i_V S, .)
acting on the fiber generators y^m, then checked for symmetry.  A failed
internal check raises a CheckError that names it.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar
from .polynomials import Poly, PolySums, is_param_name
from .weylforms import WeylContext, WeylForm, dx_wedges
from .multidiff import MultiDiffOp
from .reports import CheckError


class SymplecticData(WeylContext):
    """Constant symplectic structure; also the Weyl-algebra context."""

    # -- Poisson calculus ----------------------------------------------------

    def poisson(self, f: Poly, g: Poly) -> Poly:
        """{f, g} = pi^{ij} d_i f d_j g: ``poisson_operator`` applied to (f, g)."""
        return self.poisson_operator().apply(f, g).poly(0)

    def poisson_operator(self) -> MultiDiffOp:
        """The Poisson bivector as the arity-2, h^0 operator (f, g) -> {f, g}:
        one term pi^{ij} d_i (x) d_j per nonzero entry."""
        return MultiDiffOp.pairing(self.roster, self._pi_entries)

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
        """f with df = eta and f(0) = 0 (``Poly.euler_step``); raises when eta
        is not closed."""
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                lhs = eta[b].differentiate(self.roster[a])
                rhs = eta[a].differentiate(self.roster[b])
                if lhs != rhs:
                    raise ValueError(
                        f"1-form is not closed: d_{a+1} eta_{b+1} != d_{b+1} eta_{a+1}"
                    )
        f = Poly.zero(self.roster)
        for c, name in zip(eta, self.roster):
            f = f + c.euler_step(name, self.roster)
        return f


class ConnectionFamily:
    """Christoffel table Gamma^k_ij(x; t), symmetric in (i, j), over a SymplecticData."""

    def __init__(self, sym: SymplecticData, gamma=None):
        self.sym = sym
        table = {}
        for (k, i, j), p in (gamma or {}).items():
            p = p.with_roster(sym.roster)
            for key in {(k, i, j), (k, j, i)}:
                if key in table and table[key] != p:
                    raise ValueError(f"Gamma^{k+1}_{{{i+1},{j+1}}} breaks the (i,j) symmetry")
                table[key] = p
        # an entry stated as 0 is checked against its mirror, then dropped
        self.gamma = {key: p for key, p in table.items() if not p.is_zero()}
        # the entries Gamma^m_ij as (m, j, Gamma^m_ij), by the form index i of d_nabla
        self.by_form_index = [[] for _ in range(sym.dim)]
        for (m, i, j), p in sorted(self.gamma.items()):
            self.by_form_index[i].append((m, j, p))

    def t_derivative_table(self, name: str):
        out = {}
        for (m, i, j), p in self.gamma.items():
            d = p.differentiate(name)
            if not d.is_zero():
                out[(m, i, j)] = d
        return out

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
            for i, sign, nJ in dx_wedges(J, self.sym.dim):
                for (m, j, g) in self.by_form_index[i]:
                    e = alpha[m]
                    if not e:
                        continue
                    na = list(alpha)
                    na[m] -= 1
                    na[j] += 1
                    out.add_product((k, tuple(na), nJ), g, c, -sign * e * weight)
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
                    raise CheckError(
                        f"d_nabla^2 y{m + 1} has a term of y-degree {sum(alpha)} at h^{k}",
                        "curvature action")
                b = alpha.index(1)
                C.setdefault(J, {})[(m, b)] = c
        terms = {}
        for J, table in C.items():
            _add_symmetric_quadratic(
                sym, terms, J, table, Scalar(Fraction(-1, 2)), "curvature symmetry",
                f"the curvature tensor on {'^'.join(f'dx{q + 1}' for q in J)}", "")
        return WeylForm(sym, trunc, terms)

    def variation_S(self, name: str, trunc: int) -> WeylForm:
        """i_V S for V = d/d(name): the y-quadratic 1-form with
        V[d_nabla] = (1/2) ad_over_h(i_V S, .)."""
        if not is_param_name(name):
            raise ValueError(f"{name!r} is not a parameter direction")
        sym = self.sym
        dgamma = self.t_derivative_table(name)
        if not dgamma:
            return WeylForm.zero(sym, trunc)
        terms = {}
        for i in range(sym.dim):
            table = {(m, c): p for (m, j, c), p in dgamma.items() if j == i}
            _add_symmetric_quadratic(sym, terms, (i,), table, Scalar(-1), "variation symmetry",
                                     f"i_V S on dx{i + 1}", f" (direction {name})")
        return WeylForm(sym, trunc, terms)


def _add_symmetric_quadratic(sym: SymplecticData, terms: dict, J, table: dict, weight,
                             check: str, what: str, tail: str):
    """Lower the first index of ``table`` (m, c) -> Poly with omega, times
    ``weight``: T_ac = weight * sum_m omega_am table[m, c], a missing entry
    counting as zero.  T must be symmetric, or a CheckError of ``check``
    names the first pair of entries of ``what`` that differ.  Each nonzero
    y^a y^c coefficient (T_ac + T_ca off the diagonal) is stored in ``terms``
    at (0, y^a y^c, J)."""
    n = sym.dim
    T = {}
    for a in range(n):
        for c in range(n):
            acc = Poly.zero(sym.roster)
            for m in range(n):
                w = sym.omega[a][m]
                if w.is_zero():
                    continue
                p = table.get((m, c))
                if p is not None:
                    acc = acc + p.scale(w * weight)
            T[(a, c)] = acc
    for a in range(n):
        for c in range(a, n):
            if T[(a, c)] != T[(c, a)]:
                raise CheckError(
                    f"entries ({a + 1},{c + 1}) and ({c + 1},{a + 1}) of {what} differ{tail}", check)
            coeff = T[(a, c)] if a == c else T[(a, c)] + T[(c, a)]
            if coeff.is_zero():
                continue
            alpha = [0] * n
            alpha[a] += 1
            alpha[c] += 1
            terms[(0, tuple(alpha), J)] = coeff
