"""Fedosov's construction on R^(2n).

Given a symplectic connection and a closed formal 2-form alpha = omega + O(h),
solve for the unique r with

    delta r = (alpha - omega) - R + d_nabla r + (1/2) ad_over_h(r, r),
    delta* r = 0,  terms of total degree >= 3,

by increasing total degree in ``solve_by_degree``, the recursion that also
yields the flat sections below and the s-forms of ``families.solve_s``.  The
resulting abelian connection

    D_r = -delta + d_nabla + (i/h) ad(r)

has flat sections tau(f), unique with fiberwise-constant part f, and the star
product is f * g = p(tau(f) o tau(g)).  Bidifferential coefficients are
recovered by evaluation on monomials: naturality bounds the h^k layer's
differential order by k, so finitely many evaluations determine it.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import I
from .polynomials import Poly, FormalFunction, monomials_up_to, exponents_up_to
from .weylforms import WeylForm
from .symplectic import ConnectionFamily
from .multidiff import StarTruncation, operator_from_values


class NotAbelianError(ValueError):
    """The Weyl-curvature residue of a candidate r failed to be scalar."""


class NaturalityError(AssertionError):
    """The extracted star disagrees with the star product past its naturality bound."""


def solve_by_degree(connection: ConnectionFamily, parts: dict, degrees, source: WeylForm,
                    left: dict, weight, fail):
    """Fedosov's degree-by-degree recursion, shared by r, tau and s.

    For each d in ``degrees`` the degree-d source

        B = source_d + d_nabla parts[d] + weight * sum ad_over_h(left[d1], parts[d + 2 - d1])

    is assembled from the parts solved so far (a missing part is zero), and
    parts[d + 1] = delta_inv(B).  B must be delta-closed, or ``fail(d)`` is
    raised.  ``parts`` is filled in place.
    """
    for d in degrees:
        B = source.homogeneous(d)
        if d in parts:
            B = connection.cov_deriv(parts[d]) + B
        for d1, a in left.items():
            b = parts.get(d + 2 - d1)
            if b is not None:
                bracket = a.ad_over_h(b)
                B = B + (bracket if weight == 1 else bracket.scale(weight))
        if not B.delta().is_zero():
            raise fail(d)
        parts[d + 1] = B.delta_inv()


class FedosovSetup:
    """A symplectic connection plus a formal 2-form, with the solved r cached."""

    def __init__(self, connection: ConnectionFamily, alpha: WeylForm = None,
                 trunc: int = 8, solve: bool = True):
        self.connection = connection
        self.sym = connection.sym
        self.trunc = trunc
        ok, witness = connection.validate()
        if not ok:
            raise ValueError(f"connection is not symplectic: {witness}")
        omega = WeylForm.omega_form(self.sym, trunc)
        if alpha is None:
            alpha = omega
        else:
            alpha = alpha.truncate(trunc)
            self._validate_alpha(alpha, omega)
        self.alpha = alpha
        self.omega_form = omega
        self.R = connection.curvature_weyl(trunc)
        self.r = self._solve_r() if solve else None
        self._tau_cache = {}

    @property
    def _r_parts(self):
        parts = getattr(self, "_r_parts_cache", None)
        if parts is None:
            parts = {}
            for d in range(self.trunc + 1):
                h = self.r.homogeneous(d)
                if not h.is_zero():
                    parts[d] = h
            self._r_parts_cache = parts
        return parts

    def _validate_alpha(self, alpha: WeylForm, omega: WeylForm):
        if not alpha.y_degree_zero():
            raise ValueError("alpha must be a scalar (y-free) form")
        if any(len(J) != 2 for (_, _, J) in alpha.terms):
            raise ValueError("alpha must be a 2-form")
        h0 = WeylForm(self.sym, alpha.trunc,
                      {key: c for key, c in alpha.terms.items() if key[0] == 0})
        if h0 != omega:
            raise ValueError("alpha must equal omega at h^0")
        if not alpha.d_x().is_zero():
            raise ValueError("alpha must be closed in each h-order")

    # -- the r recursion ---------------------------------------------------------

    def _solve_r(self) -> WeylForm:
        # With delta = -ad_over_h(omega_tilde) and d_nabla^2 = -ad_over_h(R),
        # expanding D_r^2 gives ad_over_h(-delta r - R + d_nabla r + (1/2) ad(r,r)),
        # so flatness with central part -(alpha - omega) pins the fixed point:
        #     delta r = (alpha - omega) - R + d_nabla r + (1/2) ad_over_h(r, r).
        # Solved by total degree; d_nabla preserves degree and ad_over_h(r_d1, r_d2)
        # lands at d1 + d2 - 2, so each new component only needs earlier ones.
        # The quadratic term brackets r with itself: left is the parts being solved.
        N = self.trunc
        parts = {}
        solve_by_degree(
            self.connection, parts, range(2, N), (self.alpha - self.omega_form) - self.R,
            parts, Fraction(1, 2),
            lambda d: AssertionError(f"r recursion source fails delta-closedness at degree {d}"),
        )
        r = sum(parts.values(), WeylForm.zero(self.sym, N))
        if not r.delta_star().is_zero():
            raise AssertionError("r normalization delta* r = 0 failed")
        self._check_weyl_curvature(r)
        self._check_flatness(r)
        return r

    def _check_flatness(self, r: WeylForm):
        """D_r^2 = 0 up to the trustworthy degree, probed on fiber generators."""
        def D(a):
            return -a.delta() + self.connection.cov_deriv(a) + r.ad_over_h(a)
        for m in range(self.sym.dim):
            ym = WeylForm.y_monomial(self.sym, self.trunc,
                                     tuple(1 if q == m else 0 for q in range(self.sym.dim)))
            sq = D(D(ym))
            for d in range(self.trunc - 1):
                if not sq.homogeneous(d).is_zero():
                    raise AssertionError(f"D_r fails to square to zero at degree {d}")

    def _check_weyl_curvature(self, r: WeylForm):
        got = self.weyl_curvature(r)
        cutoff = self.trunc - 1
        diff = got - self.alpha
        for d in range(cutoff + 1):
            if not diff.homogeneous(d).is_zero():
                raise AssertionError(
                    f"Weyl curvature of the solved r differs from alpha at degree {d}"
                )

    def weyl_curvature(self, r: WeylForm) -> WeylForm:
        """The central 2-form omega + delta r + R - d_nabla r - (1/2) ad(r, r)
        whose ad_over_h-action is -D_r^2; scalar exactly when D_r is abelian.

        Raises NotAbelianError when the non-scalar residue survives below the
        truncation's trustworthy range (total degree < trunc).
        """
        W = (
            self.omega_form
            + r.delta()
            + self.R
            - self.connection.cov_deriv(r)
            - r.ad_over_h(r).scale(Fraction(1, 2))
        )
        scalar = WeylForm(self.sym, W.trunc,
                          {key: c for key, c in W.terms.items() if not any(key[1])})
        residue = W - scalar
        for d in range(self.trunc):
            if not residue.homogeneous(d).is_zero():
                raise NotAbelianError(
                    f"non-scalar Weyl-curvature residue at total degree {d}: "
                    f"the given r is not abelian"
                )
        return scalar

    # -- the abelian connection and its flat sections -------------------------------

    def D_r(self, a: WeylForm) -> WeylForm:
        return -a.delta() + self.connection.cov_deriv(a) + self.r.ad_over_h(a)

    def tau(self, f: Poly) -> WeylForm:
        """The D_r-flat section with fiberwise-constant part f.

        Degreewise fixed point tau = f + delta_inv(d_nabla tau + ad_over_h(r, tau)).
        At each degree the source is checked to be delta-closed, which is
        exactly the statement that the flat-section defect vanishes there.
        """
        f = f.with_roster(self.sym.roster)
        key = str(f)
        hit = self._tau_cache.get(key)
        if hit is not None:
            return hit
        N = self.trunc
        zero = WeylForm.zero(self.sym, N)
        parts = {0: WeylForm.from_poly(self.sym, N, f)}
        solve_by_degree(
            self.connection, parts, range(N), zero, self._r_parts, 1,
            lambda d: AssertionError(f"flat section defect at total degree {d}"),
        )
        t = sum(parts.values(), zero)
        self._tau_cache[key] = t
        return t

    # -- the star product ---------------------------------------------------------------

    def star(self, f: Poly, g: Poly, order: int = None) -> FormalFunction:
        """f * g = p(tau(f) o tau(g)) mod h^{order+1}; needs trunc >= 2*order.

        The projection is computed directly (``WeylForm.projected_mw``): only
        the central part of the product is formed.
        """
        if order is None:
            order = self.trunc // 2
        if 2 * order > self.trunc:
            raise ValueError(
                f"h-order {order} needs internal truncation >= {2 * order}, have {self.trunc}"
            )
        return self.tau(f).projected_mw(self.tau(g), order)

    def extract_star(self, order: int = None, probe: bool = True) -> StarTruncation:
        """Recover c^0..c^order as bidifferential operators by monomial evaluation."""
        if order is None:
            order = self.trunc // 2
        roster = self.sym.roster
        basis = monomials_up_to(roster, order)
        values = {}
        for f in basis:
            kf = next(iter(f.terms))
            for g in basis:
                kg = next(iter(g.terms))
                values[(kf, kg)] = self.star(f, g, order)
        op = operator_from_values(roster, 2, order, lambda k: k, values)
        star = StarTruncation(op, setup=self)
        if probe:
            # evaluation just past the naturality bound guards the order-<=-k claim
            probe_polys = [
                Poly.var(roster, roster[0]) ** (order + 1),
                Poly.var(roster, roster[-1]) ** (order + 1),
            ]
            g = basis[-1]
            for f in probe_polys:
                for pair in ((f, g), (g, f)):
                    diff = op.apply(*pair) - self.star(*pair, order)
                    if not diff.is_zero():
                        raise NaturalityError(
                            f"extracted star differs from the star product on the probe pair "
                            f"({pair[0]}, {pair[1]}) at h^{min(diff.coeffs)}"
                        )
        return star

    # -- parameter dependence --------------------------------------------------------------

    def subs_params(self, values: dict) -> "FedosovSetup":
        sub = FedosovSetup(
            self.connection.subs_params(values),
            self.alpha.subs_params(values),
            trunc=self.trunc,
            solve=False,
        )
        sub.r = self.r.subs_params(values)
        return sub


def taylor_flat_section(sym, f: Poly, trunc: int) -> WeylForm:
    """Closed-form flat section for the flat connection with alpha = omega:
    tau(f) = sum_beta (1/beta!) d^beta f y^beta.  Test oracle."""
    import math
    f = f.with_roster(sym.roster)
    terms = {}
    for beta in exponents_up_to(sym.dim, trunc):
        d = f.deriv_multi(beta)
        if d.is_zero():
            continue
        w = 1
        for e in beta:
            w *= math.factorial(e)
        terms[(0, beta, ())] = d.scale(Fraction(1, w))
    return WeylForm(sym, trunc, terms)


def validate_star_axioms(star: StarTruncation, sym, basis_degree: int, rng=None, triples: int = 5):
    """Check the four defining star-product conditions on a monomial test set.

    Returns a list of (name, ok, witness) triples.
    """
    roster = star.roster
    checks = []
    basis = monomials_up_to(roster, basis_degree)
    one = Poly.const(roster, 1)

    ok, wit = True, None
    for f in basis:
        lhs = star.apply(f, one)
        rhs = star.apply(one, f)
        expect = FormalFunction.from_poly(f, star.order)
        if lhs != expect or rhs != expect:
            ok, wit = False, f"unit fails on {f}"
            break
    checks.append(("unitality f*1 = f = 1*f", ok, wit))

    ok, wit = True, None
    for f in basis:
        for g in basis:
            if star.coefficient(0).apply(f, g).coefficient(0) != f * g:
                ok, wit = False, f"c0({f},{g}) != product"
                break
        if not ok:
            break
    checks.append(("c0 is the pointwise product", ok, wit))

    c1 = star.coefficient(1)
    ok, wit = True, None
    for f in basis:
        for g in basis:
            lhs = (c1.apply(f, g) - c1.apply(g, f)).coefficient(0)
            if lhs != sym.poisson(f, g).scale(I):
                ok, wit = False, f"c1 antisymmetry fails on ({f},{g})"
                break
        if not ok:
            break
    checks.append(("c1(f,g) - c1(g,f) = i{f,g}", ok, wit))

    ok, wit = True, None
    if rng is None:
        import random
        rng = random.Random(0)
    for _ in range(triples):
        f, g, k = (rng.choice(basis) for _ in range(3))
        lhs = star.apply(star.apply(f, g), k)
        rhs = star.apply(f, star.apply(g, k))
        if lhs != rhs:
            ok, wit = False, f"associativity fails on ({f},{g},{k})"
            break
    checks.append(("associativity mod h^(K+1)", ok, wit))
    return checks
