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
product is f * g = p(tau(f) o tau(g)).  The map tau is linear and a formal
differential operator, so it has a symbol, e^{-xi.x} tau(e^{xi.x}), whose
coefficients are polynomials in x and jet variables xi: a term
c(x) xi^b y^a h^k stands for f -> c d^b f.  The same recursion gives that
symbol (``FedosovSetup.tau_symbol``), and the bidifferential coefficients of
the star are read off p(sigma_xi o sigma_eta), the star of two exponentials.

Total degree (|y| + 2 * h-power, the filtration of Fedosov 1994) is additive
under the Weyl product, and ad_over_h lowers it by 2.  So every computation
here stops at the degree that is read, and that is exact.  The central part
of a product at h^k pairs terms whose degrees sum to 2k (2k + 2 for
ad_over_h).  So the star to order K reads tau and its symbol to degree
2K - 1 (their only degree-0 part is y-free, and pairs only with a y-free
term), and A(V) reads them to 2K + 2 less the lowest degree of i_V s.  The
checks of r and s cap their brackets at the degrees they compare.  The
truncation ``trunc`` (2K + 2 from the command line) is where r is solved and
checked.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import I
from .polynomials import (
    Poly, PolySums, FormalFunction, monomials_up_to, exponents_up_to, merge_rosters, add_term,
)
from .weylforms import WeylForm
from .symplectic import ConnectionFamily
from .multidiff import MultiDiffOp, StarTruncation, operator_from_symbol


class NotAbelianError(ValueError):
    """The Weyl-curvature residue of a candidate r failed to be scalar."""


class NaturalityError(AssertionError):
    """The extracted star disagrees with the star product past its naturality bound."""


class FedosovCheckError(AssertionError):
    """A check of the construction failed: the recursions' delta-closedness,
    delta* r = 0, D_r^2 = 0 or the Weyl curvature of r.  ``check`` names it
    in reports; the message gives the degree."""

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


def jet_names(dim: int, prefix: str):
    """The jet variables prefix1..prefix<dim> of one argument slot."""
    return tuple(f"{prefix}{i}" for i in range(1, dim + 1))


def _recoefficient(form: WeylForm, fn) -> WeylForm:
    """The form with ``fn`` applied to each coefficient Poly."""
    return WeylForm(form.ctx, form.trunc, {key: fn(c) for key, c in form.terms.items()})


def _jet_degree_at_most(p: Poly, positions, degree: int) -> Poly:
    return p.map_x(lambda m: (m, 1) if sum(m[i] for i in positions) <= degree else None)


def _jet_wedge(a: WeylForm, positions, degree: int) -> WeylForm:
    """Xi ^ a with Xi = sum_i xi_i dx^i, dropping jet degree > degree.

    ``positions[i]`` is the place of xi_i in the coefficients' roster; the
    signs are those of ``WeylForm.d_x`` with d/dx^i replaced by xi_i.
    """
    out = {}
    for (k, alpha, J), c in a.terms.items():
        low = _jet_degree_at_most(c, positions, degree - 1)
        if low.is_zero():
            continue
        for i, pos in enumerate(positions):
            if i in J:
                continue
            raised = low.map_x(lambda m: (m[:pos] + (m[pos] + 1,) + m[pos + 1:], 1))
            before = sum(1 for j in J if j < i)
            add_term(out, (k, alpha, tuple(sorted(J + (i,)))), -raised if before % 2 else raised)
    return WeylForm(a.ctx, a.trunc, out)


def solve_by_degree(derivative, parts: dict, degrees, source: WeylForm,
                    left: dict, weight, fail):
    """Fedosov's degree-by-degree recursion, shared by r, tau, its symbol and s.

    For each d in ``degrees`` the degree-d source

        B = derivative(parts[d]) + source_d + weight * sum ad_over_h(left[d1], parts[d + 2 - d1])

    is assembled from the parts solved so far (a missing part is zero), and
    parts[d + 1] = delta_inv(B).  ``derivative(a, sink)`` adds d_nabla a into
    the PolySums ``sink``: it is the connection's ``cov_deriv``, or for the
    symbol of tau d_nabla + Xi ^.  The derivative, the source and every
    bracket add into one PolySums, so each coefficient of B is reduced once.
    B must be delta-closed, or ``fail(d)`` is raised.  ``parts`` is filled in
    place.

    When ``left`` is ``parts`` (the r recursion, whose parts are 1-forms) the
    bracket is symmetric, ad_over_h(a, b) = ad_over_h(b, a) for 1-forms, so
    each pair d1 < d2 is bracketed once with twice the weight.
    """
    self_bracket = left is parts
    sources = source.by_degree()
    for d in degrees:
        out = PolySums()
        trunc = source.trunc
        if d in parts:
            derivative(parts[d], out)
            trunc = min(trunc, parts[d].trunc)
        if d in sources:
            sources[d].add_to(out)
        for d1, a in left.items():
            d2 = d + 2 - d1
            b = parts.get(d2)
            if b is None or (self_bracket and d1 > d2):
                continue
            a.ad_over_h(b, sink=out, weight=2 * weight if self_bracket and d1 < d2 else weight)
            trunc = min(trunc, a.trunc, b.trunc)
        B = WeylForm(source.ctx, trunc, out.polys())
        if not B.delta().is_zero():
            raise fail(d)
        parts[d + 1] = B.delta_inv()


def star_depth(order: int) -> int:
    """The total degree to which p(a o b) mod h^{order+1} reads flat sections
    a and b, or their symbols.  Its h^k part pairs terms y^a h^k1 and
    y^a' h^k2 with |a| = |a'| = m and k1 + k2 + m = k, whose total degrees
    sum to 2k.  For m = 0 both are y-free, and the only y-free part of a flat
    section is its degree-0 part; for m >= 1 both degrees are >= 1.  So it is
    2 * order - 1."""
    return max(2 * order - 1, 0)


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
        self.jets = jet_names(self.sym.dim, "xi")
        self.symbol_roster = merge_rosters(self.sym.roster, self.jets)
        self._symbol = None  # (jet degree, total degree, tau_symbol to those degrees)

    @property
    def _r_parts(self):
        parts = getattr(self, "_r_parts_cache", None)
        if parts is None:
            parts = self._r_parts_cache = self.r.by_degree()
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
            self.connection.cov_deriv, parts, range(2, N), (self.alpha - self.omega_form) - self.R,
            parts, Fraction(1, 2),
            lambda d: FedosovCheckError(
                "r recursion", f"r recursion source fails delta-closedness at degree {d}"),
        )
        r = sum(parts.values(), WeylForm.zero(self.sym, N))
        bad = r.delta_star()
        if not bad.is_zero():
            raise FedosovCheckError(
                "r normalization", f"delta* r = 0 fails on the degree-{bad.lowest_degree() - 1} "
                                   f"part of r")
        self._check_weyl_curvature(r)
        self._check_flatness(r)
        return r

    def _flatness_residues(self, r: WeylForm):
        """D_r^2(y^m) for each fiber generator y^m, below total degree trunc - 1.

        The check reads degrees d < trunc - 1.  There the outer D reads
        D(y^m) at degree d + 1 (through delta), d (through d_nabla) and
        d + 2 - e (through ad_over_h(r_e, .)); a degree-0 term of r is
        central and brackets to zero, so e >= 1 and no read is above
        trunc - 1.  So the inner bracket is capped at trunc - 1 and the outer
        at trunc - 2, and the residues below trunc - 1 are those of the
        uncapped D(D(y^m)), for any r.  Each D sums its three terms in one
        PolySums.
        """
        def D(a, cap):
            out = PolySums()
            a.delta().add_to(out, -1)
            self.connection.cov_deriv(a, out)
            r.ad_over_h(a, max_degree=cap, sink=out)
            return WeylForm(self.sym, min(a.trunc, r.trunc), out.polys())
        N, dim = self.trunc, self.sym.dim
        generators = (WeylForm.y_monomial(self.sym, N, tuple(int(q == m) for q in range(dim)))
                      for m in range(dim))
        return [D(D(ym, N - 1), N - 2).truncate(N - 2) for ym in generators]

    def _check_flatness(self, r: WeylForm):
        """D_r^2 = 0 below degree trunc - 1, probed on the fiber generators."""
        for sq in self._flatness_residues(r):
            d = sq.lowest_degree()
            if d is not None:
                raise FedosovCheckError("flatness of D_r",
                                        f"D_r fails to square to zero at degree {d}")

    def _check_weyl_curvature(self, r: WeylForm):
        d = (self.weyl_curvature(r) - self.alpha).lowest_degree()
        if d is not None:
            raise FedosovCheckError("Weyl curvature",
                                    f"Weyl curvature of the solved r differs from alpha at degree {d}")

    def _curvature_form(self, r: WeylForm) -> WeylForm:
        """omega + delta r + R - d_nabla r - (1/2) ad(r, r), to total degree
        trunc - 1: ad(r, r) is capped there, exact because the bracket's
        degree is additive, and the sum is truncated there.  r is a 1-form,
        so the bracket is symmetric: (1/2) ad(r, r) is the sum of
        ad(r_d1, r_d2) over d1 < d2 and of (1/2) ad(r_d, r_d).  Every term
        adds into one PolySums."""
        cap = self.trunc - 1
        out = PolySums()
        self.omega_form.add_to(out)
        r.delta().add_to(out)
        self.R.add_to(out)
        self.connection.cov_deriv(r, out, -1)
        parts = r.by_degree()
        for d1, a in parts.items():
            for d2, b in parts.items():
                if d1 < d2:
                    a.ad_over_h(b, max_degree=cap, sink=out, weight=-1)
                elif d1 == d2:
                    a.ad_over_h(b, max_degree=cap, sink=out, weight=Fraction(-1, 2))
        return WeylForm(self.sym, min(r.trunc, cap), out.polys())

    def weyl_curvature(self, r: WeylForm) -> WeylForm:
        """The central 2-form omega + delta r + R - d_nabla r - (1/2) ad(r, r)
        whose ad_over_h-action is -D_r^2; scalar exactly when D_r is abelian.

        Computed below total degree trunc, the range every check of it reads
        (``_curvature_form``).  Raises NotAbelianError when a non-scalar
        residue survives there.
        """
        W = self._curvature_form(r)
        scalar = WeylForm(self.sym, W.trunc,
                          {key: c for key, c in W.terms.items() if not any(key[1])})
        d = (W - scalar).lowest_degree()
        if d is not None:
            raise NotAbelianError(
                f"non-scalar Weyl-curvature residue at total degree {d}: "
                f"the given r is not abelian"
            )
        return scalar

    # -- the abelian connection and its flat sections -------------------------------

    def D_r(self, a: WeylForm, max_degree: int = None) -> WeylForm:
        """-delta a + d_nabla a + ad_over_h(r, a), with the bracket capped at
        ``max_degree`` (None: the truncation), its terms summed in one
        PolySums."""
        out = PolySums()
        a.delta().add_to(out, -1)
        self.connection.cov_deriv(a, out)
        self.r.ad_over_h(a, max_degree, sink=out)
        return WeylForm(self.sym, min(a.trunc, self.r.trunc), out.polys())

    def _depth(self, max_degree):
        return self.trunc if max_degree is None else min(max_degree, self.trunc)

    def _continue_flat(self, section, top, depth, derivative, left, fail):
        """``section``, solved to total degree ``top``, continued by the
        flat-section recursion to ``depth``.  Degree d + 1 reads only degrees
        <= d of the section, so continuing gives what one run to ``depth``
        gives."""
        zero = WeylForm.zero(self.sym, self.trunc)
        parts = {d: section.homogeneous(d) for d in range(top + 1)}
        solve_by_degree(derivative, parts, range(top, depth), zero, left, 1,
                        lambda d: FedosovCheckError("flat sections", fail(d)))
        return sum(parts.values(), zero)

    def tau(self, f: Poly, max_degree: int = None) -> WeylForm:
        """The D_r-flat section with fiberwise-constant part f, to total
        degree ``max_degree`` (None: the truncation).

        Degreewise fixed point tau = f + delta_inv(d_nabla tau + ad_over_h(r, tau)).
        At each degree the source is checked to be delta-closed, which is
        exactly the statement that the flat-section defect vanishes there.
        Degree d + 1 is built from degrees <= d only, so stopping at
        ``max_degree`` gives exactly the low-degree parts of the full
        section; the form keeps the setup's truncation, so pairings read it
        as far as its degrees allow.  One section is kept per f, at the
        largest degree asked for: a deeper request continues the recursion,
        a shallower one is a truncation.
        """
        f = f.with_roster(self.sym.roster)
        key = str(f)
        depth = self._depth(max_degree)
        hit = self._tau_cache.get(key)
        top, t = hit or (0, WeylForm.from_poly(self.sym, self.trunc, f))
        if hit is None or top < depth:
            t = self._continue_flat(t, top, depth, self.connection.cov_deriv, self._r_parts,
                                    lambda d: f"flat section defect at total degree {d}")
            top = depth
            self._tau_cache[key] = (top, t)
        return t if top == depth else t.up_to_degree(depth)

    def tau_symbol(self, degree: int, max_degree: int = None) -> WeylForm:
        """The symbol e^{-xi.x} tau(e^{xi.x}) of tau, to jet degree ``degree``
        and total degree ``max_degree`` (None: the truncation).

        Its coefficients are Polys in x and the jet variables ``self.jets``;
        a term c(x) xi^b y^a h^k stands for f -> c d^b f, so tau(f) for f of
        degree <= ``degree`` is read off it.  It is tau's recursion with one
        change, d_nabla(e^{xi.x} a) = e^{xi.x} (d_nabla a + Xi ^ a) with
        Xi = sum xi_i dx^i: ad_over_h(r, .), delta and delta_inv are linear
        over functions of x.  No step lowers the jet degree, so dropping jet
        degree > ``degree`` in Xi ^ is exact, and the delta-closedness check
        at each degree covers what tau checks on monomials of degree <=
        ``degree``.  As in ``tau``, stopping at ``max_degree`` is exact.
        One symbol is kept, at the largest jet and total degrees asked for:
        a deeper request continues its recursion, a larger jet degree starts
        it again, and smaller requests are truncations of it.
        """
        roster = self.symbol_roster
        positions = [roster.index(name) for name in self.jets]
        depth = self._depth(max_degree)
        jet, top, symbol = self._symbol or (degree, 0, None)
        if jet < degree:
            # Xi ^ enters every degree: start again, as deep as before
            jet, symbol = degree, None
        target = max(top, depth)
        if symbol is None or top < target:
            if symbol is None:
                top = 0
                symbol = WeylForm(self.sym, self.trunc,
                                  {(0, (0,) * self.sym.dim, ()): Poly.const(roster, 1)})
            r_parts = {d: _recoefficient(a, lambda c: c.with_roster(roster))
                       for d, a in self._r_parts.items()}
            def derivative(a, sink):
                self.connection.cov_deriv(a, sink)
                _jet_wedge(a, positions, jet).add_to(sink)

            symbol = self._continue_flat(
                symbol, top, target, derivative, r_parts,
                lambda d: f"flat section symbol defect at total degree {d}",
            )
            self._symbol = (jet, target, symbol)
        if jet > degree:
            symbol = _recoefficient(symbol, lambda c: _jet_degree_at_most(c, positions, degree))
        return symbol if target == depth else symbol.up_to_degree(depth)

    # -- the star product ---------------------------------------------------------------

    def _check_order(self, order: int):
        if 2 * order > self.trunc:
            raise ValueError(
                f"h-order {order} needs internal truncation >= {2 * order}, have {self.trunc}"
            )

    def star(self, f: Poly, g: Poly, order: int = None) -> FormalFunction:
        """f * g = p(tau(f) o tau(g)) mod h^{order+1}; needs trunc >= 2*order.

        The projection is computed directly (``WeylForm.projected_mw``): only
        the central part of the product is formed, and each tau only to
        ``star_depth(order)``.
        """
        if order is None:
            order = self.trunc // 2
        self._check_order(order)
        depth = star_depth(order)
        return self.tau(f, depth).projected_mw(self.tau(g, depth), order)

    def extract_star(self, order: int = None, probe: bool = True) -> StarTruncation:
        """c^0..c^order as bidifferential operators, read off the symbol
        p(sigma_xi o sigma_eta) of the star, where sigma_xi is ``tau_symbol``
        and sigma_eta the same symbol in a second set of jet variables.  The
        h^k layer has differential order <= k in each argument (naturality),
        so jet degree ``order`` is enough, and total degree
        ``star_depth(order)``; a probe past the jet bound checks it against
        the star product of functions.
        """
        if order is None:
            order = self.trunc // 2
        self._check_order(order)
        roster = self.sym.roster
        sigma = self.tau_symbol(order, star_depth(order))
        etas = jet_names(self.sym.dim, "eta")
        full = merge_rosters(self.symbol_roster, etas)
        renamed = tuple(dict(zip(self.jets, etas)).get(name, name) for name in self.symbol_roster)
        sigma_xi = _recoefficient(sigma, lambda c: c.with_roster(full))
        sigma_eta = _recoefficient(
            sigma, lambda c: Poly(renamed, c.scalar_terms(), c.den).with_roster(full))
        op = operator_from_symbol(roster, order, sigma_xi.projected_mw(sigma_eta, order),
                                  (self.jets, etas))
        star = StarTruncation(op, setup=self)
        if probe:
            # evaluation just past the naturality bound guards the order-<=-k claim
            probe_polys = [
                Poly.var(roster, roster[0]) ** (order + 1),
                Poly.var(roster, roster[-1]) ** (order + 1),
            ]
            g = monomials_up_to(roster, order)[-1]
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


def c1_antisymmetry_witness(c1: MultiDiffOp, sym, basis_degree: int):
    """None when c1(f,g) - c1(g,f) = i{f,g} for all monomials f, g of degree
    <= ``basis_degree``, else the witness text for the first pair (f
    outermost) where it fails.  It is the identity c1 - c1^swap - i Pi = 0
    for the Poisson bivector Pi (``SymplecticData.poisson_operator``), read
    off the terms of the difference (``MultiDiffOp.basis_witness``)."""
    swapped = MultiDiffOp(c1.roster, 2, c1.order,
                          {(k, (a, b)): c for (k, (b, a)), c in c1.terms.items()})
    found = (c1 - swapped - sym.poisson_operator().scale(I)).basis_witness(basis_degree)
    if found is None:
        return None
    (f, g), _ = found
    return f"c1 antisymmetry fails on ({f},{g})"


def validate_star_axioms(star: StarTruncation, sym, basis_degree: int, rng=None, triples: int = 5):
    """The defining conditions of a star product on the monomials of degree
    <= ``basis_degree``: 1 is a unit, c0 is the pointwise product,
    c1(f,g) - c1(g,f) = i{f,g}, and associativity mod h^(K+1).

    The first three are identities between explicit operators:
    star(., 1) - id and star(1, .) - id, c0 - pointwise, and
    c1 - c1^swap - i Pi.  Each verdict is read off the terms of the
    difference (``MultiDiffOp.basis_witness``), which is evaluated only to
    find the witness of a failure: the first one a loop over the basis, f
    outermost, meets (for the unit, the first f that fails on either side).
    Associativity is checked on ``triples`` triples of basis monomials drawn
    from ``rng``.

    Returns a list of (name, ok, witness) triples.
    """
    roster = star.roster
    checks = []
    basis = monomials_up_to(roster, basis_degree)
    one = Poly.const(roster, 1)

    identity = MultiDiffOp.identity(roster, star.order)
    sides = [(star.op.partial_apply(slot, one) - identity).basis_witness(basis_degree)
             for slot in (1, 0)]
    failing = [found[0][0] for found in sides if found is not None]
    wit = f"unit fails on {min(failing, key=basis.index)}" if failing else None
    checks.append(("unitality f*1 = f = 1*f", wit is None, wit))

    pointwise = StarTruncation.pointwise(roster, 0).op
    found = (star.coefficient(0) - pointwise).basis_witness(basis_degree)
    wit = None
    if found is not None:
        (f, g), _ = found
        wit = f"c0({f},{g}) != product"
    checks.append(("c0 is the pointwise product", wit is None, wit))

    wit = c1_antisymmetry_witness(star.coefficient(1), sym, basis_degree)
    checks.append(("c1(f,g) - c1(g,f) = i{f,g}", wit is None, wit))

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
