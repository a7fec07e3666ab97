"""Slow references for the product kernels and for the sums built from them.

``pairing_by_products`` is ``WeylForm._pairing`` as a plain loop over every
pair of terms within the degree cap: it tests the form indices on sets, forms
``c1 * c2`` before it knows whether a contraction order survives, and adds
each contribution as ``add_term(out, key, cc.scale(w))``.  ``compose_at_by_products``
is ``MultiDiffOp.compose_at`` with the Leibniz splits enumerated again for
every pair of terms and every ``c * d^e q`` formed before it is known to land.
Both move every operand onto the merged roster by variable name
(``terms_on``).  ``partial_apply_by_loops`` freezes a slot at a function by
its own loop, where ``src`` composes the function in as an arity-0 operator.

``acc_product_by_tuples`` is the product loop of ``Poly`` on term keys that
are (x exponents, t monomial) tuples instead of packed ints: each product key
is two new tuples, the exponents added place by place and the t monomials
merged by name.
``tuple_terms`` reads a Poly's packed keys back as such tuples.

``contract``, ``delta_Z`` and ``df_M_dg`` are the Kahler evaluators that
applied an x-constant bivector to sample functions, and ``hamiltonian_vf``
gives the components of a Hamiltonian vector field; ``lemma_by_pairs``,
``lowest_order_by_loops`` and the note references evaluate through them
where ``src`` decides, or applies, operators.  ``jet_wedge_by_terms`` forms
Xi ^ a as a WeylForm where ``src`` adds it into a sink.

``_contract`` and ``moyal_star_by_states`` run the Moyal series as the two
state loops that ``src`` replaced by its one table of Moyal layers
(``WeylContext.moyal_layer``): ``_contract`` lowers the fiber exponents of a
pair one pi entry at a time, and ``moyal_star_by_states`` raises the
derivative multi-indices of the flat star the same way.

The ``*_by_sums`` references add whole forms and operators one
``WeylForm.__add__`` or ``MultiDiffOp.__add__`` at a time, which reduces every
shared coefficient once per sum: delta and delta_inv, the degree recursion,
``cov_deriv``, D_r, the Weyl curvature form and the Gerstenhaber bracket,
where ``src`` sums each of them in one ``PolySums``.  The code in ``src`` must give exactly the same
results.
"""

import itertools
import math
import operator
from fractions import Fraction

from fedconn.scalars import Scalar, ONE
from fedconn.polynomials import (
    Poly, PolySums, add_term, merge_rosters, monomials_up_to, natural_key,
)
from fedconn.weylforms import WeylForm, HDivisionError
from fedconn.multidiff import MultiDiffOp, _leibniz_splits
from fedconn.fedosov import _jet_degree_at_most
from fedconn.kahler import VariationError


def tuple_terms(p):
    """p's numerator pairs keyed by (x exponents, t monomial), in stored order."""
    return dict(zip(p.scalar_terms(), p.terms.values()))


def _t_mono_mul(u, v):
    """The product of two sorted (name, exponent) t monomials."""
    exps = dict(u)
    for name, e in v:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items(), key=lambda kv: natural_key(kv[0])))


def acc_product_by_tuples(out, ta, tb, c, d):
    """Accumulate (c + d*i) * ta * tb into out for term maps keyed by
    (x exponents, t monomial) tuples on one roster; a sum that cancels is
    dropped."""
    for (m1, u1), (a1, b1) in ta.items():
        a, b = a1 * c - b1 * d, a1 * d + b1 * c
        for (m2, u2), (a2, b2) in tb.items():
            key = (tuple(map(operator.add, m1, m2)), _t_mono_mul(u1, u2))
            x, y = a * a2 - b * b2, a * b2 + b * a2
            s = out.get(key)
            if s is not None:
                x, y = x + s[0], y + s[1]
            if x or y:
                out[key] = (x, y)
            elif s is not None:
                del out[key]


def wedge_by_inversions(J1, J2):
    """(sign, J) with dx^J1 ^ dx^J2 = sign * dx^J for disjoint J1 and J2:
    sorting the sequence J1 + J2 into J moves each dx past every smaller
    index to its right, so the sign is the parity of its inversions."""
    seq = J1 + J2
    inversions = sum(1 for p, q in itertools.combinations(seq, 2) if p > q)
    return (-1 if inversions % 2 else 1), tuple(sorted(seq))


def pairing_by_products(a, b, commutator, over_h, max_degree=None):
    """a.mw(b) (neither flag), a.graded_comm(b) (commutator) or
    a.ad_over_h(b) (both), each contribution scaled and added on its own."""
    trunc = min(a.trunc, b.trunc)
    cap = trunc if max_degree is None else min(trunc, max_degree)
    room = cap + 2 if over_h else cap
    out = {}
    for (k1, a1, J1), c1 in a.terms.items():
        for (k2, a2, J2), c2 in b.terms.items():
            if 2 * (k1 + k2) + sum(a1) + sum(a2) > room or set(J1) & set(J2):
                continue
            sign, J = wedge_by_inversions(J1, J2)
            cc = c1 * c2
            for k, weights in a.ctx.contractions(a1, a2, commutator, over_h):
                h_power = k1 + k2 + k + (-1 if over_h else 0)
                if h_power < 0:
                    raise HDivisionError(f"h^{k1} y^{a1} and h^{k2} y^{a2}")
                for y, w in weights:
                    add_term(out, (h_power, y, J), cc.scale(w if sign > 0 else -w))
    return WeylForm(a.ctx, trunc, out)


def terms_on(op, roster):
    """op's terms with every slot multi-index and coefficient moved onto
    ``roster``, each exponent placed by its variable's name."""
    def along(s):
        named = dict(zip(op.roster, s))
        return tuple(named.get(name, 0) for name in roster)

    return {(k, tuple(map(along, slots))): c.with_roster(roster)
            for (k, slots), c in op.terms.items()}


def compose_at_by_products(phi, i, psi, max_slot=None):
    """phi o_i psi by the multinomial Leibniz rule, pair of terms by pair of terms."""
    n = psi.arity
    order = min(phi.order, psi.order)
    roster = merge_rosters(phi.roster, psi.roster)
    cap = math.inf if max_slot is None else max_slot
    out = {}
    for (k1, slots), c in terms_on(phi, roster).items():
        head, a, tail = slots[:i], slots[i], slots[i + 1:]
        if any(sum(s) > cap for s in head + tail):
            continue
        for (k2, bs), q in terms_on(psi, roster).items():
            if k1 + k2 > order or any(sum(b) > cap for b in bs):
                continue
            for weight, (e, *parts) in _leibniz_splits(a, n + 1):
                new = tuple(tuple(map(operator.add, b, part)) for b, part in zip(bs, parts))
                if any(sum(s) > cap for s in new):
                    continue
                cq = c * q.deriv_multi(e)
                if not cq.is_zero():
                    add_term(out, (k1 + k2, head + new + tail), cq.scale(weight))
    return MultiDiffOp(roster, phi.arity + n - 1, order, out)


def partial_apply_by_loops(op, slot, value):
    """op with argument ``slot`` frozen at the Poly or arity-0 operator ``value``:
    each term's slot derivative of each coefficient of the value, multiplied
    by the term's coefficient and added on its own."""
    if isinstance(value, Poly):
        value = MultiDiffOp.function(value.roster, value, op.order)
    order = min(op.order, value.order)
    out = {}
    for (k, slots), c in op.terms.items():
        rest = slots[:slot] + slots[slot + 1:]
        for (kv, _), p in value.terms.items():
            if k + kv > order:
                continue
            dp = p.with_roster(op.roster).deriv_multi(slots[slot])
            if not dp.is_zero():
                add_term(out, (k + kv, rest), c * dp)
    return MultiDiffOp(op.roster, op.arity - 1, order, out)


def delta_by_sums(a):
    """``WeylForm.delta``, each term scaled and added on its own."""
    out = {}
    for (k, alpha, J), c in a.terms.items():
        for i, e in enumerate(alpha):
            if not e or i in J:
                continue
            na = alpha[:i] + (e - 1,) + alpha[i + 1:]
            before = sum(1 for j in J if j < i)
            add_term(out, (k, na, tuple(sorted(J + (i,)))), c.scale(-e if before % 2 else e))
    return WeylForm(a.ctx, a.trunc, out)


def delta_star_by_terms(a):
    """``WeylForm.delta_star``, each term added on its own."""
    out = {}
    for (k, alpha, J), c in a.terms.items():
        for pos, i in enumerate(J):
            na = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
            add_term(out, (k, na, J[:pos] + J[pos + 1:]), c if pos % 2 == 0 else -c)
    return WeylForm(a.ctx, a.trunc + 1, out)


def delta_inv_by_sums(a):
    """``WeylForm.delta_inv``, each term scaled and added on its own."""
    out = {}
    for (k, alpha, J), c in a.terms.items():
        p, q = sum(alpha), len(J)
        if p + q == 0:
            continue
        for pos, i in enumerate(J):
            na = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
            add_term(out, (k, na, J[:pos] + J[pos + 1:]),
                     c.scale(Fraction(1 if pos % 2 == 0 else -1, p + q)))
    return WeylForm(a.ctx, a.trunc + 1, out)


def d_x_by_sums(a):
    """``WeylForm.d_x``, each term added on its own."""
    out = {}
    for (k, alpha, J), c in a.terms.items():
        for i in range(a.ctx.dim):
            if i in J:
                continue
            dc = c.differentiate(a.ctx.roster[i])
            if dc.is_zero():
                continue
            before = sum(1 for j in J if j < i)
            add_term(out, (k, alpha, tuple(sorted(J + (i,)))), -dc if before % 2 else dc)
    return WeylForm(a.ctx, a.trunc, out)


def cov_deriv_by_sums(connection, a):
    """``ConnectionFamily.cov_deriv`` as d_x plus the form of the Gamma
    terms, each Gamma term a scaled product added on its own."""
    out = {}
    for (k, alpha, J), c in a.terms.items():
        for (m, i, j), g in connection.gamma.items():
            e = alpha[m]
            if not e or i in J:
                continue
            na = list(alpha)
            na[m] -= 1
            na[j] += 1
            before = sum(1 for q in J if q < i)
            add_term(out, (k, tuple(na), tuple(sorted(J + (i,)))),
                     (g * c).scale(-e if before % 2 == 0 else e))
    return d_x_by_sums(a) + WeylForm(a.ctx, a.trunc, out)


def _derived(derivative, a):
    """The form that ``derivative(a, sink)`` adds into its sink."""
    sink = PolySums()
    derivative(a, sink)
    return WeylForm(a.ctx, a.trunc, sink.polys())


def solve_by_degree_by_sums(derivative, parts, degrees, source, left, weight, fail):
    """``fedosov.solve_by_degree`` with each degree's source B summed one
    form at a time: the derivative, the source part, then each bracket."""
    self_bracket = left is parts
    for d in degrees:
        B = source.homogeneous(d)
        if d in parts:
            B = _derived(derivative, parts[d]) + B
        for d1, a in left.items():
            d2 = d + 2 - d1
            b = parts.get(d2)
            if b is None or (self_bracket and d1 > d2):
                continue
            w = 2 * weight if self_bracket and d1 < d2 else weight
            bracket = a.ad_over_h(b)
            B = B + (bracket if w == 1 else bracket.scale(w))
        if not B.delta().is_zero():
            raise fail(d)
        parts[d + 1] = B.delta_inv()


def D_r_by_sums(setup, a, max_degree=None):
    """``FedosovSetup.D_r``: -delta a + d_nabla a + ad_over_h(r, a), three forms added."""
    return -a.delta() + cov_deriv_by_sums(setup.connection, a) + setup.r.ad_over_h(a, max_degree)


def curvature_form_by_sums(setup, r):
    """``FedosovSetup._curvature_form``: the half bracket summed pair by
    pair, then the five forms added."""
    cap = setup.trunc - 1
    parts = r.by_degree()
    half = WeylForm.zero(setup.sym, r.trunc)
    for d1, a in parts.items():
        for d2, b in parts.items():
            if d1 < d2:
                half = half + a.ad_over_h(b, max_degree=cap)
            elif d1 == d2:
                half = half + a.ad_over_h(b, max_degree=cap).scale(Fraction(1, 2))
    return (setup.omega_form + r.delta() + setup.R - cov_deriv_by_sums(setup.connection, r)
            - half).truncate(cap)


def bracket_by_sums(psi, phi, max_slot=None):
    """``MultiDiffOp.bracket``, each signed partial composition added as an operator."""
    r, s = psi.arity - 1, phi.arity - 1
    out = MultiDiffOp.zero(merge_rosters(psi.roster, phi.roster), r + s + 1,
                           min(psi.order, phi.order))
    for i in range(r + 1):
        term = psi.compose_at(i, phi, max_slot)
        out = out - term if i * s % 2 else out + term
    for j in range(s + 1):
        term = phi.compose_at(j, psi, max_slot)
        out = out + term if (r * s + j * r) % 2 else out - term
    return out


def jet_wedge_by_terms(a, positions, degree):
    """Xi ^ a with Xi = sum_i xi_i dx^i, dropping jet degree > degree, as a
    WeylForm summed term by term (``fedosov._jet_wedge`` adds into a sink)."""
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



# -- the Moyal series by contraction states --------------------------------------------------

def _contract(ctx, state):
    """One more pi-contraction of each pair in ``state``.

    ``state`` maps the leftover fiber exponents (b1, b2) of the two factors to
    the weight their contractions have built up so far; each pi^{ij} entry
    removes one y^i from b1 and one y^j from b2, weighted by pi^{ij} and the
    two exponents it lowers.
    """
    nxt = {}
    for (b1, b2), w in state.items():
        for (pi_i, pi_j, pv) in ctx._pi_entries:
            e1 = b1[pi_i]
            if not e1:
                continue
            e2 = b2[pi_j]
            if not e2:
                continue
            nb1 = b1[:pi_i] + (e1 - 1,) + b1[pi_i + 1:]
            nb2 = b2[:pi_j] + (e2 - 1,) + b2[pi_j + 1:]
            add_term(nxt, (nb1, nb2), (w * pv).mul_int(e1 * e2))
    return nxt


def moyal_star_by_states(sym, order):
    """The Moyal star to order K from the raising recurrence on derivative
    multi-indices (g1, g2), one pi entry per order, with no Moyal layers."""
    roster = sym.roster
    zero = (0,) * sym.dim
    terms = {}
    state = {(zero, zero): ONE}
    for k in range(order + 1):
        w_k = sym.moyal_factor(k)
        for (g1, g2), w in state.items():
            terms[(k, (g1, g2))] = Poly.const(roster, w * w_k)
        nxt = {}
        for (g1, g2), w in state.items():
            for (i, j, v) in sym._pi_entries:
                key = (g1[:i] + (g1[i] + 1,) + g1[i + 1:], g2[:j] + (g2[j] + 1,) + g2[j + 1:])
                add_term(nxt, key, w * v)
        state = nxt
    return MultiDiffOp(roster, 2, order, terms)

# -- evaluators on sample functions ---------------------------------------------------------

def hamiltonian_vf(sym, f):
    """Components of X_f, the field with X_f(g) = {f, g}: X^j = pi^{ij} d_i f."""
    f = f.with_roster(sym.roster)
    comps = [Poly.zero(sym.roster) for _ in range(sym.dim)]
    for i, j, v in sym._pi_entries:
        comps[j] = comps[j] + f.differentiate(sym.roster[i]).scale(v)
    return tuple(comps)


def contract(fam, M, F):
    """The components sum_a M[a][b] d_a F, for b = 1..dim, of a Kahler family."""
    roster = fam.sym.roster
    dF = [F.differentiate(x) for x in roster]
    out = []
    for b in range(fam.sym.dim):
        acc = Poly.zero(roster)
        for a in range(fam.sym.dim):
            if not M[a][b].is_zero():
                acc = acc + dF[a].scale(M[a][b])
        out.append(acc)
    return out


def delta_Z(fam, Z, f):
    """Delta_Z f = Z^{ab} d_a d_b f for an x-constant symmetric bivector."""
    roster = fam.sym.roster
    out = Poly.zero(roster)
    for x, c in zip(roster, contract(fam, Z, f.with_roster(roster))):
        out = out + c.differentiate(x)
    return out


def df_M_dg(fam, M, f, g):
    """df M dg for an x-constant matrix M."""
    roster = fam.sym.roster
    g = g.with_roster(roster)
    out = Poly.zero(roster)
    for x, c in zip(roster, contract(fam, M, f.with_roster(roster))):
        if not c.is_zero():
            out = out + c * g.differentiate(x)
    return out


def v_c1(fam, direction, f, g):
    """V[c1](f, g) by the t-derivative V[M] of the c1 matrix, cross-checked
    against (1/2) df G(V) dg: VariationError where they differ."""
    v = fam.variation(direction)
    direct = df_M_dg(fam, v.Mdot, f, g)
    if direct != df_M_dg(fam, v.half_G, f, g):
        raise VariationError(
            f"V[c1] disagrees with (1/2) df G(V) dg at ({f}, {g}) (direction {direction})")
    return direct


def lemma_at(fam, direction, f, g, factor=Fraction(1, 4)):
    """V[c1](f,g) = factor * (Delta_G(fg) - Delta_G(f) g - Delta_G(g) f) at
    one pair; (ok, witness)."""
    G = fam.variation(direction).G
    lhs = v_c1(fam, direction, f, g)
    rhs = (delta_Z(fam, G, f * g) - delta_Z(fam, G, f) * g
           - delta_Z(fam, G, g) * f).scale(Scalar(factor))
    if lhs != rhs:
        return False, f"({f}, {g}): {lhs} != {rhs}"
    return True, None


def lemma_by_pairs(fam, direction, basis_degree, factor=Fraction(1, 4)):
    """``kahler.verify_lemma_vc1`` as a loop of ``lemma_at`` over every pair
    of basis monomials, f outermost."""
    basis = monomials_up_to(fam.sym.roster, basis_degree)
    for f in basis:
        for g in basis:
            ok, wit = lemma_at(fam, direction, f, g, factor)
            if not ok:
                return ok, wit
    return True, None


def operator_E_by_loops(fam, direction, F, f):
    """E(V)(f) = -(1/4)(Delta_G(f) - 2 grad_{G dF}(f) - 2 Delta_G(F) f - 2n V[F] f)."""
    roster = fam.sym.roster
    F, f = F.with_roster(roster), f.with_roster(roster)
    G = fam.variation(direction).G
    n = fam.sym.dim // 2
    body = (delta_Z(fam, G, f) - df_M_dg(fam, G, f, F).scale(2)
            - (delta_Z(fam, G, F) * f).scale(2) - (F.differentiate(direction) * f).scale(2 * n))
    return body.scale(-Scalar(Fraction(1, 4)))


def operator_H_by_loops(fam, direction, F):
    """H(V) = (1/2)(Delta_G(F) + n V[F])."""
    F = F.with_roster(fam.sym.roster)
    G = fam.variation(direction).G
    n = fam.sym.dim // 2
    return (delta_Z(fam, G, F) + F.differentiate(direction).scale(n)).scale(Scalar(Fraction(1, 2)))


def lowest_order_by_loops(family, A, beta, basis_degree=3):
    """``families.lowest_order_identity`` as the loop it replaced: the h^1
    part of A(V)(f) against -i_V i_{X_f} beta_1, basis monomial by monomial."""
    sym = family.sym
    basis = monomials_up_to(sym.roster, basis_degree)
    for p in family.params:
        beta1 = {key: c for key, c in beta[p].terms.items() if key[0] == 1}
        for f in basis:
            X = hamiltonian_vf(sym, f)
            expect = Poly.zero(sym.roster)
            for (k, a, J), c in beta1.items():
                expect = expect - c * X[J[0]]
            got = A[p].apply(f).poly(1)
            if got != expect:
                return False, f"direction {p}, f = {f}: h^1 part {got} != {expect}"
    return True, None
