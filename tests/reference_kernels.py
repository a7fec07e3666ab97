"""Slow references for the product kernels and for the sums built from them.

``pairing_by_products`` is ``WeylForm._pairing`` as a plain loop over every
pair of terms within the degree cap: it tests the form indices on sets, forms
``c1 * c2`` before it knows whether a contraction order survives, and adds
each contribution as ``add_term(out, key, cc.scale(w))``.  ``compose_at_by_products``
is ``MultiDiffOp.compose_at`` with the Leibniz splits enumerated again for
every pair of terms and every ``c * d^e q`` formed before it is known to land.

The ``*_by_sums`` references add whole forms and operators one
``WeylForm.__add__`` or ``MultiDiffOp.__add__`` at a time, which reduces every
shared coefficient once per sum: delta and delta_inv, the degree recursion,
``cov_deriv``, D_r, the Weyl curvature form and the Gerstenhaber bracket,
where ``src`` sums each of them in one ``PolySums``.  The code in ``src`` must give exactly the same
results.
"""

import math
import operator
from fractions import Fraction

from fedconn.polynomials import PolySums, add_term, merge_rosters
from fedconn.weylforms import WeylForm, HDivisionError, _wedge_sign, _merge_J
from fedconn.multidiff import MultiDiffOp, _leibniz_splits


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
            sign = _wedge_sign(J1, J2)
            J = _merge_J(J1, J2)
            cc = c1 * c2
            for k, weights in a.ctx.contractions(a1, a2, commutator, over_h):
                h_power = k1 + k2 + k + (-1 if over_h else 0)
                if h_power < 0:
                    raise HDivisionError(f"h^{k1} y^{a1} and h^{k2} y^{a2}")
                for y, w in weights:
                    add_term(out, (h_power, y, J), cc.scale(w if sign > 0 else -w))
    return WeylForm(a.ctx, trunc, out)


def compose_at_by_products(phi, i, psi, max_slot=None):
    """phi o_i psi by the multinomial Leibniz rule, pair of terms by pair of terms."""
    n = psi.arity
    order = min(phi.order, psi.order)
    roster = merge_rosters(phi.roster, psi.roster)
    cap = math.inf if max_slot is None else max_slot
    out = {}
    for (k1, slots), c in phi.terms.items():
        head, a, tail = slots[:i], slots[i], slots[i + 1:]
        if any(sum(s) > cap for s in head + tail):
            continue
        c = c.with_roster(roster)
        for (k2, bs), q in psi.terms.items():
            if k1 + k2 > order or any(sum(b) > cap for b in bs):
                continue
            q = q.with_roster(roster)
            for weight, (e, *parts) in _leibniz_splits(a, n + 1):
                new = tuple(tuple(map(operator.add, b, part)) for b, part in zip(bs, parts))
                if any(sum(s) > cap for s in new):
                    continue
                cq = c * q.deriv_multi(e)
                if not cq.is_zero():
                    add_term(out, (k1 + k2, head + new + tail), cq.scale(weight))
    return MultiDiffOp(roster, phi.arity + n - 1, order, out)


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
        for (m, i, j, g) in connection.entries:
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
