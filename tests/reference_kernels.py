"""Slow references for the two product kernels, one scaled Poly per contribution.

``pairing_by_products`` is ``WeylForm._pairing`` as a plain loop over every
pair of terms within the degree cap: it tests the form indices on sets, forms
``c1 * c2`` before it knows whether a contraction order survives, and adds
each contribution as ``add_term(out, key, cc.scale(w))``.  ``compose_at_by_products``
is ``MultiDiffOp.compose_at`` with the Leibniz splits enumerated again for
every pair of terms and every ``c * d^e q`` formed before it is known to land.
The kernels in ``src`` must give exactly the same results.
"""

import math
import operator

from fedconn.polynomials import add_term, merge_rosters
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
