"""Formal multidifferential operators as Hochschild cochains.

A MultiDiffOp of arity m is a finite sum of terms

    h^k * c(x) * (d^{a_1} (x) ... (x) d^{a_m})

acting on m functions; ``apply`` extends multilinearly over h so arguments may
be Polys or FormalFunctions.  An operator with a known symbol, a polynomial
in x and one set of jet variables per argument, is built from it
(``operator_from_symbol``).  Term tables are canonical, so equality of
operators is structural.  ``compose_at`` is the partial composition
phi o_i psi, expanded by the multinomial Leibniz rule, so identities such as
d_H A(V) = V[star] are formed as one difference operator and decided on its
terms: it vanishes on every tuple of monomials of degree <= d exactly when
no term has all its slot orders <= d (``MultiDiffOp.basis_witness``).  The
values on all those tuples at once (``MultiDiffOp.basis_table``) are summed
term by term: each term lands on the tuples it does not annihilate as a
shifted, weighted copy of its coefficient, with no evaluation of the
operator.

The Gerstenhaber bracket (``MultiDiffOp.bracket``) is formed from
``compose_at`` in the same way, and the Hochschild differential of a star
truncation m is d_H(phi) = [m, phi].

``compose_at`` multiplies only what lands: the Leibniz splits of a slot
multi-index are enumerated once per call and grouped by the share e that
falls on the inner coefficient q, and c * d^e q is multiplied only when d^e q
is not zero and some split with that e keeps every slot within ``max_slot``.
Each landing split adds the product with its multinomial weight to a
``PolySums``: a product with a single landing split is accumulated as it is
multiplied (``PolySums.add_product``), one with several is formed once.  The
bracket passes one PolySums, and each composition's sign, to all of its
compositions, so each coefficient of the bracket is reduced once, in its
``polys()``.  ``apply`` sums its products per h-power the same way.
"""

from __future__ import annotations

import itertools
import math
import operator

from .scalars import Scalar, ONE, I
from .polynomials import (
    Poly, PolySums, FormalFunction, monomials_up_to, merge_rosters, add_term, exponents_up_to,
)


def unit_vectors(n):
    """The multi-indices of the n first-order derivatives d_1 .. d_n."""
    return [tuple(int(i == a) for i in range(n)) for a in range(n)]


def _falling(a, b):
    """Scalar factor of d^b applied to x^a (0 when b exceeds a somewhere)."""
    out = 1
    for ea, eb in zip(a, b):
        if eb > ea:
            return 0
        out *= math.factorial(ea) // math.factorial(ea - eb)
    return out


class MultiDiffOp:
    """Explicit h-graded multidifferential operator."""

    __slots__ = ("roster", "arity", "order", "terms")

    def __init__(self, roster, arity: int, order: int, terms=None):
        self.roster = tuple(roster)
        self.arity = arity
        self.order = order  # h-truncation: terms with h-power <= order are kept
        self.terms = {}
        if terms:
            for (k, slots), c in terms.items():
                if k > order or c.is_zero():
                    continue
                self.terms[(k, tuple(tuple(s) for s in slots))] = c

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def zero(roster, arity, order) -> "MultiDiffOp":
        return MultiDiffOp(roster, arity, order)

    @staticmethod
    def identity(roster, order) -> "MultiDiffOp":
        roster = tuple(roster)
        z = (0,) * len(roster)
        return MultiDiffOp(roster, 1, order, {(0, (z,)): Poly.const(roster, 1)})

    @staticmethod
    def pairing(roster, entries) -> "MultiDiffOp":
        """(f, g) -> sum M^{ab} d_a f d_b g as an arity-2, h^0 operator: one
        term d_a (x) d_b per entry (a, b, M^{ab}) of an x-constant matrix M."""
        roster = tuple(roster)
        e = unit_vectors(len(roster))
        return MultiDiffOp(roster, 2, 0, {(0, (e[a], e[b])): Poly.const(roster, v)
                                          for a, b, v in entries})

    # -- inspection ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def h_coefficient(self, k: int) -> "MultiDiffOp":
        """The h^k layer as an operator concentrated at h-power 0."""
        out = {}
        for (kk, slots), c in self.terms.items():
            if kk == k:
                out[(0, slots)] = c
        return MultiDiffOp(self.roster, self.arity, 0, out)

    def is_O_h(self) -> bool:
        return all(k >= 1 for (k, _) in self.terms)

    def slot_order(self, k=None) -> int:
        orders = [
            max(sum(s) for s in slots)
            for (kk, slots) in self.terms
            if k is None or kk == k
        ]
        return max(orders, default=0)

    def first_order_part(self, k: int):
        """(vector field components, leftover) of the h^k layer of an arity-1 op."""
        if self.arity != 1:
            raise ValueError("first_order_part needs an arity-1 operator")
        n = len(self.roster)
        comps = [Poly.zero(self.roster) for _ in range(n)]
        leftover = {}
        for (kk, slots), c in self.terms.items():
            if kk != k:
                continue
            (a,) = slots
            if sum(a) == 1:
                comps[a.index(1)] = comps[a.index(1)] + c
            else:
                leftover[(0, slots)] = c
        return tuple(comps), MultiDiffOp(self.roster, 1, 0, leftover)

    # -- linear structure -------------------------------------------------------------

    def __add__(self, other: "MultiDiffOp") -> "MultiDiffOp":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        order = min(self.order, other.order)
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c)
        return MultiDiffOp(merge_rosters(self.roster, other.roster), self.arity, order, out)

    def __neg__(self):
        return MultiDiffOp(self.roster, self.arity, self.order,
                           {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value) -> "MultiDiffOp":
        c = value if isinstance(value, Poly) else Scalar.of(value)
        return MultiDiffOp(self.roster, self.arity, self.order,
                           {k: p.scale(c) for k, p in self.terms.items()})

    def shift_h(self, j: int) -> "MultiDiffOp":
        out = {}
        for (k, slots), c in self.terms.items():
            if k + j < 0:
                raise ValueError("h-division leaves a remainder")
            out[(k + j, slots)] = c
        return MultiDiffOp(self.roster, self.arity, self.order + j, out)

    def truncate(self, order: int) -> "MultiDiffOp":
        return MultiDiffOp(self.roster, self.arity, min(self.order, order), self.terms)

    def t_derivative(self, name: str) -> "MultiDiffOp":
        out = {}
        for key, c in self.terms.items():
            d = c.differentiate(name)
            if not d.is_zero():
                out[key] = d
        return MultiDiffOp(self.roster, self.arity, self.order, out)

    def subs_params(self, values: dict) -> "MultiDiffOp":
        out = {}
        for key, c in self.terms.items():
            v = c.subs_params(values)
            if not v.is_zero():
                out[key] = v
        return MultiDiffOp(self.roster, self.arity, self.order, out)

    def __eq__(self, other):
        if not isinstance(other, MultiDiffOp):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    # -- action ----------------------------------------------------------------------

    def apply(self, *args) -> FormalFunction:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        coeffs = []
        order = self.order
        for a in args:
            if isinstance(a, Poly):
                a = FormalFunction.from_poly(a.with_roster(self.roster), order)
            order = min(order, a.order)
            coeffs.append(a.coeffs)
        # each argument is derived once per distinct multi-index of its slot
        derived = [{} for _ in args]
        roster = self.roster
        out = {}
        for (k, slots), c in self.terms.items():
            if k > order:
                continue
            roster = merge_rosters(roster, c.roster)
            acc = {k: c}
            for s, arg, cache in zip(slots, coeffs, derived):
                d = cache.get(s)
                if d is None:
                    d = cache[s] = [(kk, dp) for kk, p in arg.items()
                                    if not (dp := p.deriv_multi(s)).is_zero()]
                nxt = PolySums()
                for k1, p1 in acc.items():
                    for k2, p2 in d:
                        if k1 + k2 <= order:
                            nxt.add_product(k1 + k2, p1, p2, 1)
                acc = nxt.polys()
                if not acc:
                    break
            for kk, p in acc.items():
                add_term(out, kk, p)
        return FormalFunction(roster, order, out)

    def __call__(self, *args):
        return self.apply(*args)

    def basis_table(self, degree: int):
        """self on every tuple of monomials of degree <= ``degree``, yielded
        as (args, value) in nested-loop order over
        ``monomials_up_to(self.roster, degree)``, the first argument
        outermost: the values ``apply`` gives, tuple by tuple.

        They are summed term by term instead.  A term h^k c d^s_1 .. d^s_m
        adds h^k perm(a_1, s_1) .. perm(a_m, s_m) c x^{(a_1 - s_1) + .. + (a_m - s_m)}
        to the tuple (x^a_1, .., x^a_m) wherever every a_j >= s_j, so a term
        with a slot order above ``degree`` adds nothing.  The tuples are
        summed one first argument at a time, so only that block is held.
        The coefficients must be Polys in self's roster.
        """
        if self.arity < 1:
            raise ValueError("basis_table needs an operator of arity >= 1")
        roster = self.roster
        exps = exponents_up_to(len(roster), degree)
        n, m = len(exps), self.arity

        def hits(s, stride):
            # (stride * index of x^a, perm(a, s), a - s) for each basis exponent a >= s
            return [(i * stride, w, tuple(map(operator.sub, a, s)))
                    for i, a in enumerate(exps) if (w := _falling(a, s))]

        live = []
        for (k, slots), c in self.terms.items():
            if all(sum(s) <= degree for s in slots):
                first, *rest = slots
                live.append((k, c.with_roster(roster), {i: (w, e) for i, w, e in hits(first, 1)},
                             [hits(s, n ** (m - 2 - j)) for j, s in enumerate(rest)]))
        monomials = [Poly.monomial(roster, a) for a in exps]
        tails = list(itertools.product(monomials, repeat=m - 1))
        for i, f in enumerate(monomials):
            block = [{} for _ in tails]
            for k, c, first, rest in live:
                if i not in first:
                    continue
                w, e = first[i]
                for picks in itertools.product(*rest):
                    weight = w * math.prod(p[1] for p in picks)
                    shift = tuple(map(sum, zip(e, *(p[2] for p in picks))))
                    add_term(block[sum(p[0] for p in picks)], k,
                             c.map_x(lambda x: (tuple(map(operator.add, x, shift)), weight)))
            for tail, value in zip(tails, block):
                yield (f, *tail), FormalFunction(roster, self.order, value)

    def basis_witness(self, degree: int):
        """Where self is nonzero on monomials of degree <= ``degree``: None
        when it is zero on every tuple of them, else the first nonzero tuple
        in nested-loop order over ``monomials_up_to(roster, degree)`` (the
        first argument outermost), with its value.

        The verdict reads the terms alone: self is zero on all these tuples
        exactly when no term has every slot order <= degree.  A term of
        higher order in some slot kills every monomial of lower degree.  For
        a term h^k c d^a_1 .. d^a_m whose slots are all within ``degree`` and
        componentwise minimal among such terms, self(x^a_1, .., x^a_m) has
        h^k coefficient a_1! .. a_m! c: every other term of that h-power has
        a slot b_j not componentwise below a_j, and d^b_j x^a_j = 0.  Only when
        such a term exists is self evaluated, to find the witness.
        """
        if all(any(sum(s) > degree for s in slots) for _, slots in self.terms):
            return None
        basis = monomials_up_to(self.roster, degree)
        for args in itertools.product(basis, repeat=self.arity):
            value = self.apply(*args)
            if not value.is_zero():
                return args, value
        raise AssertionError("a term within the degree vanished on every monomial tuple")

    # -- composition ----------------------------------------------------------------

    def compose_at(self, i: int, psi: "MultiDiffOp", max_slot: int = None, sink=None,
                   weight: int = 1):
        """The partial composition self o_i psi, of arity m + n - 1 for m = self.arity
        and n = psi.arity:

            (self o_i psi)(f_1..f_{m+n-1}) = self(f_1..f_i, psi(f_{i+1}..f_{i+n}), ..)

        Slot i's d^a falls on psi's coefficient q and arguments by the
        multinomial Leibniz rule,

            d^a (q * prod_j d^{b_j} f_j)
                = sum_{a = e + e_1 + .. + e_n} a!/(e! e_1! .. e_n!) d^e q * prod_j d^{b_j + e_j} f_j,

        and the result is truncated at the lower h-order of the two.

        With ``max_slot``, a term is dropped when one of its slots has order
        above it.  Such a term is zero on every tuple of monomials of degree
        <= max_slot, and it stays so in any later composition that takes the
        result as its inner operator (composing after an operator only raises
        slot orders).  A later composition *into* a slot of the result can
        lower that slot's order, so the caller passes ``max_slot`` only when
        no slot of the result is composed into afterwards.

        With a ``sink``, the composition times ``weight`` is added into that
        PolySums, keyed by (h-power, slots), and nothing is returned.
        """
        if not 0 <= i < self.arity:
            raise ValueError(f"no slot {i} in an arity-{self.arity} operator")
        n = psi.arity
        order = min(self.order, psi.order)
        roster = merge_rosters(self.roster, psi.roster)
        cap = math.inf if max_slot is None else max_slot
        # psi's terms within the cap, with the room each slot leaves under it;
        # each coefficient is derived once per multi-index
        inner = [(k2, bs, [cap - sum(b) for b in bs], q.with_roster(roster), {})
                 for (k2, bs), q in psi.terms.items() if all(sum(b) <= cap for b in bs)]
        splits = {}  # slot multi-index -> its Leibniz splits by e, enumerated once per call
        out = PolySums() if sink is None else sink
        for (k1, slots), c in self.terms.items():
            head, a, tail = slots[:i], slots[i], slots[i + 1:]
            if any(sum(s) > cap for s in head + tail):
                continue
            by_e = splits.get(a)
            if by_e is None:
                by_e = splits[a] = _leibniz_table(a, n)
            c = c.with_roster(roster)
            for k2, bs, room, q, derived in inner:
                k = k1 + k2
                if k > order:
                    continue
                for e, parts in by_e.items():
                    landed = [(weight, shifts) for weight, shifts, orders in parts
                              if all(map(operator.le, orders, room))]
                    if not landed:
                        continue
                    dq = derived.get(e)
                    if dq is None:
                        dq = derived[e] = q.deriv_multi(e)
                    if not dq.terms:
                        continue
                    if len(landed) == 1:
                        w, shifts = landed[0]
                        out.add_product((k, head + tuple(map(_add_slots, bs, shifts)) + tail),
                                        c, dq, w * weight)
                        continue
                    cq = c * dq
                    for w, shifts in landed:
                        out.add((k, head + tuple(map(_add_slots, bs, shifts)) + tail), cq,
                                w * weight)
        if sink is None:
            return MultiDiffOp(roster, self.arity + n - 1, order, out.polys())

    def compose(self, other: "MultiDiffOp") -> "MultiDiffOp":
        """self after other, both arity 1: ``compose_at(0, other)``."""
        if self.arity != 1 or other.arity != 1:
            raise ValueError("compose needs arity-1 operators")
        return self.compose_at(0, other)

    def bracket(self, phi: "MultiDiffOp", max_slot: int = None) -> "MultiDiffOp":
        """The Gerstenhaber bracket [self, phi], by the double-sum sign rule:
        for self = psi of arity r+1 and phi of arity s+1,

            [psi, phi] = sum_{i=0..r} (-1)^{is} psi o_i phi
                       - (-1)^{rs} sum_{j=0..s} (-1)^{jr} phi o_j psi,

        so [m, B] = m o_0 B + m o_1 B - B o_0 m = d_H B for an arity-2 m and
        an arity-1 B, and [P, Q] = PQ - QP for arity-1 P and Q.  ``max_slot``
        is ``compose_at``'s, with its caveat: a bracket whose result is
        bracketed again takes none.  Every composition adds into one
        PolySums with its sign, so each coefficient is reduced once.
        """
        r, s = self.arity - 1, phi.arity - 1
        out = PolySums()
        for i in range(r + 1):
            self.compose_at(i, phi, max_slot, out, -1 if i * s % 2 else 1)
        for j in range(s + 1):
            phi.compose_at(j, self, max_slot, out, 1 if (r * s + j * r) % 2 else -1)
        return MultiDiffOp(merge_rosters(self.roster, phi.roster), r + s + 1,
                           min(self.order, phi.order), out.polys())

    def partial_apply(self, slot: int, value) -> "MultiDiffOp":
        """Freeze one argument slot at a fixed Poly or FormalFunction."""
        if isinstance(value, Poly):
            value = FormalFunction.from_poly(value.with_roster(self.roster), self.order)
        out = {}
        order = min(self.order, value.order)
        for (k, slots), c in self.terms.items():
            a = slots[slot]
            rest = slots[:slot] + slots[slot + 1:]
            for kv, p in value.coeffs.items():
                if k + kv > order:
                    continue
                dp = p.deriv_multi(a)
                if dp.is_zero():
                    continue
                add_term(out, (k + kv, rest), c * dp)
        return MultiDiffOp(self.roster, self.arity - 1, order, out)

    # -- printing -----------------------------------------------------------------------

    def serialize(self) -> str:
        lines = []
        for (k, slots) in sorted(self.terms):
            c = self.terms[(k, slots)]
            ds = ",".join("(" + ",".join(str(e) for e in s) + ")" for s in slots)
            lines.append(f"h^{k} * {c.as_factor()} * D[{ds}]")
        return "\n".join(lines) if lines else "0"

    def __str__(self):
        return self.serialize().replace("\n", "  +  ")

    def __repr__(self):
        return f"MultiDiffOp(arity={self.arity}, order={self.order}: {self})"


def _sub_multiindices(a):
    if not a:
        yield ()
        return
    head = a[0]
    for rest in _sub_multiindices(a[1:]):
        for e in range(head + 1):
            yield (e,) + rest


def _add_slots(b, e):
    return tuple(map(operator.add, b, e))


def _leibniz_table(a, n):
    """The Leibniz splits of a over a coefficient and n arguments, grouped by
    the coefficient's share e: {e: [(weight, (e_1, .., e_n), (|e_1|, .., |e_n|))]}."""
    table = {}
    for weight, (e, *shifts) in _leibniz_splits(a, n + 1):
        table.setdefault(e, []).append((weight, tuple(shifts), [sum(s) for s in shifts]))
    return table


def _leibniz_splits(a, parts):
    """(a!/(e_1! .. e_p!), (e_1, .., e_p)) for every way of writing the
    multi-index a as a sum of ``parts`` multi-indices."""
    if parts == 1:
        yield 1, (a,)
        return
    for e in _sub_multiindices(a):
        weight = math.prod(map(math.comb, a, e))
        for w, rest in _leibniz_splits(tuple(map(operator.sub, a, e)), parts - 1):
            yield weight * w, (e,) + rest


def operator_from_symbol(roster, order, symbol: FormalFunction, jets) -> MultiDiffOp:
    """The operator whose symbol is ``symbol``, of arity ``len(jets)``.

    ``symbol``'s coefficients are Polys in the base variables ``roster`` and
    the jet variables ``jets[i]`` of each slot i, listed along ``roster``; a
    term h^k c(x) xi_1^b_1 .. xi_m^b_m stands for h^k c d^b_1 (x) .. (x) d^b_m.
    """
    roster = tuple(roster)
    known = set(roster).union(*jets)
    terms = {}
    for k, p in symbol.coeffs.items():
        if k > order:
            continue
        if not set(p.roster) <= known:
            raise ValueError(f"symbol has variables {set(p.roster) - known} outside x and the jets")
        pos = {name: i for i, name in enumerate(p.roster)}
        xs = [pos.get(name) for name in roster]
        slots = [[pos.get(name) for name in jet] for jet in jets]
        split = {}
        for (m, t), c in p.scalar_terms().items():
            key = tuple(tuple(0 if i is None else m[i] for i in slot) for slot in slots)
            xm = tuple(0 if i is None else m[i] for i in xs)
            split.setdefault(key, {})[(xm, t)] = c
        for key, part in split.items():
            terms[(k, key)] = Poly(roster, part, p.den)
    return MultiDiffOp(roster, len(jets), order, terms)


# ---------------------------------------------------------------------------
# star truncations
# ---------------------------------------------------------------------------

class StarTruncation:
    """A star product to order K: arity-2 h-graded operator with c^0 = product."""

    def __init__(self, op: MultiDiffOp, setup=None, symplectic=None):
        if op.arity != 2:
            raise ValueError("a star truncation is an arity-2 operator")
        self.op = op
        self.order = op.order
        self.setup = setup
        self.symplectic = symplectic if symplectic is not None else getattr(setup, "sym", None)

    @staticmethod
    def pointwise(roster, order) -> "StarTruncation":
        roster = tuple(roster)
        z = (0,) * len(roster)
        op = MultiDiffOp(roster, 2, order, {(0, (z, z)): Poly.const(roster, 1)})
        return StarTruncation(op)

    @staticmethod
    def moyal(sym, order: int) -> "StarTruncation":
        """Closed-form Moyal coefficients c^k = (i/2)^k/k! pi^{..} d^k f d^k g.

        Built directly from the contraction recurrence on derivative
        multi-indices; independent of the Weyl-bundle machinery.
        """
        roster = sym.roster
        n = sym.dim
        zero = (0,) * n
        terms = {}
        state = {(zero, zero): ONE}
        for k in range(order + 1):
            w_k = sym.moyal_factor(k)
            for (g1, g2), w in state.items():
                c = w * w_k
                if not c.is_zero():
                    terms[(k, (g1, g2))] = Poly.const(roster, c)
            if k == order:
                break
            nxt = {}
            for (g1, g2), w in state.items():
                for (i, j, v) in sym._pi_entries:
                    key = (
                        g1[:i] + (g1[i] + 1,) + g1[i + 1:],
                        g2[:j] + (g2[j] + 1,) + g2[j + 1:],
                    )
                    add_term(nxt, key, w * v)
            state = nxt
        op = MultiDiffOp(roster, 2, order, terms)
        return StarTruncation(op, symplectic=sym)

    @property
    def roster(self):
        return self.op.roster

    def coefficient(self, k: int) -> MultiDiffOp:
        return self.op.h_coefficient(k)

    def apply(self, f, g) -> FormalFunction:
        return self.op.apply(f, g)

    def __call__(self, f, g):
        return self.op.apply(f, g)

    def variation(self, name: str) -> MultiDiffOp:
        """Coefficientwise t-derivative: the arity-2 cochain V[star]."""
        return self.op.t_derivative(name)

    def subs_params(self, values: dict) -> "StarTruncation":
        return StarTruncation(self.op.subs_params(values), setup=self.setup)

    def ad_over_h(self, b) -> MultiDiffOp:
        """(1/h) ad_star(b) as an arity-1 operator (order drops by one)."""
        left = self.op.partial_apply(0, b)
        right = self.op.partial_apply(1, b)
        return (left - right).shift_h(-1)

    def slot_order(self) -> int:
        return self.op.slot_order()


def is_derivation(B: MultiDiffOp, star: StarTruncation, basis_degree=None):
    """(ok, witness): whether d_H B = 0 mod h^{K+1} on the monomial basis.

    d_H B = [star, B] is formed as an operator (``MultiDiffOp.bracket``), capped at
    ``basis_degree``; it vanishes on every pair of basis monomials
    exactly when it has no term with both slot orders <= basis_degree
    (``MultiDiffOp.basis_witness``), and only then is it evaluated, pair by
    pair, for the witness.  The default basis degree is the sum of the slot
    orders of star and B.
    """
    if not isinstance(B, MultiDiffOp):
        raise TypeError(f"is_derivation needs a MultiDiffOp, not {type(B).__name__}")
    if basis_degree is None:
        basis_degree = star.slot_order() + B.slot_order()
    found = star.op.bracket(B, basis_degree).basis_witness(basis_degree)
    if found is not None:
        (f, g), value = found
        k = min(value.coeffs)
        return False, f"d_H B ({f}, {g}) has h^{k} coefficient {value.coefficient(k)}"
    return True, None


def inner_potential(B: MultiDiffOp, star: StarTruncation) -> FormalFunction:
    """Recover b with (1/h) ad_star(b) = B mod h^K, normalized by b_k(0) = 0.

    Works order by order: the h^k residual must be a vector field, which is
    checked to be symplectic and then integrated to a Hamiltonian.
    """
    sym = star.symplectic
    if sym is None:
        raise ValueError("star truncation carries no symplectic data")
    if B.arity != 1:
        raise ValueError("inner_potential needs an arity-1 operator")
    if not B.is_O_h():
        raise ValueError("a formal-series derivation must vanish at h^0")
    roster = star.roster
    K = star.order
    b = FormalFunction(roster, K, {})
    residual = B
    for k in range(1, K):
        comps, leftover = residual.first_order_part(k)
        if not leftover.is_zero():
            raise ValueError(
                f"not a derivation / not symplectic at order h^{k}: "
                f"residual is not a vector field ({leftover})"
            )
        if all(c.is_zero() for c in comps):
            continue
        # residual_k = i {b_k, .}  -->  grad b_k = i * omega * X
        eta = [p.scale(I) for p in sym.gradient_of_potential(comps)]
        try:
            bk = sym.potential_of_gradient(eta)
        except ValueError as exc:
            raise ValueError(f"not a derivation / not symplectic at order h^{k}: {exc}") from None
        b = b + FormalFunction.from_poly(bk, K, h_power=k)
        residual = B - star.ad_over_h(b)
    return b
