"""The lazy cochain layer, kept as a reference for the explicit operators.

A ``Cochain`` is evaluated on arguments; ``gerstenhaber`` brackets two of
them by evaluating both nested compositions, and ``materialize`` rebuilds a
``MultiDiffOp`` from its values on a monomial basis by a triangular solve
(``operator_from_values``).  The program forms the same bracket as an
explicit operator (``MultiDiffOp.bracket``); the tests compare the two.

The Gerstenhaber bracket follows the double-sum sign rule: for psi of arity
r+1 and phi of arity s+1,

    [psi, phi](a_0..a_{r+s}) =
        sum_{i=0..r} (-1)^{is} psi(.., phi(a_i..a_{i+s}), ..)
      - (-1)^{rs} sum_{j=0..s} (-1)^{jr} phi(.., psi(a_j..a_{j+r}), ..)

and the Hochschild differential of a star m, an arity-2 operator, is
d_H(phi) = [m, phi].
"""

import itertools
import math
from fractions import Fraction

from fedconn.polynomials import Poly, exponents_up_to
from fedconn.multidiff import MultiDiffOp, _falling, _sub_multiindices


class ReconstructionError(AssertionError):
    """An operator rebuilt by ``operator_from_callable`` disagrees with its
    callable on a probe past the declared differential-order bound.  The
    message names the probe and the h-order."""


def operator_from_values(roster, arity, order, slot_bound, values) -> MultiDiffOp:
    """Triangular solve: values maps tuples of exponent keys to formal
    functions, arity-0 operators.

    ``slot_bound(k)`` bounds the differential order of the h^k layer; values
    must cover all argument tuples of monomials with degree <= max bound.
    The subtraction step enumerates componentwise sub-multi-indices directly,
    which keeps the solve fast on larger bases.
    """
    roster = tuple(roster)
    bounds = [slot_bound(k) for k in range(order + 1)]
    terms = {}
    for k in range(order + 1):
        d = bounds[k]
        keys = exponents_up_to(len(roster), d)
        solved = {}
        for A in sorted(_tuples_of(keys, arity), key=lambda tt: sum(sum(s) for s in tt)):
            val = values[A].poly(k)
            for B in itertools.product(*(list(_sub_multiindices(a)) for a in A)):
                if B == A:
                    continue
                DB = solved.get(B)
                if DB is None:
                    continue
                factor = 1
                mono = []
                for a, b in zip(A, B):
                    factor *= _falling(a, b)
                    mono.append(tuple(ea - eb for ea, eb in zip(a, b)))
                total = tuple(sum(col) for col in zip(*mono))
                val = val - (DB * Poly.monomial(roster, total, factor))
            fact = 1
            for a in A:
                for e in a:
                    fact *= math.factorial(e)
            D = val.scale(Fraction(1, fact)) if fact != 1 else val
            if not D.is_zero():
                solved[A] = D
        for A, D in solved.items():
            terms[(k, A)] = D
    return MultiDiffOp(roster, arity, order, terms)


def _tuples_of(keys, arity):
    if arity == 1:
        for a in keys:
            yield (a,)
        return
    for rest in _tuples_of(keys, arity - 1):
        for a in keys:
            yield (a,) + rest


def operator_from_callable(fn, roster, arity, order, slot_bound) -> MultiDiffOp:
    """Materialize an operator from an evaluation callable.

    The reconstruction is verified on a handful of extra monomials one degree
    past the declared bound, so an understated bound fails loudly instead of
    silently producing the wrong operator.
    """
    roster = tuple(roster)
    bound = max(slot_bound(k) for k in range(order + 1))
    keys = exponents_up_to(len(roster), bound)
    values = {}
    for A in _tuples_of(keys, arity):
        args = [Poly.monomial(roster, a) for a in A]
        values[A] = fn(*args)
    op = operator_from_values(roster, arity, order, slot_bound, values)
    probe = exponents_up_to(len(roster), bound + 1)[-len(roster):]
    for a in probe:
        args = [Poly.monomial(roster, a)] * arity
        diff = op.apply(*args) - fn(*args)
        if not diff.is_zero():
            raise ReconstructionError(
                f"the operator rebuilt to slot order {bound} differs from its values on "
                f"({', '.join(map(str, args))}) at h^{min(diff.terms)[0]}")
    return op


class Cochain:
    """A lazily evaluated multilinear cochain (for nested brackets)."""

    def __init__(self, arity: int, fn, order: int, slot_bound=None):
        self.arity = arity
        self.fn = fn
        self.order = order
        self.slot_bound = slot_bound

    def apply(self, *args):
        return self.fn(*args)

    def __call__(self, *args):
        return self.fn(*args)


def _as_cochain(op):
    if isinstance(op, MultiDiffOp):
        return Cochain(op.arity, op.apply, op.order, lambda k: op.slot_order())
    if isinstance(op, Cochain):
        return op
    raise TypeError(f"not a cochain: {op!r}")


def gerstenhaber(psi, phi) -> Cochain:
    """The Gerstenhaber bracket [psi, phi]_G as a lazy cochain."""
    psi = _as_cochain(psi)
    phi = _as_cochain(phi)
    r = psi.arity - 1
    s = phi.arity - 1
    arity = r + s + 1
    order = min(psi.order, phi.order)

    def apply(*args):
        if len(args) != arity:
            raise ValueError(f"expected {arity} arguments")
        out = None
        for i in range(r + 1):
            inner = phi(*args[i:i + s + 1])
            term = psi(*args[:i], inner, *args[i + s + 1:])
            if i * s % 2:
                term = -term
            out = term if out is None else out + term
        for j in range(s + 1):
            inner = psi(*args[j:j + r + 1])
            term = phi(*args[:j], inner, *args[j + r + 1:])
            if (r * s + j * r) % 2:
                term = -term
            out = out - term
        return out.truncate(order)

    bound = None
    if psi.slot_bound and phi.slot_bound:
        bound = lambda k: psi.slot_bound(k) + phi.slot_bound(k)
    return Cochain(arity, apply, order, bound)


def hochschild_d(phi, star: MultiDiffOp) -> Cochain:
    """d_H(phi) = [star, phi]_G relative to the (truncated) star product."""
    return gerstenhaber(star, phi)


def materialize(cochain: Cochain, roster, slot_bound=None) -> MultiDiffOp:
    bound = slot_bound or cochain.slot_bound
    if bound is None:
        raise ValueError("no differential-order bound available for materialization")
    return operator_from_callable(cochain.apply, roster, cochain.arity, cochain.order, bound)
