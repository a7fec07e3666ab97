import importlib.util
import inspect
import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fedconn import multidiff, weylforms
from fedconn.weylforms import WeylContext
from fedconn.polynomials import mat, mat_inverse
from fedconn import (
    SymplecticData, ConnectionFamily, FedosovSetup, FamilyContext,
    Poly, WeylForm, LinearKahlerFamily, MultiDiffOp, parse_poly,
    trivialize_alpha, solve_s, connection_form, Scenario,
)


def series(roster, order, coeffs):
    """The formal function sum_k h^k coeffs[k], truncated at h^order, as the
    arity-0 operator that represents it."""
    return MultiDiffOp(roster, 0, order, {(k, ()): p for k, p in coeffs.items()})


def connection_from_T(sym, T):
    """Gamma^k_ij = pi^{kl} T_lij for a totally symmetric T given sparsely."""
    full = {}
    for (l, i, j), p in T.items():
        for perm in set(itertools.permutations((l, i, j))):
            full[perm] = p
    gamma = {}
    n = sym.dim
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                acc = Poly.zero(sym.roster)
                for l in range(n):
                    v = sym.pi[k][l]
                    if not v.is_zero() and (l, i, j) in full:
                        acc = acc + full[(l, i, j)].scale(v)
                if not acc.is_zero():
                    gamma[(k, i, j)] = acc
    return ConnectionFamily(sym, gamma)


def generated_curved_r4_scenario(tmp_path, seed=0):
    """The seeded curved R^4 scenario file of the benchmark (``perfbench/gen.py``)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    scenario = tmp_path / gen.NAME
    scenario.write_text(gen.curved_r4(seed), encoding="utf-8")
    return scenario


def generated_curved_r4(tmp_path):
    """The seeded curved R^4 scenario of the benchmark (seed 0) at h-order 2,
    truncation 6."""
    return Scenario.load(generated_curved_r4_scenario(tmp_path)).build_setup(6)


def pull_back(p, A):
    """p o phi for the linear map phi(x') = A x', with x' named as x."""
    roster, n = p.roster, len(A)
    images = [sum((Poly.var(roster, roster[j]).scale(A[i][j]) for j in range(n) if A[i][j]),
                  Poly.zero(roster)) for i in range(n)]
    out = Poly.zero(roster)
    for exps, c in p.coefficients().items():
        term = c.with_roster(roster)
        for image, e in zip(images, exps):
            term = term * image ** e
        out = out + term
    return out


def pulled_back_setup(sc, A, N):
    """The setup of the parameter-free scenario ``sc`` pulled back by
    phi(x') = A x': omega' = A^T omega A, Gamma^c_ab' = (A^-1)_ck
    (Gamma^k_ij o phi) A_ia A_jb and alpha' = phi^* alpha, at truncation N."""
    sym = sc.build_symplectic()
    n = sym.dim
    Ainv = [[v.as_scalar() for v in row] for row in mat_inverse(mat(A))]
    pairs = list(itertools.product(range(n), repeat=2))
    omega = [[sum(sym.omega[i][j] * A[i][a] * A[j][b] for i, j in pairs) for b in range(n)]
             for a in range(n)]
    gamma = sc.build_connection(sym).gamma
    gamma = {(c, a, b): sum((pull_back(g, A).scale(Ainv[c][k] * A[i][a] * A[j][b])
                             for (k, i, j), g in gamma.items()), Poly.zero(sym.roster))
             for c in range(n) for a, b in pairs}
    # alpha as antisymmetric matrices, one per h-power, pulled back entrywise
    entries = {}
    for (h, _, (i, j)), c in sc.build_alpha(sym, N).terms.items():
        entries[(h, i, j)], entries[(h, j, i)] = c, -c
    table = {}
    for (h, i, j), c in entries.items():
        for a, b in pairs:
            if a < b and A[i][a] * A[j][b]:
                table[(h, a, b)] = table.get((h, a, b), Poly.zero(sym.roster)) + \
                    pull_back(c, A).scale(A[i][a] * A[j][b])
    pulled = SymplecticData(omega)
    alpha = WeylForm.two_form(pulled, N, {k: c for k, c in table.items() if not c.is_zero()})
    return FedosovSetup(ConnectionFamily(pulled, gamma), alpha, trunc=N)


def pi_transposed(monkeypatch):
    """The pi mutant: pi read as omega transposed, right only where omega's
    inverse is its transpose, as on Darboux coordinates."""
    monkeypatch.setattr(weylforms, "mat_inverse", lambda a: [list(col) for col in zip(*a)])


def mw_without_second_order(monkeypatch):
    """The plain Moyal product without its second-order contraction, which is
    no longer associative.  Only the Weyl battery reads WeylForm.mw in full."""
    contractions, mw = WeylContext.contractions, WeylForm.mw

    def no_second_order(ctx, a1, a2, commutator, over_h):
        return tuple(order for order in contractions(ctx, a1, a2, commutator, over_h)
                     if order[0] != 2)

    def mutated(self, other, max_degree=None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(WeylContext, "contractions", no_second_order)
            return mw(self, other, max_degree)

    monkeypatch.setattr(WeylForm, "mw", mutated)


def lower_cap(monkeypatch, cls, name, caller, which=None):
    """Patch ``cls.name`` so that its ``max_degree`` is one lower when it is
    called from a function named ``caller`` (and ``which(frame, cap)`` holds)."""
    method = getattr(cls, name)
    signature = inspect.signature(method)

    def mutant(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        cap = bound.arguments.get("max_degree")
        frame = sys._getframe(1)
        if frame.f_code.co_name == caller and cap is not None and \
                (which is None or which(frame, cap)):
            bound.arguments["max_degree"] = cap - 1
        return method(*bound.args, **bound.kwargs)

    monkeypatch.setattr(cls, name, mutant)


def count_evaluations(monkeypatch):
    """The arity of each operator evaluation, from here on: each
    MultiDiffOp.apply call and each tuple value MultiDiffOp.basis_table
    computes, counted as its PolySums is made (one per tuple), so a whole
    block counts as soon as it is summed, whether or not its rows are read."""
    calls, running = [], []
    apply, basis_table = MultiDiffOp.apply, MultiDiffOp.basis_table

    def counting(self, *args):
        calls.append(self.arity)
        return apply(self, *args)

    class CountingSums(multidiff.PolySums):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            if running:
                calls.append(running[-1])

    def counting_table(self, degree):
        rows = basis_table(self, degree)
        while True:
            running.append(self.arity)
            try:
                row = next(rows)
            except StopIteration:
                return
            finally:
                running.pop()
            yield row

    monkeypatch.setattr(MultiDiffOp, "apply", counting)
    monkeypatch.setattr(MultiDiffOp, "basis_table", counting_table)
    monkeypatch.setattr(multidiff, "PolySums", CountingSums)
    return calls


class FamilyBundle:
    """A family with its trivialization, s-forms and connection form, built once."""

    def __init__(self, family):
        self.family = family
        self.beta = trivialize_alpha(family)
        self.s = {p: solve_s(family, self.beta, p) for p in family.params}
        self.A = connection_form(family, self.s)


@pytest.fixture(scope="session")
def sym2():
    return SymplecticData([[0, -1], [1, 0]])


@pytest.fixture(scope="session")
def sym4():
    return SymplecticData([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])


@pytest.fixture(scope="session")
def flat2(sym2):
    return ConnectionFamily(sym2)


@pytest.fixture(scope="session")
def curved_setup(sym2):
    """Curved R^2 setup: degree-1 Christoffels, h^1 and h^2 perturbation."""
    r = sym2.roster
    conn = connection_from_T(sym2, {(0, 0, 0): parse_poly("x2", r), (0, 0, 1): Poly.const(r, 1)})
    alpha = (
        WeylForm.omega_form(sym2, 8)
        + WeylForm.two_form(sym2, 8, {(1, 0, 1): parse_poly("x1", r)})
        + WeylForm.two_form(sym2, 8, {(2, 0, 1): Poly.const(r, 2)})
    )
    return FedosovSetup(conn, alpha, trunc=8)


@pytest.fixture(scope="session")
def bundle_f1(sym2, flat2):
    """Flat connection, alpha = omega + h t1 dx1^dx2: the running R^2 family."""
    alpha = WeylForm.omega_form(sym2, 8) + WeylForm.two_form(
        sym2, 8, {(1, 0, 1): parse_poly("t1", sym2.roster)}
    )
    return FamilyBundle(FamilyContext(flat2, alpha, ["t1"], order=3))


@pytest.fixture(scope="session")
def bundle_f2(sym2):
    """Curved t-dependent connection with h^1 + h^2 perturbation."""
    r = sym2.roster
    conn = connection_from_T(
        sym2, {(0, 0, 0): parse_poly("t1*x2", r), (0, 0, 1): parse_poly("t1", r)}
    )
    alpha = (
        WeylForm.omega_form(sym2, 8)
        + WeylForm.two_form(sym2, 8, {(1, 0, 1): parse_poly("(1+t1)*x1", r)})
        + WeylForm.two_form(sym2, 8, {(2, 0, 1): parse_poly("t1^2", r)})
    )
    return FamilyBundle(FamilyContext(conn, alpha, ["t1"], order=3))


@pytest.fixture(scope="session")
def bundle_f3(sym2):
    """Two-parameter family mixing connection and form dependence."""
    r = sym2.roster
    conn = connection_from_T(sym2, {(0, 0, 0): parse_poly("t2*x2", r)})
    alpha = (
        WeylForm.omega_form(sym2, 8)
        + WeylForm.two_form(sym2, 8, {(1, 0, 1): parse_poly("t1*x1 + t2*x2", r)})
        + WeylForm.two_form(sym2, 8, {(2, 0, 1): parse_poly("t1*t2", r)})
    )
    return FamilyBundle(FamilyContext(conn, alpha, ["t1", "t2"], order=3))


# -- linear Kahler families ---------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent

# the Kahler scenario rational in t1, with a pole at t1 = 0 away from its
# samples: its t denominators are what pp_gcd reduces, which no other shipped
# scenario reaches
RATIONAL_KAHLER = (ROOT / "scenarios" / "kahler_rational.scn").read_text(encoding="utf-8")


def pr(expr):
    """A t-only value: a Poly over the empty roster."""
    return parse_poly(expr, ())


@pytest.fixture(scope="module")
def shear2(sym2):
    """Polynomial shear family on R^2: I = [[-t1, 1+t1^2], [-1, t1]]."""
    return LinearKahlerFamily(
        sym2,
        [[pr("-t1"), pr("1+t1^2")], [pr("-1"), pr("t1")]],
        samples=[{"t1": 0}, {"t1": Fraction(1, 2)}, {"t1": -2}],
    )


@pytest.fixture(scope="module")
def rational2(sym2):
    """Rational family I = [[0, 1+t1], [-1/(1+t1), 0]]."""
    return LinearKahlerFamily(
        sym2,
        [[pr("0"), pr("1+t1")], [pr("-1/(1+t1)"), pr("0")]],
        samples=[{"t1": 0}, {"t1": Fraction(1, 3)}],
    )


@pytest.fixture(scope="module")
def block4(sym4):
    """R^4 family: two shear blocks driven by t1+t2 and t1*t2."""
    def shear(uexpr):
        u = pr(uexpr)
        return [[-u, u * u + 1], [pr("-1"), u]]

    B1, B2 = shear("t1 + t2"), shear("t1*t2")
    z = pr("0")
    I4 = [
        [B1[0][0], B1[0][1], z, z],
        [B1[1][0], B1[1][1], z, z],
        [z, z, B2[0][0], B2[0][1]],
        [z, z, B2[1][0], B2[1][1]],
    ]
    return LinearKahlerFamily(sym4, I4, samples=[{"t1": 0, "t2": 0}, {"t1": 1, "t2": Fraction(1, 2)}])
