"""Scenario files: a line-oriented key-value format with the polynomial grammar.

Example::

    # one-parameter curved family on R^2
    dimension = 2
    params = 1
    order = 3
    basis_degree = 2
    seed = 7

    omega = [[0, -1], [1, 0]]

    Gamma[2][1][1] = t1*x2
    alpha[1][1][2] = (1+t1)*x1
    alpha[2][1][2] = t1^2

    beta = auto
    gauge_shift[t1][1][1] = 2*x1*x2
    gauge_shift[t1][1][2] = x1^2

    I[1][2] = 1 + t1
    I[2][1] = -1/(1+t1)
    F = t1*x1^2*x2
    samples = t1=0 ; t1=1/2

All indices are 1-based.  ``alpha[k][i][j]`` gives the h^k coefficient of
dx^i wedge dx^j (i < j); the h^0 layer is always the symplectic form itself
and is not written.  ``beta[tj][k][i]`` gives the h^k dx^i coefficient of the
direction-tj component; ``gauge_shift`` uses the same scheme and must be
closed.  As the file is read, every expression is parsed, every index checked
against ``dimension`` and every parameter, in directions, expressions and
``samples`` alike, against ``t1`` .. ``t<params>``; errors carry their line.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .polynomials import Poly, parse_poly, ExprError, is_param_name, x_roster
from .weylforms import WeylForm
from .symplectic import SymplecticData, ConnectionFamily
from .fedosov import FedosovSetup
from .families import FamilyContext, TrivializationBeta, trivialize_alpha
from .kahler import LinearKahlerFamily


class ScenarioError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)((?:\[[^\]]+\])*)$")


def _parse_key(text, lineno):
    m = _KEY_RE.match(text.strip())
    if not m:
        raise ScenarioError(f"malformed key {text!r}", lineno)
    name = m.group(1)
    idx = re.findall(r"\[([^\]]+)\]", m.group(2))
    return name, [s.strip() for s in idx]


def _parse_matrix(text, lineno):
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise ScenarioError("matrix literal must look like [[a, b], [c, d]]", lineno)
    rows = []
    for row_text in re.findall(r"\[([^\[\]]*)\]", text):
        row = []
        for cell in row_text.split(","):
            cell = cell.strip()
            if not cell:
                continue
            try:
                p = parse_poly(cell, ())
            except ExprError as exc:
                raise ScenarioError(f"bad matrix entry: {exc}", lineno) from None
            if p.param_variables():
                raise ScenarioError("matrix entry must be a constant", lineno)
            row.append(p.as_scalar())
        rows.append(row)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ScenarioError("matrix literal must be square", lineno)
    return rows


def _parse_samples(text, lineno):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        point = {}
        for assign in chunk.split(","):
            assign = assign.strip()
            if "=" not in assign:
                raise ScenarioError(f"sample point entry {assign!r} needs name=value", lineno)
            name, val = (s.strip() for s in assign.split("=", 1))
            if not is_param_name(name):
                raise ScenarioError(f"{name!r} is not a parameter name", lineno)
            try:
                point[name] = Fraction(val)
            except (ValueError, ZeroDivisionError):
                raise ScenarioError(f"bad rational {val!r}", lineno) from None
        out.append(point)
    return out


class Scenario:
    """Parsed scenario; build_* methods assemble validated module inputs."""

    def __init__(self):
        self.dimension = None
        self.params = 0
        self.order = 3
        self.basis_degree = 2
        self.seed = 0
        self.omega = None
        # each expression is (text, line) as read, and its Poly once parsed
        self.gamma = {}        # (k, i, j) 0-based -> expression
        self.alpha = {}        # (h, i, j) 0-based, i < j -> expression
        self.beta_mode = "auto"
        self.beta = {}         # (direction, h, i) -> expression
        self.gauge_shift = {}  # (direction, h, i) -> expression
        self.I_entries = {}    # (a, b) 0-based -> expression, constant in x
        self.F = None
        self.samples = ([], None)  # (points, line)

    # -- parsing --------------------------------------------------------------

    @staticmethod
    def parse(text: str) -> "Scenario":
        sc = Scenario()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ScenarioError("expected key = value", lineno)
            key_text, value = (s.strip() for s in line.split("=", 1))
            name, idx = _parse_key(key_text, lineno)
            sc._assign(name, idx, value, lineno)
        sc._finalize()
        return sc

    @staticmethod
    def load(path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return Scenario.parse(fh.read())

    def _int(self, value, lineno, what):
        try:
            return int(value)
        except ValueError:
            raise ScenarioError(f"{what} must be an integer, got {value!r}", lineno) from None

    def _assign(self, name, idx, value, lineno):
        if name == "dimension":
            self.dimension = self._int(value, lineno, "dimension")
        elif name == "params":
            self.params = self._int(value, lineno, "params")
            if self.params < 0:
                raise ScenarioError(f"params must be >= 0, got {self.params}", lineno)
        elif name in ("order", "basis_degree"):
            v = self._int(value, lineno, name)
            if v < 1:
                raise ScenarioError(f"{name} must be >= 1, got {v}", lineno)
            setattr(self, name, v)
        elif name == "seed":
            self.seed = self._int(value, lineno, "seed")
        elif name == "omega":
            self.omega = _parse_matrix(value, lineno)
        elif name == "samples":
            self.samples = (_parse_samples(value, lineno), lineno)
        elif name == "F":
            self.F = (value, lineno)
        elif name == "beta" and not idx:
            if value != "auto":
                raise ScenarioError("beta without indices must be 'auto'", lineno)
            self.beta_mode = "auto"
        elif name == "Gamma":
            if len(idx) != 3:
                raise ScenarioError("Gamma needs three indices Gamma[k][i][j]", lineno)
            k, i, j = (self._int(v, lineno, "Gamma index") - 1 for v in idx)
            self.gamma[(k, i, j)] = (value, lineno)
        elif name == "alpha":
            if len(idx) != 3:
                raise ScenarioError("alpha needs indices alpha[h][i][j]", lineno)
            h = self._int(idx[0], lineno, "alpha h-power")
            i = self._int(idx[1], lineno, "alpha index") - 1
            j = self._int(idx[2], lineno, "alpha index") - 1
            if h < 1:
                raise ScenarioError("alpha entries start at h^1; h^0 is omega", lineno)
            if not i < j:
                raise ScenarioError("alpha needs i < j", lineno)
            self.alpha[(h, i, j)] = (value, lineno)
        elif name in ("beta", "gauge_shift"):
            if len(idx) != 3:
                raise ScenarioError(f"{name} needs indices {name}[tj][k][i]", lineno)
            direction = idx[0]
            if not is_param_name(direction):
                raise ScenarioError(f"{direction!r} is not a parameter direction", lineno)
            h = self._int(idx[1], lineno, "h-power")
            i = self._int(idx[2], lineno, "dx index") - 1
            table = self.beta if name == "beta" else self.gauge_shift
            table[(direction, h, i)] = (value, lineno)
            if name == "beta":
                self.beta_mode = "explicit"
        elif name == "I":
            if len(idx) != 2:
                raise ScenarioError("I needs two indices I[a][b]", lineno)
            a = self._int(idx[0], lineno, "I index") - 1
            b = self._int(idx[1], lineno, "I index") - 1
            self.I_entries[(a, b)] = (value, lineno)
        else:
            raise ScenarioError(f"unknown key {name!r}", lineno)

    def _finalize(self):
        if self.dimension is None:
            raise ScenarioError("missing 'dimension'")
        if self.dimension % 2 or self.dimension <= 0:
            raise ScenarioError("dimension must be a positive even integer")
        if self.omega is None:
            raise ScenarioError("missing 'omega'")
        if len(self.omega) != self.dimension:
            raise ScenarioError("omega has the wrong dimension")
        n = self.dimension
        for (k, i, j), (_, lineno) in self.gamma.items():
            if not all(0 <= m < n for m in (k, i, j)):
                raise ScenarioError("Gamma index out of range", lineno)
        for (_, i, j), (_, lineno) in self.alpha.items():
            if not 0 <= i < j < n:
                raise ScenarioError("alpha index out of range", lineno)
        for name, table in (("beta", self.beta), ("gauge_shift", self.gauge_shift)):
            for (direction, _, i), (_, lineno) in table.items():
                if direction not in self.param_names:
                    raise ScenarioError(
                        f"{name} has no direction {direction}: params = {self.params}", lineno)
                if not 0 <= i < n:
                    raise ScenarioError("dx index out of range", lineno)
        for (a, b), (_, lineno) in self.I_entries.items():
            if not (0 <= a < n and 0 <= b < n):
                raise ScenarioError("I index out of range", lineno)
        gamma_lines = {key: lineno for key, (_, lineno) in self.gamma.items()}
        x = x_roster(n)
        for what, table, roster in (("Gamma", self.gamma, x), ("alpha", self.alpha, x),
                                    ("beta", self.beta, x), ("gauge_shift", self.gauge_shift, x),
                                    ("I", self.I_entries, ())):
            for key, entry in table.items():
                table[key] = self._expression(what, entry, roster)
        # the (i,j) symmetry, as ConnectionFamily checks it (an entry stated
        # as 0 must match its mirror too), reported at the later of the two lines
        for (k, i, j), p in self.gamma.items():
            q = self.gamma.get((k, j, i))
            if q is not None and gamma_lines[k, i, j] > gamma_lines[k, j, i] and p != q:
                raise ScenarioError(f"Gamma^{k+1}_{{{i+1},{j+1}}} breaks the (i,j) symmetry",
                                    gamma_lines[k, i, j])
        if self.F is not None:
            self.F = self._expression("F", self.F, x)
        points, lineno = self.samples
        for point in points:
            for name in point:
                self._require_param("samples", name, lineno)

    def _require_param(self, what, name, lineno):
        if name not in self.param_names:
            raise ScenarioError(f"{what} has no parameter {name}: params = {self.params}", lineno)

    def _expression(self, what, entry, roster) -> Poly:
        text, lineno = entry
        try:
            p = parse_poly(text, roster)
        except ExprError as exc:
            raise ScenarioError(str(exc), lineno) from None
        for name in sorted(p.param_variables()):
            self._require_param(what, name, lineno)
        return p

    # -- assembly ----------------------------------------------------------------

    @property
    def param_names(self):
        return tuple(f"t{i}" for i in range(1, self.params + 1))

    def build_symplectic(self) -> SymplecticData:
        try:
            return SymplecticData(self.omega)
        except ValueError as exc:
            raise ScenarioError(f"bad omega: {exc}") from None

    def build_connection(self, sym: SymplecticData) -> ConnectionFamily:
        return ConnectionFamily(sym, self.gamma)

    def build_alpha(self, sym: SymplecticData, trunc: int) -> WeylForm:
        alpha = WeylForm.omega_form(sym, trunc)
        if self.alpha:
            alpha = alpha + WeylForm.two_form(sym, trunc, self.alpha)
        return alpha

    def build_setup(self, trunc: int) -> FedosovSetup:
        """The Fedosov setup at truncation ``trunc``, which the caller derives
        from its h-order: ``r`` is solved and checked to total degree
        ``trunc - 1``."""
        sym = self.build_symplectic()
        return FedosovSetup(self.build_connection(sym), self.build_alpha(sym, trunc),
                            trunc=trunc)

    def build_family(self) -> FamilyContext:
        if self.params < 1:
            raise ScenarioError("this command needs 'params >= 1'")
        sym = self.build_symplectic()
        # alpha at the family's truncation, 2K + 2
        return FamilyContext(self.build_connection(sym),
                             self.build_alpha(sym, 2 * self.order + 2), self.param_names,
                             self.order)

    def _one_form_table(self, family, table) -> dict:
        sym = family.sym
        forms = {}
        for p in family.params:
            entries = {(h, (0,) * self.dimension, (i,)): c
                       for (direction, h, i), c in table.items() if direction == p}
            forms[p] = WeylForm(sym, family.trunc, entries)
        return forms

    def build_beta(self, family: FamilyContext) -> TrivializationBeta:
        if self.beta_mode == "auto":
            return trivialize_alpha(family)
        return TrivializationBeta(family, self._one_form_table(family, self.beta),
                                  provenance="explicit")

    def build_gauge_pair(self, family: FamilyContext):
        if not self.gauge_shift:
            raise ScenarioError("the gauge command needs gauge_shift entries")
        base = self.build_beta(family)
        shifts = self._one_form_table(family, self.gauge_shift)
        second = base
        for p, form in shifts.items():
            if form.is_zero():
                continue
            if not form.d_x().is_zero():
                raise ScenarioError(f"gauge_shift for {p} must be closed in x")
            second = second.shifted_by_closed(p, form)
        return base, second

    def build_kahler(self) -> LinearKahlerFamily:
        if not self.I_entries:
            raise ScenarioError("the kahler command needs I[a][b] entries")
        sym = self.build_symplectic()
        n = self.dimension
        rows = [[self.I_entries.get((a, b), Poly.zero(())) for b in range(n)] for a in range(n)]
        try:
            return LinearKahlerFamily(sym, rows, samples=self.samples[0])
        except ValueError as exc:
            raise ScenarioError(f"bad Kahler family: {exc}") from None

    def build_F(self, sym) -> Poly:
        return Poly.zero(sym.roster) if self.F is None else self.F
