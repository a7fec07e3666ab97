"""fedconn: exact Fedosov star products and formal connections on R^(2n).

Everything is computed in exact Gaussian-rational arithmetic, truncated in the
formal parameter h, and every constructive identity is machine-checked as an
exact equality of coefficients.
"""

from .scalars import Scalar
from .polynomials import (
    Poly, parse_poly, x_roster, monomials_up_to,
)
from .weylforms import WeylContext, WeylForm, omega_tilde, poincare_potential
from .symplectic import SymplecticData, ConnectionFamily
from .fedosov import FedosovSetup, NotAbelianError, taylor_flat_section, validate_star_axioms
from .multidiff import MultiDiffOp, moyal_star, is_derivation, inner_potential
from .families import (
    FamilyContext, TrivializationBeta, ConnectionOneForm, SolvabilityError,
    trivialize_alpha, solve_s, connection_form, verify_compatibility,
    lowest_order_identity, verify_curvature, derivation_identity, curvature_ops,
)
from .transport import (
    parallel_transport, invert, conjugation_check, gauge_equivalence,
    self_equivalence_check, flatness_check, GaugeError,
)
from .kahler import (
    LinearKahlerFamily, verify_lemma_vc1, order1_hitchin_check,
    rigidity_check, rigidity_report,
)
from .scenario import Scenario, ScenarioError
from .reports import Report, Check, CheckError

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
