"""Sine-bracket truncation of 2D vorticity dynamics on the torus.

Structure-preserving spectral truncation, the algebraic construction of
its Nambu bracket (Killing form, quadratic Casimir, trilinear tensor),
four equivalent right-hand sides, conservative integrators, and a
verification suite for every identity involved, including the controlled
failure of the generalized Jacobi identity.
"""

__version__ = "0.1.0"

from .errors import ConsistencyError, StepConvergenceError, ValidationError
from .grid import (
    ModeField,
    TruncationGrid,
    WaveVector,
    build_grid,
    energy,
    enstrophy,
    from_physical,
    validate_reality,
)
from .functionals import (
    Functional,
    ModePolynomial,
    random_real_polynomial,
)
from .algebra import (
    ContinuumNambuTensor,
    DenseKillingForm,
    DenseNambuTensor,
    GenericAlgebra,
    JacobiViolation,
    KNOWN_JACOBI_VIOLATION,
    SineNambuTensor,
    ViolationTable,
    alpha_continuum,
    alpha_zeitlin,
    alpha_zeitlin_dense,
    construct_generic,
    dedupe_violations,
    gen_jacobi_terms,
    killing_bruteforce,
    killing_closed,
    lie_poisson_bracket,
    nambu_bracket,
    scan_gen_jacobi,
    support_nambu_bracket,
)
from .dynamics import (
    DiagnosticsRecord,
    IntegratorConfig,
    enstrophy_functional,
    enstrophy_gradient,
    hamiltonian_functional,
    hamiltonian_gradient,
    integrate,
    lift,
    lower,
    random_shell_field,
    rhs_fast,
    rhs_from_lie_poisson,
    rhs_naive,
    rhs_nambu,
    step,
)
from .verify import (
    CheckReport,
    format_reports,
    gen_jacobi_residual_known,
    run_convergence_study,
    run_counterexample,
    run_identity_suite,
    run_jacobi_scan,
)
from .serialization import (
    config_hash,
    load_generic_constants,
    load_physical_field,
    save_diagnostics,
    save_mode_field,
    save_violations,
    write_json,
    write_metadata,
)

from types import ModuleType as _ModuleType

# The names imported above, without the submodules those imports bind.
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
