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
    stream_function,
    to_physical,
    validate_reality,
)
from .functionals import (
    Functional,
    ModePolynomial,
    coordinate_functional,
    random_real_polynomial,
)
from .algebra import (
    ClosedKillingForm,
    ContinuumConstants,
    ContinuumNambuTensor,
    DenseKillingForm,
    DenseNambuTensor,
    GenericAlgebra,
    GenericConstants,
    JacobiViolation,
    KNOWN_JACOBI_VIOLATION,
    SineNambuTensor,
    ViolationTable,
    ZeitlinConstants,
    alpha_continuum,
    alpha_zeitlin,
    construct_generic,
    dedupe_violations,
    gen_jacobi_residual,
    gen_jacobi_terms,
    killing_bruteforce,
    killing_closed,
    lie_poisson_bracket,
    nambu_bracket,
    orthogonality_check,
    quadratic_casimir,
    scan_gen_jacobi,
    support_nambu_bracket,
)
from .dynamics import (
    DiagnosticsRecord,
    IntegratorConfig,
    SimState,
    enstrophy_functional,
    enstrophy_gradient,
    hamiltonian_functional,
    hamiltonian_gradient,
    integrate,
    random_shell_field,
    rhs_fast,
    rhs_from_lie_poisson,
    rhs_naive,
    rhs_nambu,
    shell_energies,
    single_pair_field,
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
    load_diagnostics,
    load_generic_constants,
    load_mode_field,
    load_physical_field,
    save_diagnostics,
    save_mode_field,
    save_physical_field,
    save_violations,
    write_json,
    write_metadata,
)

from types import ModuleType as _ModuleType

# The names imported above, without the submodules those imports bind.
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
