"""Toolkit for designing and validating noise-protected dressed code spaces.

Workflow: test whether a signal generator escapes the relevant noise span
(:mod:`.criteria`), optimize the achievable signal and certify it with a
two-sided bound (:mod:`.sdp`), turn the optimizer into an explicit code pair
and engineered level structure (:mod:`.codespace`), derive the secular master
equation that structure induces (:mod:`.lindblad`), and verify the promised
precision scaling by direct integration (:mod:`.simulate`).  :mod:`.nv` wires
the pieces together for the spin-1 ground state of the NV center.
"""

__version__ = "0.1.0"

from .errors import NumericalError, ToolkitError, ValidationError
from .tolerances import TOL, Tolerances
from .operators import (
    HermitianOperator,
    OperatorSpan,
    ScalarField,
    StateVector,
    eigh_fixed,
    lift,
    orthonormal_span,
    positive_negative_split,
    project_decompose,
    spin_matrices,
)
from .criteria import (
    Criterion,
    CriterionReport,
    condition_by_name,
    hnls_condition,
    linear_span_condition,
    quadratic_span_condition,
)
from .sdp import (
    ConstructiveBound,
    DualSolution,
    SdpProblem,
    SdpSolution,
    constructive_bound,
    solve_dual,
    solve_primal,
)
from .lindblad import (
    BathSpectrum,
    LindbladSet,
    Regime,
    jump_operators,
    lamb_shift,
    spectrum_from_json,
    superoperator,
)
from .codespace import (
    CodeSpace,
    ConditionReport,
    check_conditions,
    code_from_optimizer,
    code_search,
    effective_generator,
    no_go_search,
    partial_trace,
    purify_pair,
    two_level_dressing,
)
from .simulate import (
    ProbeModel,
    QfiEstimate,
    ScalingRecord,
    SimConfig,
    Trajectory,
    crlb,
    evolve,
    fidelity,
    qfi_numeric,
    qfi_sld,
    scaling_sweep,
)
from .nv import (
    NO_GO_FLOOR,
    NvParams,
    VerdictCell,
    VerdictTable,
    nv_ancilla_code,
    nv_bare_code,
    nv_control_bx,
    nv_couplings,
    nv_dressed_basis,
    nv_dressed_hamiltonian,
    nv_hamiltonian,
    nv_verdict_table,
    protected_model,
    unprotected_model,
)

__all__ = [name for name in dir() if not name.startswith("_")]
