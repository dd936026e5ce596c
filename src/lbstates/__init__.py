"""Coherent and bicoherent states for a graphene layer in a magnetic field,
with and without a PT-symmetric chemical potential, on truncated Fock
spaces."""

from .errors import (
    ContractError,
    CutoffError,
    ExceptionalPointError,
    LbError,
    ShapeError,
)
from .fock import (
    CartesianModeVector,
    FockCutoff,
    SparseOperator,
    circular_mode,
    eval_mode,
    ladder_matrices,
    oscillator_psi,
    vacuum_2d,
)
from .params import PhysicalParams
from .spinor import (
    ModeIndex,
    ModeWindow,
    SpinorState,
    apply_HK,
    basis_vector_c,
    dense_hamiltonian,
    energy,
)
from .ladders import (
    LadderKind,
    SubspaceTag,
    build_ladder,
    commutator_defect,
    factorization_defect_v0,
    quasi_vacua,
    subspace_closure_check,
)
from .coherent import (
    CoherentSpec,
    build_coherent,
    combined_state_defect,
    eigen_residual,
    resolution_identity_check,
)
from .levels import alpha, normalization_K
from .pt import (
    BiorthVector,
    LevelClass,
    apply_HV,
    build_biorth_pair,
    build_pt_ladders,
    classify_levels,
    eigenvalue_E,
    exceptional_diagnostics,
    factorization_defect,
    gain_loss_asymptotics,
    theta,
)
from .bicoherent import (
    BicoherentSpec,
    bicoherent_eigen_residual,
    build_bicoherent,
    convergence_certificate,
    normalization_N,
    quasi_basis_check,
    theta_factorial,
)
from .densities import DensityField, GainLossReport, GridSpec, density, export, gain_loss

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")] + ["cli_main"]


def __getattr__(name):
    # imported on first use, so `python -m lbstates.cli` runs a fresh module
    if name != "cli_main":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .cli import cli_main
    return cli_main
