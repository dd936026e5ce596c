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
from .fock import FockCutoff, oscillator_psi
from .params import PhysicalParams
from .spinor import ModeIndex, SpinorState, basis_vector_c
from .ladders import (
    CartesianModeVector,
    SparseOperator,
    circular_mode,
    commutator_defect,
    dense_hamiltonian,
    eval_mode,
    factorization_defect_v0,
    ladder_matrices,
    subspace_closure_check,
)
from .coherent import (
    CoherentSpec,
    build_coherent,
    combined_state_defect,
    eigen_residual,
    resolution_identity_check,
)
from .levels import alpha, alpha_moduli, normalization_K, spectrum_table
from .pt import exceptional_diagnostics, factorization_defect
from .bicoherent import (
    BicoherentSpec,
    bicoherent_eigen_residual,
    build_bicoherent,
    normalization_N,
    quasi_basis_check,
)
from .densities import DensityField, GridSpec, density, export, gain_loss

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")] + ["cli_main"]


def __getattr__(name):
    # imported on first use, so `python -m lbstates.cli` runs a fresh module
    if name != "cli_main":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .cli import cli_main
    return cli_main
