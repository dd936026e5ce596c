"""Coherent and bicoherent states for a graphene layer in a magnetic field,
with and without a PT-symmetric chemical potential, on truncated Fock
spaces.  The root exports the command path's entry points only; every
other name, the sparse oracle (`ladders`, `pt`, `checks`) included, is
imported from its module."""

from .errors import ContractError, CutoffError, ExceptionalPointError, LbError, ShapeError
from .fock import FockCutoff
from .params import PhysicalParams
from .coherent import CoherentSpec, build_coherent
from .bicoherent import BicoherentSpec, build_bicoherent
from .densities import GridSpec, density, export

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")] + ["cli_main"]


def __getattr__(name):
    # imported on first use, so `python -m lbstates.cli` runs a fresh module
    if name != "cli_main":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .cli import cli_main
    return cli_main
