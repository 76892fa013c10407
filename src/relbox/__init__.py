"""Relativistic particle in a box: spin-0 (two-component first-order form)
versus spin-1/2 spectra, wavefunctions, charge densities and state counts.

Everything is dimensionless (natural units hbar = c = m = 1); the only free
parameters are the box side lengths in Compton-wavelength units.
"""

from . import core, errors
from .core import *
from .errors import *

__version__ = "0.1.0"

# The names of the submodules that are imported on first access (PEP 562),
# and each one's ``__all__``: ``fields`` needs numpy, and ``field`` runs
# neither the root solvers nor the level tables, so a process compiles only
# the modules its command uses.
_LAZY_NAMES = {
    "rootfind": ("kg_wavenumber_1d", "dirac_wavenumber_1d", "kg_wavenumbers_3d",
                 "dirac_wavenumbers_3d"),
    "spectra": ("Level", "SpectrumRequest", "level_1d", "level_3d", "enumerate_levels",
                "count_states", "spectrum_table"),
    "fields": ("GridSpec", "FieldSample", "FieldGrid", "BoxState", "conjugated_state",
               "normalization_check", "stationarity_residual"),
}

__all__ = [*core.__all__, *errors.__all__, *sum(_LAZY_NAMES.values(), ()), "__version__"]


def __getattr__(name: str):
    for module, names in _LAZY_NAMES.items():
        if name == module or name in names:
            from importlib import import_module

            found = import_module(f"{__name__}.{module}")
            return found if name == module else getattr(found, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
