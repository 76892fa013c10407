"""Relativistic particle in a box: spin-0 (two-component first-order form)
versus spin-1/2 spectra, wavefunctions, charge densities and state counts.

Everything is dimensionless (natural units hbar = c = m = 1); the only free
parameters are the box side lengths in Compton-wavelength units.
"""

from .core import (
    BoxSpec,
    FVSpinor,
    ModeAmplitudes,
    QuantumNumbers,
    charge_conjugate,
    mode_amplitudes,
)
from .errors import CapacityError, ConvergenceError
from .rootfind import (
    dirac_wavenumber_1d,
    dirac_wavenumbers_3d,
    kg_wavenumber_1d,
    kg_wavenumbers_3d,
)
from .spectra import (
    MODELS,
    Level,
    SpectrumRequest,
    count_states,
    dispersion,
    enumerate_levels,
    level_1d,
    level_3d,
    spectrum_table,
)

__version__ = "0.1.0"

# Names of ``relbox.fields``, the one module that needs numpy: imported on
# first access (PEP 562), so spectra and counts start without numpy.
_FIELDS_NAMES = frozenset({
    "BoxState",
    "FieldGrid",
    "FieldSample",
    "GridSpec",
    "conjugated_state",
    "normalization_check",
    "stationarity_residual",
})


def __getattr__(name: str):
    if name in _FIELDS_NAMES:
        from . import fields

        return getattr(fields, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BoxSpec",
    "QuantumNumbers",
    "FVSpinor",
    "ModeAmplitudes",
    "mode_amplitudes",
    "charge_conjugate",
    "kg_wavenumber_1d",
    "dirac_wavenumber_1d",
    "kg_wavenumbers_3d",
    "dirac_wavenumbers_3d",
    "MODELS",
    "Level",
    "SpectrumRequest",
    "dispersion",
    "level_1d",
    "level_3d",
    "enumerate_levels",
    "count_states",
    "spectrum_table",
    "BoxState",
    "FieldGrid",
    "FieldSample",
    "GridSpec",
    "conjugated_state",
    "normalization_check",
    "stationarity_residual",
    "ConvergenceError",
    "CapacityError",
    "__version__",
]
