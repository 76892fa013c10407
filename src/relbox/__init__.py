"""Relativistic particle in a box: spin-0 (two-component first-order form)
versus spin-1/2 spectra, wavefunctions, charge densities and state counts.

Everything is dimensionless (natural units hbar = c = m = 1); the only free
parameters are the box side lengths in Compton-wavelength units.
"""

from . import core, errors, rootfind, spectra
from .core import *
from .errors import *
from .rootfind import *
from .spectra import *

__version__ = "0.1.0"

# Names of ``relbox.fields``, the one module that needs numpy: imported on
# first access (PEP 562), so spectra and counts start without numpy.
_FIELDS_NAMES = ("GridSpec", "FieldSample", "FieldGrid", "BoxState", "conjugated_state",
                 "normalization_check", "stationarity_residual")

__all__ = [*core.__all__, *errors.__all__, *rootfind.__all__, *spectra.__all__,
           *_FIELDS_NAMES, "__version__"]


def __getattr__(name: str):
    if name in _FIELDS_NAMES:
        from . import fields

        return getattr(fields, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
