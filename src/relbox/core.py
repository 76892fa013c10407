"""Unit conventions, two-component spinor algebra, dispersion relations and
the spin-0 box quantization.

Everything is dimensionless: natural units hbar = c = m = 1, so lengths are
measured in Compton wavelengths, wavenumbers are k * lambda_C, and energies
are in units of the rest energy m c^2.  The only free parameters anywhere in
the library are the box side lengths in Compton units.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "MODELS",
    "BoxSpec",
    "QuantumNumbers",
    "FVSpinor",
    "ModeAmplitudes",
    "mode_amplitudes",
    "charge_conjugate",
    "dispersion",
    "kg_wavenumber_1d",
    "kg_wavenumbers_3d",
]

# The three dispersion models: spin-0 (``kg``), spin-1/2 (``dirac``) and the
# non-relativistic limit of spin-0 (``nonrel``).
MODELS = ("kg", "dirac", "nonrel")


class BoxSpec(namedtuple("BoxSpec", "lengths")):
    """Box geometry: side lengths divided by the Compton wavelength.

    One length for a 1D box, three for a 3D box.  All lengths must be
    strictly positive and finite.
    """

    __slots__ = ()

    def __new__(cls, lengths: tuple[float, ...]):
        lengths = tuple(_positive_finite("box lengths", v) for v in lengths)
        if len(lengths) not in (1, 3):
            raise ValueError(f"box must be 1D or 3D, got {len(lengths)} lengths")
        return super().__new__(cls, lengths)

    @classmethod
    def cube(cls, length: float, dim: int = 3) -> "BoxSpec":
        """Cubic (or 1D) box with every side equal to ``length``; ``dim`` 1 or 3."""
        if (dim := _integer("dim", dim)) not in (1, 3):
            raise ValueError(f"dim must be 1 or 3, got {dim}")
        return cls((length,) * dim)

    @property
    def dimension(self) -> int:
        return len(self.lengths)

    @property
    def is_cube(self) -> bool:
        return len(set(self.lengths)) == 1

    def volume(self) -> float:
        return math.prod(self.lengths)


def _integer(name: str, value, least: int = 1) -> int:
    """``value`` as an int if it is an integer >= ``least`` (an int, a numpy
    integer or an integral float such as 2.0), else ValueError naming the
    field and the value: 1.5, nan and inf are never truncated."""
    try:
        number = int(value)
        if number == value >= least:
            return number
    except (TypeError, ValueError, OverflowError):  # nan, inf, no number
        pass
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _positive_finite(name: str, value) -> float:
    """``value`` as a float if it is a number with 0 < value < inf, else
    ValueError naming the field and the value."""
    try:
        if 0.0 < value < math.inf:
            return float(value)
    except (TypeError, OverflowError):  # no number, an int past float64
        pass
    raise ValueError(f"{name} must be positive and finite, got {value!r}")


class QuantumNumbers(namedtuple("QuantumNumbers", "indices")):
    """Mode label: one quantum number per box axis, each an integer >= 1 (an
    int, a numpy integer or an integral float such as 2.0, kept as an int).
    Any other index (1.5, 0, nan, inf) is a ValueError, never truncated."""

    __slots__ = ()

    def __new__(cls, indices: tuple[int, ...]):
        indices = tuple(_integer("quantum number", v) for v in indices)
        if len(indices) not in (1, 3):
            raise ValueError(f"need 1 or 3 quantum numbers, got {len(indices)}")
        return super().__new__(cls, indices)

    @property
    def dimension(self) -> int:
        return len(self.indices)

    def check_matches(self, box: BoxSpec) -> None:
        if self.dimension != box.dimension:
            raise ValueError(
                f"{self.dimension} quantum numbers do not fit a {box.dimension}D box"
            )


class FVSpinor(namedtuple("FVSpinor", "upper lower")):
    """Two-component spinor (upper, lower) of the first-order spin-0 formalism."""

    __slots__ = ()


# Bound on |phi0^2 - chi0^2 - branch| in units of phi0^2 + chi0^2.
_IDENTITY_REL_TOL = 8 * math.ulp(1.0)


class ModeAmplitudes(namedtuple("ModeAmplitudes", "phi0 chi0 branch scaled_energy")):
    """Momentum-eigenmode amplitudes (phi0, chi0) on one energy branch.

    ``scaled_energy`` is E_p / mc^2 = sqrt(wavenumber^2 + 1) >= 1 and
    ``branch`` is +1 (particle) or -1 (antiparticle).  The pair always
    satisfies phi0^2 - chi0^2 = branch; construction checks that identity,
    to rounding relative to phi0^2 + chi0^2, and raises ValueError when it
    fails.
    """

    __slots__ = ()

    def __new__(cls, phi0: float, chi0: float, branch: int, scaled_energy: float):
        if branch not in (+1, -1):
            raise ValueError(f"branch must be +1 or -1, got {branch}")
        if not (scaled_energy >= 1.0):
            raise ValueError(f"scaled energy must be >= 1, got {scaled_energy}")
        # phi0^2 - chi0^2 cancels down to +-1 from squares that grow like the
        # wavenumber, so its rounding error scales with phi0^2 + chi0^2: about
        # 4 eps of it at worst from the operations in mode_amplitudes
        # (measured: at most 3.5 eps over wavenumbers 1e-8 .. 1e17).
        scale = phi0**2 + chi0**2
        if not (abs(phi0**2 - chi0**2 - branch) <= _IDENTITY_REL_TOL * scale):
            raise ValueError(
                f"phi0^2 - chi0^2 must equal the branch {branch}, got {phi0**2 - chi0**2}"
            )
        return super().__new__(cls, phi0, chi0, branch, scaled_energy)


def mode_amplitudes(wavenumber: float, branch: int) -> ModeAmplitudes:
    """Amplitudes (phi0, chi0) of a free momentum eigenmode.

    Parameters
    ----------
    wavenumber : dimensionless momentum magnitude |p| lambda_C / hbar, >= 0.
    branch : +1 for the positive-energy solution, -1 for the negative one.

    Returns
    -------
    ModeAmplitudes with

        phi0 = (branch * eps + 1) / (2 sqrt(eps))
        chi0 = (1 - branch * eps) / (2 sqrt(eps)),   eps = sqrt(wavenumber^2 + 1)

    so that phi0^2 - chi0^2 = branch exactly.
    """
    if not math.isfinite(wavenumber) or wavenumber < 0.0:
        raise ValueError(f"wavenumber must be finite and >= 0, got {wavenumber}")
    eps = math.hypot(wavenumber, 1.0)
    denom = 2.0 * math.sqrt(eps)
    phi0 = (branch * eps + 1.0) / denom
    chi0 = (1.0 - branch * eps) / denom
    return ModeAmplitudes(phi0=phi0, chi0=chi0, branch=branch, scaled_energy=eps)


def _norm_sq(wavenumbers) -> float:
    """|x|^2 as the exactly rounded sum of the squares; +inf where it overflows."""
    try:
        return math.fsum(x * x for x in wavenumbers)
    except OverflowError:  # finite squares whose sum overflows
        return math.inf


def dispersion(model: str, wavenumbers: tuple[float, ...]) -> float:
    """Scaled kinetic energy of a mode with the given wavenumbers: the
    cancellation-free sqrt(|x|^2 + 1) - 1 for ``kg`` and ``dirac``, |x|^2 / 2
    for ``nonrel``.  Where |x|^2 overflows both are +inf, above every finite
    cutoff."""
    norm_sq = _norm_sq(wavenumbers)
    if model in ("kg", "dirac"):
        return norm_sq / (math.sqrt(norm_sq + 1.0) + 1.0) if norm_sq < math.inf else norm_sq
    if model == "nonrel":
        return 0.5 * norm_sq
    raise ValueError(f"unknown model {model!r}")


def _spin0_wavenumber(n: int, length: float) -> float:
    """n pi / L, the spin-0 (node-at-the-wall) quantization of one axis."""
    return n * math.pi / length


def kg_wavenumber_1d(n: int, box_length: float) -> float:
    """Spin-0 box wavenumber n pi / L (node-at-the-wall quantization)."""
    n, box_length = _integer("quantum number", n), _positive_finite("box length", box_length)
    return _spin0_wavenumber(n, box_length)


def kg_wavenumbers_3d(qnums: QuantumNumbers, box: BoxSpec) -> tuple[float, float, float]:
    """Spin-0 wavenumbers n_i pi / L_i, one per axis."""
    if box.dimension != 3:
        raise ValueError(f"need a 3D box, got {box.dimension}D")
    qnums.check_matches(box)
    return tuple(map(_spin0_wavenumber, qnums.indices, box.lengths))


def charge_conjugate(spinor: FVSpinor) -> FVSpinor:
    """Swap-and-conjugate map turning particle into antiparticle solutions.

    Applying it twice is the identity; it flips the sign of the charge
    density and of the charge current.
    """
    return FVSpinor(
        upper=complex(spinor.lower).conjugate(),
        lower=complex(spinor.upper).conjugate(),
    )
