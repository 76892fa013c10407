"""Box eigenstate wavefunctions, charge density/current and their checks.

A box state is a standing-wave product of sines carrying the two-component
amplitudes of :func:`relbox.core.mode_amplitudes` and the stationary phase
exp(-i E t).  Positions are in Compton units inside the closed box, times in
units of hbar / mc^2.  The spinor vanishes identically on every box face
(enforced exactly, not just to rounding), the charge current is zero
everywhere, and the charge integrates to +1 (-1 after charge conjugation).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

import numpy as np

from . import _LAZY_NAMES
from .core import (
    BoxSpec, FVSpinor, ModeAmplitudes, QuantumNumbers, _integer, _norm_sq, _spin0_wavenumber,
    mode_amplitudes,
)
from .errors import CapacityError

__all__ = list(_LAZY_NAMES["fields"])


class GridSpec(namedtuple("GridSpec", "points_per_axis")):
    """Uniform sampling grid of the closed box: points per axis, faces
    included, an integer >= 3."""

    __slots__ = ()

    def __new__(cls, points_per_axis: int):
        return super().__new__(cls, _integer("points_per_axis", points_per_axis, least=3))

    def axes(self, box: BoxSpec) -> tuple[np.ndarray, ...]:
        """Coordinates of the grid along each box axis, both faces included."""
        return tuple(np.linspace(0.0, length, self.points_per_axis) for length in box.lengths)

    def resolves(self, qnums: QuantumNumbers) -> bool:
        """Whether every axis has more than two grid intervals per half-wavelength.

        The charge density sin^2(n pi x / L) has period L / n.  With at most
        two intervals per half-wavelength (points - 1 <= 2 n) Simpson's rule
        aliases it: n = 100 on 201 points integrates to 4/3, n = 200 to ~0.
        """
        return self.points_per_axis - 1 > 2 * max(qnums.indices)


class FieldSample(namedtuple("FieldSample", "position time spinor rho current")):
    """Field values at one spacetime point: spinor, charge density, current."""

    __slots__ = ()


class BoxState(namedtuple("BoxState", "box qnums conjugated")):
    """Descriptor of one box eigenstate on the positive-energy branch, or charge
    conjugated onto the negative one (flipping energy, density and current).
    CapacityError where |x|^2 or 2^d / volume leaves the float64 range."""

    __slots__ = ()

    def __new__(cls, box: BoxSpec, qnums: QuantumNumbers, conjugated: bool = False):
        qnums.check_matches(box)
        state = super().__new__(cls, box, qnums, conjugated)
        if _norm_sq(state.wavenumbers) == math.inf:
            raise CapacityError(f"|x|^2 of {qnums.indices} in box {box.lengths} overflows float64")
        volume = box.volume()
        if not 0.0 < (2.0 ** box.dimension / volume if volume else math.inf) < math.inf:
            raise CapacityError(f"2^d / volume of box {box.lengths} is outside the float64 range")
        return state

    @property
    def wavenumbers(self) -> tuple[float, ...]:
        return tuple(map(_spin0_wavenumber, self.qnums.indices, self.box.lengths))

    @property
    def scaled_energy(self) -> float:
        """Signed energy in units of mc^2: +eps for the particle state,
        -eps for its charge conjugate."""
        mode = self._mode()
        return mode.branch * mode.scaled_energy

    def _mode(self) -> ModeAmplitudes:
        return mode_amplitudes(math.sqrt(_norm_sq(self.wavenumbers)), -1 if self.conjugated else +1)

    def amplitudes(self) -> tuple[float, float]:
        """(upper, lower) spatial amplitudes in front of the sine profile."""
        return self._mode()[:2]

    def prefactor(self) -> float:
        """Normalization sqrt(2^d / V)."""
        return math.sqrt(2.0 ** self.box.dimension / self.box.volume())

    def evaluate(self, axes, time: float = 0.0) -> FieldGrid:
        """Evaluate the state on the tensor grid spanned by per-axis coordinates.

        ``axes`` holds one coordinate array per box axis, each inside the
        closed box.  The profile, amplitudes, prefactor and phase are formed
        once; every point is a product of per-axis sines.
        """
        axes = tuple(np.asarray(a, dtype=float).reshape(-1) for a in axes)
        dim = self.box.dimension
        if len(axes) != dim:
            raise ValueError(f"got {len(axes)} coordinate axes, box is {dim}D")
        for coords, length in zip(axes, self.box.lengths):
            if not np.all((coords >= 0.0) & (coords <= length)):
                raise ValueError(f"coordinates {coords} outside the closed box [0, {length}]")
        sines = _sine_profiles(self, axes)
        phase = cmath.exp(-1j * self.scaled_energy * time)
        profile = _outer(sines)
        upper, lower = (component * phase for component in _components(self, profile))
        # Charge current from psi = upper + lower: J_k = Im(conj(psi) d_k psi).
        psi_conj = np.conj(_component_sum(self, profile) * phase)
        current = []
        for k, x in enumerate(self.wavenumbers):
            factors = list(sines)
            factors[k] = x * np.cos(x * axes[k])
            dpsi = _component_sum(self, _outer(factors)) * phase
            current.append(_unsigned((psi_conj * dpsi).imag))
        return FieldGrid(
            axes=axes,
            time=float(time),
            upper=_unsigned(upper),
            lower=_unsigned(lower),
            rho=_density(self, sines),
            current=tuple(current),
        )

    def sample(self, position, time: float = 0.0) -> FieldSample:
        """Evaluate the state at one point inside the closed box: the array
        evaluation on a one-point grid."""
        pos = tuple(float(v) for v in position)
        values = self.evaluate([(v,) for v in pos], time)
        at = (0,) * len(pos)
        return FieldSample(
            position=pos,
            time=values.time,
            spinor=FVSpinor(upper=complex(values.upper[at]), lower=complex(values.lower[at])),
            rho=float(values.rho[at]),
            current=tuple(float(j[at]) for j in values.current),
        )


class FieldGrid(namedtuple("FieldGrid", "axes time upper lower rho current")):
    """Field values on the tensor grid of ``axes``: spinor components, charge
    density and current components as arrays of shape
    ``(len(axes[0]), ..., len(axes[-1]))``, C order (last axis fastest).
    Zeros are +0.0, never -0.0."""

    __slots__ = ()


def _outer(factors) -> np.ndarray:
    """Tensor product of per-axis factors, multiplied in axis order."""
    out = factors[0]
    for factor in factors[1:]:
        out = np.multiply.outer(out, factor)
    return out


def _components(state: BoxState, profile) -> tuple[np.ndarray, np.ndarray]:
    """(upper, lower) on ``profile``: prefactor times amplitude times it."""
    return tuple(state.prefactor() * amplitude * profile for amplitude in state.amplitudes())


def _component_sum(state: BoxState, profile) -> np.ndarray:
    """upper + lower on ``profile``: prefactor (phi0 + chi0) times it, with
    phi0 + chi0 = 1 / sqrt(|E|) for a conjugated state too.  Adding the two
    amplitudes would cancel at large wavenumbers, where each grows like
    sqrt(|E|) and their sum rounds to 0."""
    return state.prefactor() / math.sqrt(abs(state.scaled_energy)) * profile


def _density(state: BoxState, profiles, box_units: bool = False) -> np.ndarray:
    """Charge density on the tensor grid of per-axis sine ``profiles``.

    By the amplitude identity ``|upper|^2 - |lower|^2 = ±prefactor^2`` times
    the squared profile, the sign being that of the charge; forming the
    difference itself would cancel at large wavenumbers, where both squares
    grow like the wavenumber.  ``box_units``: the density times the volume,
    ±2^d times the squared profile.
    """
    scale = 2.0 ** state.box.dimension if box_units else state.prefactor() ** 2
    scale *= state._mode().branch
    return _unsigned(scale * _outer([p**2 for p in profiles]))


def _unsigned(arr: np.ndarray) -> np.ndarray:
    # Adding +0.0 turns the -0.0 left by sign-carrying products with exact
    # zeros into +0.0 and leaves every other value as it is.
    return arr + 0.0


def conjugated_state(state: BoxState) -> BoxState:
    """Pointwise charge conjugate of a box state (an involution)."""
    return BoxState(state.box, state.qnums, not state.conjugated)


def _simpson_weights(npoints: int) -> np.ndarray:
    """Composite Simpson weights on npoints uniform samples of [0, 1]."""
    if npoints < 3 or npoints % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd point count >= 3, got {npoints}")
    h = 1.0 / (npoints - 1)
    w = np.ones(npoints)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _sine_profiles(state: BoxState, axes) -> list[np.ndarray]:
    """sin(x_i r) along each axis, exactly zero on the box faces (sin(n pi)
    in floats is only approximately 0)."""
    profiles = []
    for x, coords, length in zip(state.wavenumbers, axes, state.box.lengths):
        s = np.sin(x * coords)
        s[(coords == 0.0) | (coords == length)] = 0.0
        profiles.append(s)
    return profiles


def normalization_check(state: BoxState, grid: GridSpec) -> float:
    """Composite-Simpson quadrature of the charge density over the box, in
    box units (the weights of [0, 1] against the density times the volume),
    so that no box size needs its own scale.

    The exact value is +1, or -1 for a conjugated state.  Raises
    ``ValueError`` on a grid that aliases the state (see
    :meth:`GridSpec.resolves`) or has an even point count.
    """
    if not grid.resolves(state.qnums):
        raise ValueError(
            f"{grid.points_per_axis} points per axis alias quantum numbers "
            f"{state.qnums.indices}: need points - 1 > 2 n_i"
        )
    weights = [_simpson_weights(grid.points_per_axis)] * state.box.dimension
    rho = _density(state, _sine_profiles(state, grid.axes(state.box)), box_units=True)
    return float(np.sum(_outer(weights) * rho))  # fixed order: BLAS's follows its threads


def stationarity_residual(
    state: BoxState,
    grid: GridSpec,
    energy: float | None = None,
) -> float:
    """Largest interior-point violation of the stationary equation H psi = E psi.

    The Hamiltonian applies the kinetic operator to the component sum
    (upper + lower, formed by ``_component_sum``) and adds the rest-energy
    term with opposite signs on the two components.  The second derivative
    comes from the 3-point central stencil, so the residual shrinks as
    O(h^2) under grid refinement.

    ``energy`` overrides the state's own eigenvalue, useful for checking
    that the residual actually detects a wrong energy.
    """
    profile = _outer(_sine_profiles(state, grid.axes(state.box)))
    e_val = state.scaled_energy if energy is None else float(energy)
    upper, lower = _components(state, profile)
    psi = _component_sum(state, profile)
    with np.errstate(over="ignore", invalid="ignore"):
        kinetic_term = -0.5 * _fd_laplacian(psi, state.box, grid.points_per_axis)
        res_upper = kinetic_term + _interior(upper) - e_val * _interior(upper)
        res_lower = -kinetic_term - _interior(lower) - e_val * _interior(lower)
    residual = float(max(np.max(np.abs(res_upper)), np.max(np.abs(res_lower))))
    if not math.isfinite(residual):
        raise CapacityError(f"stationarity residual in box {state.box.lengths} overflows float64")
    return residual


def _interior(arr: np.ndarray) -> np.ndarray:
    return arr[(slice(1, -1),) * arr.ndim]


def _fd_laplacian(arr: np.ndarray, box: BoxSpec, npoints: int) -> np.ndarray:
    """3-point central second difference per axis, on interior points, summed
    in axis order.  A step whose square overflows is infinite (a difference
    of 0)."""
    core, terms = _interior(arr), []
    for axis, length in enumerate(box.lengths):
        step = length / (npoints - 1)
        step_sq = step * step
        inner = [slice(1, -1)] * arr.ndim
        below = tuple(inner[:axis] + [slice(None, -2)] + inner[axis + 1:])
        above = tuple(inner[:axis] + [slice(2, None)] + inner[axis + 1:])
        terms.append((arr[below] - 2.0 * core + arr[above]) / step_sq)
    return sum(terms[1:], terms[0])
