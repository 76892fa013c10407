"""Boundary-condition solvers for the confined spin-1/2 modes.

The spin-1/2 box quantization replaces the node-at-the-wall rule n pi / L of
spin 0 (stated in :mod:`relbox.core`) by transcendental equations: in 1D a
single tangent equation per level, in 3D a set of three coupled tangent
equations sharing the total kinetic energy.
Each of them is solved for the offset delta = n pi - y of its root y = x L
from the top of the branch [(n - 1/2) pi, n pi], in the one reduced form
delta = c atan((n pi - delta) / s), by a monotone Newton iteration, and
polished on the tangent form.

All wavenumbers are dimensionless (k * lambda_C) and all box lengths are in
Compton units; see :mod:`relbox.core`.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from . import _LAZY_NAMES
from .core import BoxSpec, QuantumNumbers, _integer, _positive_finite, dispersion, kg_wavenumbers_3d
from .errors import ConvergenceError

__all__ = list(_LAZY_NAMES["rootfind"])

# Largest relative update at which the 3D fixed point stops.  The figure
# tables are tied to this value: tightening it moves their last digits.
_SWEEP_REL_TOL = 1e-12

# Iteration caps: Newton steps per scalar solve, sweeps per 3D fixed point.
_SCALAR_ITER_CAP = 200
_SWEEP_CAP = 500


def _polish(f: Callable[[float], float], root: float, lo: float, hi: float) -> float:
    """Pick the float within 2 ulp of ``root`` with the smallest |f|, staying
    in [lo, hi].  ``root`` is moved into [lo, hi] first: near the pole end,
    n pi - delta can round to a float just below (n - 1/2) pi."""
    root = min(max(root, lo), hi)
    candidates = [root]
    up = down = root
    for _ in range(2):
        up = math.nextafter(up, math.inf)
        down = math.nextafter(down, -math.inf)
        candidates.extend((up, down))
    best, best_val = root, abs(f(root))
    for c in candidates[1:]:
        if lo <= c <= hi:
            v = abs(f(c))
            if v < best_val:
                best, best_val = c, v
    return best


def _solve_branch(f: Callable[[float], float], n: int, c: float, s: float) -> float:
    """Root y in the nth branch [(n - 1/2) pi, n pi] of the tangent form ``f``
    whose offset delta = n pi - y solves delta = c atan((n pi - delta) / s).

    h(delta) = delta - c atan((n pi - delta) / s) is increasing and convex,
    so Newton's method started at delta = c atan(n pi / s), right of the
    root, descends monotonically onto it and stops at the first step that
    lowers nothing.  delta keeps its full relative precision however far
    below ulp(n pi) it lies, so large-box roots next to n pi solve like any
    other.  y = n pi - delta is then polished on ``f``, which picks the
    returned float.
    """
    n_pi = n * math.pi
    delta = c * math.atan(n_pi / s)
    for _ in range(_SCALAR_ITER_CAP):
        w = n_pi - delta
        u = w / s
        # h'(delta) = 1 + c / (s (1 + u^2)), with s u^2 = w u
        lower = delta - (delta - c * math.atan(u)) / (1.0 + c / (s + w * u))
        if not lower < delta:
            return _polish(f, w, (n - 0.5) * math.pi, n_pi)
        delta = lower
    raise ConvergenceError(
        f"scalar solve in branch {n} did not converge in {_SCALAR_ITER_CAP} iterations",
        last_estimate=n_pi - delta,
        iterations=_SCALAR_ITER_CAP,
    )


def dirac_wavenumber_1d(n: int, box_length: float) -> float:
    """nth spin-1/2 box wavenumber: root of tan(y) = -y / L with y = x L.

    The root lies in ((n - 1/2) pi, n pi), strictly below the spin-0 value
    n pi / L, and approaches it as the box grows.  Its offset from the top
    of the branch solves delta = atan((n pi - delta) / L).
    """
    n, box_length = _integer("quantum number", n), _positive_finite("box length", box_length)

    def f(y: float) -> float:
        return math.tan(y) + y / box_length

    return _solve_branch(f, n, 1.0, box_length) / box_length


def dirac_wavenumbers_3d(qnums: QuantumNumbers, box: BoxSpec) -> tuple[float, float, float]:
    """Self-consistent spin-1/2 wavenumbers (x1, x2, x3), one per axis.

    Each axis must satisfy

        tan(x_i L_i) = 2 (T + 2) x_i / (x_i^2 - (T + 2)^2)

    with the shared kinetic energy T = sqrt(|x|^2 + 1) - 1.  Starting from
    the spin-0 wavenumbers, the solver alternates between recomputing T and
    re-solving each axis inside its branch for the offset
    delta = 2 atan(x / e) of y = x L from n pi, with e = T + 2, until the
    largest relative update drops below ``_SWEEP_REL_TOL`` (1e-12) or a sweep
    lowers no wavenumber.  Stopping at 1e-12 leaves the last few digits
    unconverged: a returned wavenumber can sit up to about 5e-13 relative
    from the coupled root.

    The sweeps descend monotonically.  On the branch tan(xL) rises with x
    while the right-hand side falls with x and rises with e (its e-derivative
    is 2x (x^2 + e^2) / (x^2 - e^2)^2 > 0), so each axis root rises with e,
    and one sweep is an increasing map of T.  The first sweep starts from
    the spin-0 wavenumbers, the upper ends of the branches, so it lowers T;
    every later sweep then lowers each wavenumber again, down towards the
    fixed point.  A sweep that lowers none has therefore reached the fixed
    point to rounding in the last bits, which is where a tolerance near the
    float64 limit would otherwise leave the last bit alternating.

    Where the spin-0 |x|^2 overflows float64, the first sweep takes
    e = |x| + 2 (T = |x| to rounding there).  The wavenumbers are returned
    even where their own |x|^2 overflows; ``relbox.spectra.level_3d`` refuses
    such a level.
    """
    xs = list(kg_wavenumbers_3d(qnums, box))
    n = qnums.indices
    lengths = box.lengths
    history: list[float] = []
    for _ in range(_SWEEP_CAP):
        e_sum = dispersion("dirac", xs) + 2.0
        if e_sum == math.inf:  # |x|^2 overflows; there T = |x| to rounding
            e_sum = math.hypot(*xs) + 2.0
        roots = [_solve_axis(n[i], lengths[i], e_sum) for i in range(3)]
        rel_change = max(abs(roots[i] - xs[i]) / max(roots[i], 1e-300) for i in range(3))
        descending = any(roots[i] < xs[i] for i in range(3))
        xs = roots
        history.append(rel_change)
        if rel_change < _SWEEP_REL_TOL or not descending:
            return tuple(xs)
    raise ConvergenceError(
        f"3D solve for indices {n} in box {lengths} still changing by "
        f"{history[-1]:.3e} after {len(history)} sweeps",
        last_estimate=tuple(xs),
        iterations=len(history),
        history=history,
    )


def _solve_axis(n_i: int, length: float, e_sum: float) -> float:
    """One scalar sub-solve of the coupled system at fixed energy sum.

    On the branch the root has x < e_sum, where the tangent form reads
    tan(delta) = tan(2 atan(x / e_sum)), so delta = 2 atan(x / e_sum).
    """

    def f(y: float) -> float:
        x = y / length
        return math.tan(y) - 2.0 * e_sum * x / (x * x - e_sum * e_sum)

    return _solve_branch(f, n_i, 2.0, length * e_sum) / length
