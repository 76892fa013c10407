"""Boundary-condition solvers for the confined relativistic modes.

The spin-1/2 box quantization replaces the node-at-the-wall rule by
transcendental equations: in 1D a single tangent equation per level, in 3D a
set of three coupled tangent equations sharing the total kinetic energy.
This module provides a bracketed scalar solver (Brent's method) plus the 1D
and 3D wavenumber solvers built on top of it.  Each wavenumber is solved in
the pole-free (smooth) form of its equation, whose sign changes exactly once
on the branch [(n - 1/2) pi, n pi], and polished on the tangent form.

All wavenumbers are dimensionless (k * lambda_C) and all box lengths are in
Compton units; see :mod:`relbox.core`.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import BoxSpec, QuantumNumbers, dispersion
from .errors import BracketError, CapacityError, ConvergenceError

__all__ = [
    "solve_bracketed",
    "kg_wavenumber_1d",
    "dirac_wavenumber_1d",
    "kg_wavenumbers_3d",
    "dirac_wavenumbers_3d",
]

_EPS = math.ulp(1.0)

# Relative tolerance of every scalar solve, at the float64 limit; the tangent
# equations are stiff near the poles, so anything looser leaks into the
# transcendental residual.
_SCALAR_REL_TOL = 2e-15

# Largest relative update at which the 3D fixed point stops.  The figure
# tables are tied to this value: tightening it moves their last digits.
_SWEEP_REL_TOL = 1e-12

# Iteration caps: Brent steps per scalar solve, sweeps per 3D fixed point.
_SCALAR_ITER_CAP = 200
_SWEEP_CAP = 500


def solve_bracketed(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of ``f`` on [lo, hi], to the float64 limit.

    Uses Brent's method (inverse-quadratic/secant steps with a bisection
    fallback) at relative tolerance ``_SCALAR_REL_TOL``, then nudges the
    result over neighbouring floats to minimise |f|.  The result never
    leaves [lo, hi] and is within ``_SCALAR_REL_TOL * max(1, |root|)`` of
    the true root.

    Raises
    ------
    BracketError
        If f(lo) and f(hi) do not straddle zero.
    ConvergenceError
        If the iteration cap is hit, or ``f`` returns NaN; carries the last
        iterate.
    """
    if not (lo < hi):
        raise BracketError(f"empty bracket [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if math.isnan(flo) or math.isnan(fhi):
        raise ConvergenceError(f"f is NaN at an end of [{lo}, {hi}]")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3g}, f(hi)={fhi:.3g}"
        )
    xtol = 0.5 * _SCALAR_REL_TOL
    rtol = max(0.5 * _SCALAR_REL_TOL, 4.0 * _EPS)
    root = _brent(f, lo, hi, flo, fhi, xtol, rtol, _SCALAR_ITER_CAP)
    return _polish(f, float(root), lo, hi)


def _brent(f, xpre, xcur, fpre, fcur, xtol, rtol, maxiter):
    """Brent's method (Brent 1973, ch. 4) on a sign-changing bracket.

    Step for step the C routine ``brentq`` of SciPy: the same bracket
    bookkeeping, tolerance ``delta = (xtol + rtol |x|) / 2`` and
    interpolate / extrapolate / bisect tests, so in IEEE double arithmetic
    it returns the same float.  A zero division, which yields inf or NaN
    in C, takes the bisection step there too.
    """
    xblk = fblk = spre = scur = 0.0
    for iteration in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (
                        dblk * dpre * (fblk - fpre)
                    )
            except ZeroDivisionError:
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ConvergenceError(
                f"f is NaN at x={xcur}", last_estimate=xpre, iterations=iteration
            )
    raise ConvergenceError(
        f"scalar solve did not converge in {maxiter} iterations",
        last_estimate=float(xcur),
        iterations=maxiter,
    )


def _polish(f: Callable[[float], float], root: float, lo: float, hi: float) -> float:
    """Pick the neighbouring float with the smallest |f|, staying in [lo, hi]."""
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


def _solve_branch(
    g: Callable[[float], float], f: Callable[[float], float], n: int
) -> float:
    """Root in the nth branch [(n - 1/2) pi, n pi] of the smooth form ``g``,
    polished on the tangent form ``f`` (same roots, with poles).

    ``g`` is continuous on the branch and changes sign there exactly once,
    so its end points bracket the root.  ``BracketError`` is raised only when
    the root is within half an ulp of the tangent pole at the lower end,
    which the float nearest (n - 1/2) pi may then overshoot.
    """
    lo, hi = (n - 0.5) * math.pi, n * math.pi
    root = solve_bracketed(g, lo, hi)
    return _polish(f, root, lo, hi)


def kg_wavenumber_1d(n: int, box_length: float) -> float:
    """Spin-0 box wavenumber n pi / L (node-at-the-wall quantization)."""
    _check_1d_args(n, box_length)
    return n * math.pi / box_length


def dirac_wavenumber_1d(n: int, box_length: float) -> float:
    """nth spin-1/2 box wavenumber: root of tan(y) = -y / L with y = x L.

    The root lies in ((n - 1/2) pi, n pi), strictly below the spin-0 value
    n pi / L, and approaches it as the box grows.  It is solved as the zero
    of L sin(y) + y cos(y), which has no poles.
    """
    _check_1d_args(n, box_length)

    def g(y: float) -> float:
        return box_length * math.sin(y) + y * math.cos(y)

    def f(y: float) -> float:
        return math.tan(y) + y / box_length

    return _solve_branch(g, f, n) / box_length


def _check_1d_args(n: int, box_length: float) -> None:
    if n < 1:
        raise ValueError(f"level index starts at 1, got {n}")
    if not math.isfinite(box_length) or box_length <= 0.0:
        raise ValueError(f"box length must be positive and finite, got {box_length}")


def kg_wavenumbers_3d(qnums: QuantumNumbers, box: BoxSpec) -> tuple[float, float, float]:
    """Spin-0 wavenumbers n_i pi / L_i, one per axis."""
    _check_3d_args(qnums, box)
    n = qnums.indices
    lengths = box.lengths
    return tuple(n[i] * math.pi / lengths[i] for i in range(3))


def dirac_wavenumbers_3d(
    qnums: QuantumNumbers, box: BoxSpec
) -> tuple[float, float, float, float]:
    """Self-consistent spin-1/2 wavenumbers (x1, x2, x3) and kinetic energy.

    Each axis must satisfy

        tan(x_i L_i) = 2 (T + 2) x_i / (x_i^2 - (T + 2)^2)

    with the shared kinetic energy T = sqrt(|x|^2 + 1) - 1.  Starting from
    the spin-0 wavenumbers, the solver alternates between recomputing T and
    re-solving each axis inside its branch, in the pole-free form
    sin(y) (x^2 - e^2) - 2 e x cos(y) with e = T + 2, until the largest
    relative update drops below ``_SWEEP_REL_TOL`` (1e-12) or a sweep lowers
    no wavenumber.  Stopping at 1e-12 leaves the last few digits unconverged:
    a returned wavenumber can sit up to about 5e-13 relative from the
    coupled root.

    The sweeps descend monotonically.  On the branch tan(xL) rises with x
    while the right-hand side falls with x and rises with e (its e-derivative
    is 2x (x^2 + e^2) / (x^2 - e^2)^2 > 0), so each axis root rises with e,
    and one sweep is an increasing map of T.  The first sweep starts from
    the spin-0 wavenumbers, the upper ends of the branches, so it lowers T;
    every later sweep then lowers each wavenumber again, down towards the
    fixed point.  A sweep that lowers none has therefore reached the fixed
    point to rounding in the last bits, which is where a tolerance near the
    float64 limit would otherwise leave the last bit alternating.

    Raises CapacityError where the spin-0 |x|^2 overflows float64.

    Returns
    -------
    (x1, x2, x3, kinetic) where kinetic is recomputed from the returned
    wavenumbers.
    """
    _check_3d_args(qnums, box)
    n = qnums.indices
    lengths = box.lengths
    xs = [n[i] * math.pi / lengths[i] for i in range(3)]
    history: list[float] = []
    for _ in range(_SWEEP_CAP):
        e_sum = dispersion("dirac", xs) + 2.0
        if math.isnan(e_sum):  # |x|^2 overflows; sweeps only lower it, so at the start
            raise CapacityError(
                f"kinetic energy of indices {n} in box {lengths} overflows float64"
            )
        roots = [_solve_axis(n[i], lengths[i], e_sum) for i in range(3)]
        rel_change = max(abs(roots[i] - xs[i]) / max(roots[i], 1e-300) for i in range(3))
        descending = any(roots[i] < xs[i] for i in range(3))
        xs = roots
        history.append(rel_change)
        if rel_change < _SWEEP_REL_TOL or not descending:
            return (xs[0], xs[1], xs[2], dispersion("dirac", xs))
    raise ConvergenceError(
        f"3D solve for indices {n} in box {lengths} still changing by "
        f"{history[-1]:.3e} after {len(history)} sweeps",
        last_estimate=tuple(xs),
        iterations=len(history),
        history=history,
    )


def _solve_axis(n_i: int, length: float, e_sum: float) -> float:
    """One scalar sub-solve of the coupled system at fixed energy sum.

    Where x >= e_sum both terms of the smooth form take the sign of sin(y)
    on the branch, so its only zero there is the root (at x < e_sum).
    """

    def g(y: float) -> float:
        x = y / length
        return math.sin(y) * (x * x - e_sum * e_sum) - 2.0 * e_sum * x * math.cos(y)

    def f(y: float) -> float:
        x = y / length
        return math.tan(y) - 2.0 * e_sum * x / (x * x - e_sum * e_sum)

    return _solve_branch(g, f, n_i) / length


def _check_3d_args(qnums: QuantumNumbers, box: BoxSpec) -> None:
    if box.dimension != 3:
        raise ValueError(f"need a 3D box, got {box.dimension}D")
    qnums.check_matches(box)
