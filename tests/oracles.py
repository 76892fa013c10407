"""Independent reference implementations used only by the tests.

Deliberately avoids the library's own solver paths: plain bisection instead
of the safeguarded hybrid, a damped Newton iteration on the full coupled
residual instead of the per-axis fixed point, and exhaustive lattice
enumeration instead of the adaptive level scan.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from fractions import Fraction

import numpy as np


def bisect_root(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Plain bisection; the bracket must straddle zero."""
    flo = f(lo)
    fhi = f(hi)
    assert flo * fhi < 0.0, "oracle bracket does not straddle zero"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def dirac_root_1d(n: int, box_length: float, tol: float = 1e-12) -> float:
    """Bisection solution of tan(y) = -y/L in ((n-1/2)pi, n pi), returned as x."""
    lo = (n - 0.5) * math.pi + 1e-12
    hi = n * math.pi - 1e-12
    y = bisect_root(lambda y: math.tan(y) + y / box_length, lo, hi, tol)
    return y / box_length


def _coupled_residual(xs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Smooth (pole-free) form of the three coupled tangent equations.

    F_i = sin(y_i) (x_i^2 - e^2) - 2 e x_i cos(y_i),  y_i = L_i x_i,
    with e = sqrt(1 + |x|^2) + 1.  Inside the branch boxes e > x_i, so the
    smooth form vanishes exactly where the tangent form does.
    """
    e = math.sqrt(1.0 + float(np.dot(xs, xs))) + 1.0
    ys = lengths * xs
    return np.sin(ys) * (xs**2 - e**2) - 2.0 * e * xs * np.cos(ys)


def _coupled_jacobian(xs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    e = math.sqrt(1.0 + float(np.dot(xs, xs))) + 1.0
    ys = lengths * xs
    sin_y, cos_y = np.sin(ys), np.cos(ys)
    direct = (
        lengths * cos_y * (xs**2 - e**2)
        + 2.0 * xs * sin_y
        - 2.0 * e * cos_y
        + 2.0 * e * xs * lengths * sin_y
    )
    dF_de = -2.0 * e * sin_y - 2.0 * xs * cos_y
    de_dx = xs / (e - 1.0)
    return np.diag(direct) + np.outer(dF_de, de_dx)


def newton_wavenumbers_3d(
    indices, lengths, tol: float = 1e-13, max_iter: int = 200
) -> tuple[float, float, float, float]:
    """Damped Newton solve of the coupled system, from the spin-0 start.

    Iterates on all three wavenumbers at once with backtracking damping and
    projection into the open branch boxes ((n_i - 1/2) pi / L_i, n_i pi / L_i).
    """
    indices = np.asarray(indices, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    lo = (indices - 0.5) * math.pi / lengths * (1.0 + 1e-14) + 1e-14
    hi = indices * math.pi / lengths * (1.0 - 1e-14)
    xs = np.clip(indices * math.pi / lengths, lo, hi)
    for _ in range(max_iter):
        f = _coupled_residual(xs, lengths)
        step = np.linalg.solve(_coupled_jacobian(xs, lengths), -f)
        # Near a regular root the Newton step length is the distance to the
        # root, so a step at relative rounding level means convergence.
        if np.max(np.abs(step) / np.maximum(np.abs(xs), 1e-300)) < tol:
            xs = np.clip(xs + step, lo, hi)
            break
        lam = 1.0
        norm0 = np.linalg.norm(f)
        for _ in range(40):
            trial = np.clip(xs + lam * step, lo, hi)
            if np.linalg.norm(_coupled_residual(trial, lengths)) < norm0:
                break
            lam *= 0.5
        else:
            raise RuntimeError("newton oracle: backtracking failed")
        xs = trial
    else:
        raise RuntimeError("newton oracle did not converge")
    norm_sq = float(np.dot(xs, xs))
    kinetic = norm_sq / (math.sqrt(norm_sq + 1.0) + 1.0)
    return float(xs[0]), float(xs[1]), float(xs[2]), kinetic


def lattice_count(lengths, max_kinetic: float, n_max: int, quadratic: bool = False) -> int:
    """Exhaustive count of modes with kinetic <= max_kinetic and n_i <= n_max.

    Spin-0 wavenumbers n_i pi / L_i; relativistic dispersion by default,
    quadratic with ``quadratic=True``.  Valid as a total count only when no
    qualifying mode has an index above n_max.
    """
    lengths = np.asarray(lengths, dtype=float)
    dim = len(lengths)
    grids = np.meshgrid(*[np.arange(1, n_max + 1)] * dim, indexing="ij")
    norm_sq = sum(
        (grids[i] * math.pi / lengths[i]) ** 2 for i in range(dim)
    )
    if quadratic:
        kinetic = 0.5 * norm_sq
    else:
        kinetic = np.sqrt(norm_sq + 1.0) - 1.0
    return int(np.count_nonzero(kinetic <= max_kinetic))


def _relativistic(norm_sq: float) -> float:
    return norm_sq / (math.sqrt(norm_sq + 1.0) + 1.0)


def integer_cube_count(length: float, max_kinetic: float) -> tuple[int, float]:
    """(count, margin) of the spin-0 (kg) modes of a cube, in integers.

    A mode counts when |n|^2 <= K = floor(T (T + 2) L^2 / pi^2), so the
    count is the sum over n1, n2 of isqrt(K - n1^2 - n2^2).  ``margin`` is
    the relative kinetic-energy distance from T of |n|^2 = K and K + 1,
    which bound the nearest modes on either side; the count holds where it
    is far above the merge tolerance.
    """
    scale = (math.pi / length) ** 2
    k = math.floor(max_kinetic * (max_kinetic + 2.0) / scale)
    total = 0
    for n1 in range(1, math.isqrt(max(k - 2, 0)) + 1):
        rest = k - n1 * n1
        total += sum(math.isqrt(rest - n2 * n2) for n2 in range(1, math.isqrt(rest - 1) + 1))
    nearest = (_relativistic(k * scale), _relativistic((k + 1) * scale))
    return total, min(abs(t - max_kinetic) for t in nearest) / max_kinetic


def _separable_count(tables, budget: float, kinetic_of, max_kinetic: float) -> tuple[int, float]:
    """(count, margin) of the index triples whose sum of per-axis x^2 is at
    most ``budget``, one ``bisect`` into the third table per (n1, n2).

    ``tables[i]`` lists axis i's x^2 for n = 1, 2, ... in ascending order,
    its last entry a lower bound of every x^2 past the listed ones, above
    ``budget``.  ``margin`` is the least relative distance from
    ``max_kinetic`` of ``kinetic_of`` at the sums next to the budget: the
    largest within it and the least above it (a lower bound where a past
    entry enters it).
    """
    first, second, third = tables
    total, below, above = 0, 0.0, math.inf
    for i, x1 in enumerate(first):
        for j, x2 in enumerate(second):
            part = x1 + x2
            fits = bisect.bisect_right(third, budget - part)
            if i < len(first) - 1 and j < len(second) - 1:
                total += fits
            if fits:
                below = max(below, part + third[fits - 1])
            above = min(above, part + third[fits])
    margin = min(max_kinetic - kinetic_of(below), kinetic_of(above) - max_kinetic)
    return total, margin / max_kinetic


def spin0_box_count(lengths, max_kinetic: float, quadratic: bool = False) -> tuple[int, float]:
    """(count, margin) of the spin-0 modes of a box, from per-axis tables
    of (n pi / L_i)^2: relativistic dispersion by default, quadratic with
    ``quadratic=True``; the margin as in ``_separable_count``."""
    budget = 2.0 * max_kinetic if quadratic else max_kinetic * (max_kinetic + 2.0)
    tables = []
    for length in lengths:
        table = [(math.pi / length) ** 2]
        while table[-1] <= budget:
            table.append(((len(table) + 1) * math.pi / length) ** 2)
        tables.append(table)
    kinetic_of = (lambda s: 0.5 * s) if quadratic else _relativistic
    return _separable_count(tables, budget, kinetic_of, max_kinetic)


def dirac_one_sweep_count(lengths, max_kinetic: float) -> tuple[int, float]:
    """(count, margin) of the spin-1/2 modes of a box, by one sweep at the
    cutoff, with no coupled solve.

    One sweep maps a shared kinetic energy T to the energy of the axis roots
    at e = T + 2, and it rises with slope in (0, 1), so a mode's coupled
    level is at most T exactly when its sweep at T is: when the sum of the
    roots x_i(n_i; e)^2 of n pi - x L - 2 atan(x / e) = 0, each bisected in
    its branch [(n - 1/2) pi / L, n pi / L], is at most T (T + 2).  The
    level lies at least as far from T as that sweep, so ``margin`` (as in
    ``_separable_count``) bounds its distance from the cutoff too.
    """
    e = max_kinetic + 2.0
    budget = max_kinetic * e
    tables = []
    for length in lengths:
        table, n = [], 1
        while ((n - 0.5) * math.pi / length) ** 2 <= budget:
            root = bisect_root(
                lambda x: n * math.pi - x * length - 2.0 * math.atan(x / e),
                (n - 0.5) * math.pi / length, n * math.pi / length)
            table.append(root * root)
            n += 1
        tables.append(table + [((n - 0.5) * math.pi / length) ** 2])
    return _separable_count(tables, budget, _relativistic, max_kinetic)


def box_state_closed_form(indices, lengths, position, time: float, conjugated: bool):
    """(upper, lower, rho) of a box eigenstate at one point, from the formulas.

    psi = sqrt(2^d / V) prod_i sin(n_i pi r_i / L_i) (phi0, chi0) exp(-i E t),
    E = sqrt(1 + sum x_i^2), phi0 = (E + 1) / (2 sqrt(E)),
    chi0 = (1 - E) / (2 sqrt(E)); the charge conjugate is the swapped and
    complex-conjugated spinor.  The charge current of this standing wave is
    zero everywhere.
    """
    xs = [n * math.pi / length for n, length in zip(indices, lengths)]
    energy = math.sqrt(1.0 + math.fsum(x * x for x in xs))
    root = 2.0 * math.sqrt(energy)
    psi = (math.sqrt(2.0 ** len(lengths) / math.prod(lengths))
           * math.prod(math.sin(x * r) for x, r in zip(xs, position))
           * cmath.exp(-1j * energy * time))
    upper, lower = psi * (energy + 1.0) / root, psi * (1.0 - energy) / root
    if conjugated:
        upper, lower = lower.conjugate(), upper.conjugate()
    return upper, lower, abs(upper) ** 2 - abs(lower) ** 2


def simpson_integral(values: np.ndarray, length: float) -> float:
    """Composite Simpson on uniformly sampled values (odd count), via the
    textbook 1-4-2...-4-1 weights, written independently of the library."""
    n = len(values)
    assert n >= 3 and n % 2 == 1
    h = length / (n - 1)
    total = values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(values[2:-1:2])
    return float(total * h / 3.0)


def exact_simpson_charge(profiles, charge: float) -> float:
    """Composite-Simpson integral over the unit cube of ``charge * 2^d``
    times the product of the squared per-axis ``profiles`` (samples on
    uniform grids of [0, 1], faces included), rounded once.  The sum
    factorises over the axes; each axis is summed in exact rational
    arithmetic."""
    total = Fraction(charge)
    for profile in profiles:
        npoints = len(profile)
        coefs = [1] + [4 if k % 2 else 2 for k in range(1, npoints - 1)] + [1]
        axis_sum = sum(c * Fraction(float(v)) ** 2 for c, v in zip(coefs, profile))
        total *= Fraction(2, 3 * (npoints - 1)) * axis_sum
    return float(total)


def lattice_levels(kinetic_of, lengths, n_max: int, count: int,
                   rel_tol: float = 1e-9) -> list[tuple]:
    """First ``count`` levels from every index triple up to n_max.

    ``kinetic_of(triple)`` gives a triple's kinetic energy.  On a cube the
    permutations of a triple form one entry (under its sorted representative,
    weighted by the number of permutations found); triples are then sorted
    by (kinetic, representative) and each one whose kinetic energy is within
    ``rel_tol`` of the first member of the level before it joins that level.
    Returns (representative, other representatives, degeneracy, kinetic)
    tuples.  Valid only when no index above n_max can reach the count-th
    level.
    """
    cube = len(set(lengths)) == 1
    weights: dict[tuple, int] = {}
    for triple in itertools.product(range(1, n_max + 1), repeat=3):
        key = tuple(sorted(triple)) if cube else triple
        weights[key] = weights.get(key, 0) + 1
    entries = sorted((kinetic_of(t), t, w) for t, w in weights.items())
    levels: list[list] = []
    for kinetic, triple, weight in entries:
        if levels and math.isclose(levels[-1][3], kinetic, rel_tol=rel_tol, abs_tol=0.0):
            levels[-1][1].append(triple)
            levels[-1][2] += weight
        else:
            levels.append([triple, [], weight, kinetic])
    return [(t, tuple(also), w, k) for t, also, w, k in levels[:count]]


def weyl_count(lengths, k: float) -> float:
    """Weyl expansion of the number of Dirichlet box modes with |x| <= k.

    N(k) ~ V k^3 / (6 pi^2) - S k^2 / (16 pi) + E k / (16 pi) - 1/8 for a
    box of volume V, surface area S and total edge length E; the lattice
    count scatters about it by much less than the surface term.
    """
    a, b, c = lengths
    volume = a * b * c
    surface = 2.0 * (a * b + b * c + c * a)
    edges = 4.0 * (a + b + c)
    return (volume * k**3 / (6.0 * math.pi**2) - surface * k**2 / (16.0 * math.pi)
            + edges * k / (16.0 * math.pi) - 0.125)
