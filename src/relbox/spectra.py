"""Energy-level enumeration, degeneracy counting and comparison tables.

Levels are labelled by their quantum numbers and carry the scaled kinetic
energy T = E/mc^2 - 1.  Three models share the machinery:

* ``kg``     -- spin-0, wavenumbers n_i pi / L_i, relativistic dispersion
* ``dirac``  -- spin-1/2, wavenumbers from the transcendental equations,
                relativistic dispersion
* ``nonrel`` -- spin-0 wavenumbers with the quadratic dispersion x^2 / 2

On cubic boxes levels are grouped by the sorted representative of their
quantum-number triple (1-, 3- or 6-fold permutation degeneracy); distinct
triples whose energies agree to 1e-9 relative are reported as one level
with the degeneracies summed and every representative retained.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import partial

from . import _LAZY_NAMES
from .core import (
    MODELS, BoxSpec, QuantumNumbers, _integer, _positive_finite, dispersion, kg_wavenumber_1d,
    kg_wavenumbers_3d,
)
from .errors import CapacityError
from .rootfind import dirac_wavenumber_1d, dirac_wavenumbers_3d

__all__ = list(_LAZY_NAMES["spectra"])

# Two levels count as distinct when their kinetic energies differ by more
# than this, relatively; closer pairs are merged with summed degeneracy.
MERGE_REL_TOL = 1e-9

# The most work one request may ask for, past which CapacityError is raised
# before any of it is solved: the levels of a 1D enumeration, and the (n1, n2)
# columns plus shell modes of one 3D lattice walk (every model, count and
# enumeration alike).
_WALK_BUDGET = 100_000

# Index n's wavenumber lies in ((n - shift) pi / L, n pi / L], spin-1/2 in its branch.
_BRANCH_SHIFT = {"kg": 0.0, "dirac": 0.5, "nonrel": 0.0}


class Level(namedtuple("Level", "model qnums wavenumbers kinetic degeneracy also")):
    """One solved energy level.

    ``qnums`` is the canonical representative (sorted ascending on cubes);
    ``also`` lists further representatives folded in by an accidental
    (equal-energy) merge and is almost always empty.
    """

    __slots__ = ()

    def __new__(cls, model: str, qnums: QuantumNumbers, wavenumbers: tuple[float, ...],
                kinetic: float, degeneracy: int, also: tuple[QuantumNumbers, ...] = ()):
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        if not kinetic >= 0.0:
            raise ValueError(f"kinetic energy must be >= 0, got {kinetic}")
        degeneracy = _integer("degeneracy", degeneracy)
        return super().__new__(cls, model, qnums, wavenumbers, kinetic, degeneracy, also)


class SpectrumRequest(
    namedtuple("SpectrumRequest", "model box count max_kinetic spin_counting")
):
    """What to enumerate: either the first ``count`` levels (an integer >= 1)
    or everything with kinetic energy at most ``max_kinetic`` (positive and
    finite)."""

    __slots__ = ()

    def __new__(cls, model: str, box: BoxSpec, count: int | None = None,
                max_kinetic: float | None = None, spin_counting: bool = False):
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        if (count is None) == (max_kinetic is None):
            raise ValueError("set exactly one of count / max_kinetic")
        if count is not None:
            count = _integer("count", count)
        if max_kinetic is not None:
            max_kinetic = _positive_finite("max_kinetic", max_kinetic)
        return super().__new__(cls, model, box, count, max_kinetic, spin_counting)


def _norm_sq_budget(model: str, kinetic: float) -> float:
    """Largest |x|^2 whose kinetic energy is at most ``kinetic`` (0 if < 0);
    CapacityError where it overflows float64."""
    if kinetic <= 0.0:
        return 0.0
    budget = 2.0 * kinetic if model == "nonrel" else kinetic * (kinetic + 2.0)
    if budget == math.inf:
        raise CapacityError(f"|x|^2 at kinetic energy {kinetic} overflows float64")
    return budget


def _spin_factor(model: str, spin_counting: bool) -> int:
    return 2 if (spin_counting and model == "dirac") else 1


def level_1d(model: str, n: int, box_length: float) -> Level:
    """The nth 1D level of the given model (degeneracy left at 1)."""
    x = (dirac_wavenumber_1d if model == "dirac" else kg_wavenumber_1d)(n, box_length)
    return _level(model, QuantumNumbers((n,)), (box_length,), (x,))


def level_3d(model: str, qnums: QuantumNumbers, box: BoxSpec) -> Level:
    """One 3D level of the given model (degeneracy left at 1)."""
    xs = (dirac_wavenumbers_3d if model == "dirac" else kg_wavenumbers_3d)(qnums, box)
    return _level(model, qnums, box.lengths, xs)


def _level(model: str, qnums: QuantumNumbers, lengths, xs: tuple[float, ...]) -> Level:
    """The level of wavenumbers ``xs``; CapacityError where its kinetic
    energy leaves the normal float64 range.  A subnormal kinetic energy
    keeps only a few digits, which the MERGE_REL_TOL pads do not cover."""
    kinetic = dispersion(model, xs)
    if not sys.float_info.min <= kinetic < math.inf:
        bound = "overflows" if kinetic == math.inf else "underflows"
        raise CapacityError(
            f"kinetic energy of indices {qnums.indices} in box {lengths} {bound} float64"
        )
    return Level(model, qnums, xs, kinetic, 1)


def enumerate_levels(request: SpectrumRequest) -> list[Level]:
    """Distinct levels in strictly increasing kinetic order.

    Enumeration is complete: in 3D every mode whose lowest conceivable
    |x|^2 (at the branch lower edges, which bound every root from below) is
    within the cutoff's budget is solved; in 1D levels rise strictly with n,
    so they are the first ``count`` indices or the ``count_states`` number
    of them.  If a
    3D walk visits more columns and shell modes than ``_WALK_BUDGET``, or
    there are more 1D levels than it, CapacityError is raised before that
    walk's modes or those levels are solved, rather than truncating.
    """
    if request.box.dimension == 1:
        return _enumerate_1d(request)
    return _enumerate_3d(request)


def count_states(model: str, box: BoxSpec, max_kinetic: float,
                 spin_counting: bool = False) -> int:
    """Degeneracy-weighted number of states with kinetic <= max_kinetic.

    Equal to the degeneracy sum of ``enumerate_levels`` for the same cutoff,
    but most modes are counted without a solve.  A mode's |x|^2 lies in
    [lo, hi]: lo at the branch edges (``_BRANCH_SHIFT``), hi at n_i pi / L_i,
    both exact for kg and nonrel.  Modes with hi within the budget at
    T (1 - 2 MERGE_REL_TOL), the interior, count as they are (in 3D one
    floor per (n1, n2) column); modes with lo past the budget at
    T (1 + MERGE_REL_TOL) cannot reach the cutoff, as in enumeration; only
    the shell in between is solved and merged, so merged levels define the
    count.  Each 3D walk is bounded by ``_WALK_BUDGET``: a box whose levels
    chain-merge so far below the cutoff that the deepened shell passes it
    is refused.
    """
    max_kinetic = SpectrumRequest(model=model, box=box, max_kinetic=max_kinetic).max_kinetic
    if box.dimension == 1:
        total = _count_1d(model, box.lengths[0], max_kinetic)
    else:
        walk, limit = _lattice_walk(model, box), max_kinetic * (1.0 + MERGE_REL_TOL)
        total = _count_from_shell(lambda threshold: walk(threshold, limit), max_kinetic)
    return total * _spin_factor(model, spin_counting)


# Relative bound on how far a computed energy can sit above its mode's hi
# bound: a spin-1/2 solve above the spin-0 energy, and an interior mode above
# the threshold its column floor was taken at.  Both differ by a few ulps of
# rounding only.
_ROUNDING_REL = 1e-12


def _count_1d(model: str, length: float, max_kinetic: float) -> int:
    """1D levels rise strictly with n and never merge, so the count is the
    largest n whose level is at most the cutoff, bisected in the arithmetic
    enumeration uses between the ``_last_index`` of the interior threshold (all
    count) and of the edge squares at T (1 + MERGE_REL_TOL) (none past it can)."""
    shift, top = _BRANCH_SHIFT[model], _norm_sq_budget(model, max_kinetic * (1.0 + MERGE_REL_TOL))
    hi = _last_index(shift, length, top) + 2  # one more than a rounding slip can reach
    lo = _last_index(0.0, length, _norm_sq_budget(model, max_kinetic * (1.0 - 2.0 * MERGE_REL_TOL)))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        fits = _edge_sq(shift, mid, length) <= top  # else level_1d may overflow
        if fits and level_1d(model, mid, length).kinetic <= max_kinetic:
            lo = mid
        else:
            hi = mid
    return lo


def _lattice_walk(model: str, box: BoxSpec):
    """``walk(threshold, limit)``: ``_split_lattice`` with each shell triple
    replaced by its level, solved once across calls."""
    solved: dict[tuple[int, int, int], Level] = {}

    def walk(threshold: float, limit: float):
        inside, shell = _split_lattice(model, box, threshold, limit)
        for triple, _ in shell:
            if triple not in solved:
                solved[triple] = level_3d(model, QuantumNumbers(triple), box)
        return inside, [(solved[triple], weight) for triple, weight in shell]

    return walk


def _split_lattice(model: str, box: BoxSpec, threshold: float, limit: float):
    """(interior weight, shell (triple, weight) pairs) of the 3D lattice.

    Every bound is one comparison in |x|^2: a mode's lowest |x|^2, the sum
    of its axes' ``_edge_sq``, above ``top``, the budget at ``limit``, means
    that no root of the mode reaches ``limit``, up to the few ulps of
    rounding that the MERGE_REL_TOL pad on ``limit`` covers.  ``top`` is
    taken first, refusing a ``limit`` whose budget overflows, so an
    overflowing edge square (+inf) lies above it; ``threshold`` is below it.
    One loop walks the (n1, n2) columns with a sum within ``top``, the n1
    and n2 squares taken once each: on cubes n2 starts at n1 and n3 at n2
    (rise 1), so only sorted triples are walked, each weighing its 6, 3 or
    1 permutations, ``weights[(n1 == n2) + (n2 == n3)]``; elsewhere both
    start at 1 (rise 0) and weigh 1.  A column's interior is every n3 up to
    the ``_last_index`` of the spin-0 budget left at ``threshold``, each past
    n3 = first weighing ``weights[n1 == n2]``; its shell goes on while the
    sum is within ``top``.  One count of the columns and shell triples
    visited raises CapacityError as it passes ``_WALK_BUDGET``, before the
    rest of the walk (a refused walk solves nothing); every passing n1 test
    opens a column, so the walk's time is bounded with its count.
    """
    l1, l2, l3 = box.lengths
    rise, weights = (1, (6, 3, 1)) if box.is_cube else (0, (1, 1, 1))
    edge = partial(_edge_sq, _BRANCH_SHIFT[model])
    top, budget = _norm_sq_budget(model, limit), _norm_sq_budget(model, threshold)
    inside, shell, steps = 0, [], 0
    n1 = start = 1
    while (low1 := edge(n1, l1)) + edge(start, l2) + edge(start, l3) <= top:
        left = budget - _edge_sq(0.0, n1, l1)
        n2 = first = start
        while (low2 := low1 + edge(n2, l2)) + edge(first, l3) <= top:
            steps = _step(steps)
            last = _last_index(0.0, l3, left - _edge_sq(0.0, n2, l2))
            if last >= first:
                inside += weights[(n1 == n2) + (n2 == first)] + (last - first) * weights[n1 == n2]
            n3 = max(last + 1, first)
            while low2 + edge(n3, l3) <= top:
                steps = _step(steps)
                shell.append(((n1, n2, n3), weights[(n1 == n2) + (n2 == n3)]))
                n3 += 1
            n2 += 1
            first += rise
        n1 += 1
        start += rise
    return inside, shell


def _edge_sq(shift: float, n: int, length: float) -> float:
    """((n - shift) pi / L)^2, the least x^2 of index n (``_BRANCH_SHIFT``);
    +inf where it overflows (``x * x``: the float power raises there)."""
    x = (n - shift) * math.pi / length
    return x * x


def _last_index(shift: float, length: float, budget: float) -> int:
    """floor(L sqrt(budget) / pi + shift), the inverse of ``_edge_sq``: 0 where
    budget <= 0, CapacityError from 2**53 on (+inf too).  Up to 2**53 every
    index is a distinct double, so n pi / L and its level tell neighbours apart;
    beyond it they round to one wavenumber and float64 levels define no count.
    A 3D column whose interior reaches 2**53 has at least 1.5e-9 as many shell
    modes (~1.35e7) below the padded cutoff: the walk budget refuses it too."""
    last = length * math.sqrt(budget) / math.pi + shift if budget > 0.0 else 0.0
    if not last < 2**53:
        raise CapacityError("count needs indices above 2**53 (float64 resolution)")
    return math.floor(last)


def _step(steps: int) -> int:
    """``steps + 1``; CapacityError where that passes ``_WALK_BUDGET``."""
    if steps >= _WALK_BUDGET:
        raise CapacityError(
            f"3D lattice walk visits more columns and shell modes than the walk budget "
            f"{_WALK_BUDGET}"
        )
    return steps + 1


def _count_from_shell(split, max_kinetic: float) -> int:
    """Count from ``split(threshold)`` -> (interior weight, solved shell
    entries), the interior being the modes with hi within threshold's budget.

    Starts at threshold T (1 - 2 MERGE_REL_TOL) and, while ``_count_shell``
    cannot settle the shell, deepens it fourfold, bounding the unsolved
    modes by threshold (1 + _ROUNDING_REL).  An empty interior meets that
    bound vacuously and deepens with no new shell mode to solve; below zero
    the shell always settles.
    """
    depth = 2.0 * MERGE_REL_TOL * max_kinetic
    while True:
        threshold = max_kinetic - depth
        inside, entries = split(threshold)
        counted = _count_shell(entries, threshold * (1.0 + _ROUNDING_REL), max_kinetic)
        if counted is not None:
            return inside + counted
        depth *= 4.0


def _count_shell(entries, top: float, max_kinetic: float) -> int | None:
    """Degeneracy of the solved (level, degeneracy) ``entries`` that count,
    given that every unsolved mode below them has kinetic <= ``top`` and
    counts: exact for any such bound, a vacuous one (no unsolved mode) too.

    An entry counts when the merged level it joins starts at or below the
    cutoff, and where levels start depends on the merges below.  So the
    count is taken from a definite start: an entry more than MERGE_REL_TOL
    above everything sorted before it, which starts a level whatever the
    modes below do.  Everything before it is at most the cutoff and counts;
    from it on ``_merge_equal_energies`` groups exactly as enumeration
    does.  Returns None if no definite start comes at or before the first
    entry above the cutoff.
    """
    ordered = sorted(entries, key=_energy_order)
    below = top
    for start, (level, _) in enumerate(ordered):
        kinetic = level.kinetic
        if kinetic > below and not math.isclose(below, kinetic, rel_tol=MERGE_REL_TOL, abs_tol=0.0):
            merged = _merge_equal_energies(ordered[start:])
            return sum(weight for _, weight in ordered[:start]) + sum(
                lv.degeneracy for lv in merged if lv.kinetic <= max_kinetic
            )
        if kinetic > max_kinetic:
            return None
        below = max(below, kinetic)
    return sum(weight for _, weight in ordered)


def _enumerate_1d(request: SpectrumRequest) -> list[Level]:
    model, length = request.model, request.box.lengths[0]
    last = request.count
    if last is None:
        last = _count_1d(model, length, request.max_kinetic)
    if last > _WALK_BUDGET:
        raise CapacityError(
            f"1D enumeration needs {last} levels, above the walk budget {_WALK_BUDGET}"
        )
    spin = _spin_factor(model, request.spin_counting)
    return [level_1d(model, n, length)._replace(degeneracy=spin) for n in range(1, last + 1)]


def _enumerate_3d(request: SpectrumRequest) -> list[Level]:
    """The shell walk of ``count_states`` with an empty interior: every mode
    whose lower bound is within the budget at T (1 + MERGE_REL_TOL) is
    solved, and the merged levels at most T are kept.

    A ``count`` request is the same request at T = K (1 + MERGE_REL_TOL),
    K the count-th level.  K is found by widening a walk's reach from the
    (1, 1, 1) branch-edge energy until the count-th merged level lies within it
    (levels are final up to the reach, as every mode below it is solved);
    solved modes are kept across rounds.  A round that holds fewer than
    ``count`` levels doubles the reach; one that holds ``count`` sets it to
    its count-th level K'.  That never passes K: a merged level starts at
    the first entry more than MERGE_REL_TOL above the previous start, so
    adding modes never raises the count-th start (by induction over the
    starts, the threshold rising with the start), and K <= K'.  The next
    round solves every mode up to K' and ends.  The reach stops at the
    largest cutoff whose |x|^2 budget is finite, and a count-th level past
    it is refused as an overflow.  An edge energy can round to 0 although
    the edge |x|^2 does not (half of one subnormal ulp ties to 0), and such
    a reach walks nothing, so a doubled reach is at least the smallest
    subnormal; it grows until (1, 1, 1) is walked, whose level ``_level``
    refuses as an underflow.

    Every round's walk is bounded by ``_WALK_BUDGET``.  A budget refusal
    never hides a level that a smaller budget would return: the reaches
    depend on the levels alone, not on the budget, so every budget walks
    the same rounds, each visiting the same columns and shell modes, until
    one round passes its budget.  A smaller budget is passed in that round
    or an earlier one.
    """
    model, box = request.model, request.box
    spin = _spin_factor(model, request.spin_counting)
    walk = _lattice_walk(model, box)

    def merged(reach):
        _, shell = walk(0.0, reach)
        return _merge_sorted([(level, weight * spin) for level, weight in shell])

    margin = 1.0 + MERGE_REL_TOL
    cutoff, count = request.max_kinetic, request.count
    if count is not None:
        top = sys.float_info.max / 2.0 if model == "nonrel" else math.sqrt(sys.float_info.max)
        edges = [(1 - _BRANCH_SHIFT[model]) * math.pi / length for length in box.lengths]
        reach = dispersion(model, edges)
        while True:
            reach = min(reach, top)
            levels = merged(reach)
            if len(levels) >= count and levels[count - 1].kinetic <= reach:
                cutoff = levels[count - 1].kinetic * margin
                break
            if not reach < top:
                raise CapacityError(
                    f"kinetic energy of level {count} in box {box.lengths} overflows float64"
                )
            if len(levels) >= count:
                reach = levels[count - 1].kinetic
            else:
                reach = max(2.0 * reach, math.ulp(0.0))  # an edge energy can underflow to 0
    return [lv for lv in merged(cutoff * margin) if lv.kinetic <= cutoff][:count]


def _merge_sorted(entries) -> list[Level]:
    """Merged levels of (level, degeneracy) entries given in any order."""
    return _merge_equal_energies(sorted(entries, key=_energy_order))


def _energy_order(entry):
    level, _ = entry
    return level.kinetic, level.qnums.indices


def _merge_equal_energies(entries) -> list[Level]:
    """Collapse entries whose kinetic energies agree to MERGE_REL_TOL."""
    merged: list[Level] = []
    for base, degeneracy in entries:
        if merged and math.isclose(
            merged[-1].kinetic, base.kinetic, rel_tol=MERGE_REL_TOL, abs_tol=0.0
        ):
            prev = merged[-1]
            merged[-1] = prev._replace(
                degeneracy=prev.degeneracy + degeneracy, also=prev.also + (base.qnums,)
            )
        else:
            merged.append(base._replace(degeneracy=degeneracy))
    return merged


def spectrum_table(models, boxes, count: int | None = None, max_kinetic: float | None = None,
                   spin_counting: bool = False) -> dict:
    """Levels of each model in each box, as a table of columns: the data
    behind the spectrum-comparison figures.

    ``boxes`` holds (lc cell, BoxSpec) pairs; the cell is the ``lc`` column
    value of the box's rows.  Each (model, box) contributes the levels of one
    ``SpectrumRequest`` (the first ``count``, or all up to ``max_kinetic``).
    Rows come ordered by model (kg, dirac, nonrel), then box in the given
    order, then kinetic energy; the non-relativistic model is tabulated only
    at the last box, where it is meaningful as a limit.
    """
    if not boxes or not set(models) <= set(MODELS):
        raise ValueError(f"need at least one box and models from {MODELS}, got {models!r}")
    names = ("model", "dim", "lc", "qnums", "wavenumbers", "kinetic", "degeneracy", "also")
    table = {name: [] for name in names}
    for model in (m for m in MODELS if m in models):
        for cell, box in boxes[-1:] if model == "nonrel" else boxes:
            request = SpectrumRequest(model, box, count, max_kinetic, spin_counting)
            for level in enumerate_levels(request):
                row = (model, box.dimension, cell, list(level.qnums.indices),
                       list(level.wavenumbers), level.kinetic, level.degeneracy,
                       [list(q.indices) for q in level.also])
                for column, value in zip(table.values(), row):
                    column.append(value)
    return table
