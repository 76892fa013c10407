"""Level enumeration, degeneracy bookkeeping and state counting."""

import bisect
import itertools
import math
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from relbox import (
    BoxSpec,
    CapacityError,
    Level,
    QuantumNumbers,
    SpectrumRequest,
    count_states,
    enumerate_levels,
    level_1d,
    level_3d,
    spectrum_table,
)
import relbox.rootfind
import relbox.spectra
from relbox.spectra import (
    MERGE_REL_TOL,
    MODELS,
    _count_from_shell,
    _count_shell,
    _merge_sorted,
    _split_lattice,
)

from oracles import (
    dirac_one_sweep_count,
    integer_cube_count,
    lattice_count,
    lattice_levels,
    newton_wavenumbers_3d,
    spin0_box_count,
    weyl_count,
)

# Kinetic energy of the first spin-1/2 level in the unit 1D box, from the
# bisection root y_1 = 2.0287578381104342 through sqrt(x^2 + 1) - 1.
DIRAC_UNIT_BOX_T1 = 1.2618263341146514

# sqrt(1 + n^2 pi^2) - 1 for n = 1..4 (direct evaluation).
KG_UNIT_BOX_T = (
    2.2969083094756152,
    5.3622651315673284,
    8.4776811304139278,
    11.606096557516515,
)

# sqrt(6 pi^2 / 300^2 + 1) - 1 (direct evaluation).
KG_112_CUBE300_T = 3.2893271500414529e-04


def test_level_1d_examples():
    kg = level_1d("kg", 1, math.pi)
    assert kg.wavenumbers == (1.0,)
    assert kg.kinetic == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)

    dirac = level_1d("dirac", 1, 1.0)
    assert dirac.kinetic == pytest.approx(DIRAC_UNIT_BOX_T1, rel=1e-12)

    nonrel = level_1d("nonrel", 1, 300.0)
    assert nonrel.kinetic == pytest.approx(5.4831135561607548e-05, rel=1e-14)


def test_level_3d_examples():
    kg = level_3d("kg", QuantumNumbers((1, 1, 1)), BoxSpec.cube(math.pi))
    assert kg.kinetic == pytest.approx(1.0, abs=1e-15)

    kg112 = level_3d("kg", QuantumNumbers((1, 1, 2)), BoxSpec.cube(300.0))
    assert kg112.kinetic == pytest.approx(KG_112_CUBE300_T, rel=1e-13)

    dirac = level_3d("dirac", QuantumNumbers((1, 1, 1)), BoxSpec.cube(300.0))
    kg111 = level_3d("kg", QuantumNumbers((1, 1, 1)), BoxSpec.cube(300.0))
    assert abs(dirac.kinetic - kg111.kinetic) / kg111.kinetic < 0.01


def test_level_of_an_unknown_model_is_refused():
    with pytest.raises(ValueError, match="unknown model 'foo'"):
        level_1d("foo", 1, 1.0)
    with pytest.raises(ValueError, match="unknown model 'foo'"):
        level_3d("foo", QuantumNumbers((1, 1, 1)), BoxSpec.cube(1.0))


def test_level_kinetic_consistent_with_dispersion():
    for model in ("kg", "dirac", "nonrel"):
        lv = level_3d(model, QuantumNumbers((1, 2, 2)), BoxSpec.cube(2.0))
        norm_sq = math.fsum(x * x for x in lv.wavenumbers)
        expected = 0.5 * norm_sq if model == "nonrel" else math.sqrt(norm_sq + 1.0) - 1.0
        assert lv.kinetic == pytest.approx(expected, rel=1e-12)


def test_first_four_cubic_levels_kg():
    req = SpectrumRequest(model="kg", box=BoxSpec.cube(300.0), count=4)
    levels = enumerate_levels(req)
    assert [lv.qnums.indices for lv in levels] == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 2),
        (1, 1, 3),
    ]
    assert [lv.degeneracy for lv in levels] == [1, 3, 3, 3]
    assert sum(lv.degeneracy for lv in levels) == 10


def test_first_four_cubic_levels_dirac_spin():
    req = SpectrumRequest(
        model="dirac", box=BoxSpec.cube(300.0), count=4, spin_counting=True
    )
    levels = enumerate_levels(req)
    assert [lv.qnums.indices for lv in levels] == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 2),
        (1, 1, 3),
    ]
    assert [lv.degeneracy for lv in levels] == [2, 6, 6, 6]


def test_enumeration_strictly_increasing_no_duplicates():
    req = SpectrumRequest(model="kg", box=BoxSpec.cube(1.0), count=20)
    levels = enumerate_levels(req)
    kinetics = [lv.kinetic for lv in levels]
    assert kinetics == sorted(kinetics)
    assert all(b > a * (1 + 1e-10) for a, b in zip(kinetics, kinetics[1:]))
    reps = [lv.qnums.indices for lv in levels]
    assert len(set(reps)) == len(reps)


def test_accidental_degeneracy_is_merged():
    """(1,1,5) and (3,3,3) share |n|^2 = 27 on a cube: one level, summed
    degeneracy, both representatives kept."""
    # independent index: position of 27 among distinct sums a^2+b^2+c^2
    sums = sorted({a * a + b * b + c * c for a, b, c in itertools.product(range(1, 9), repeat=3)})
    index = sums.index(27)
    req = SpectrumRequest(model="kg", box=BoxSpec.cube(1.0), count=index + 1)
    level = enumerate_levels(req)[-1]
    members = {level.qnums.indices} | {q.indices for q in level.also}
    assert members == {(1, 1, 5), (3, 3, 3)}
    assert level.degeneracy == 3 + 1


def test_1d_enumeration_and_spin_factor():
    req = SpectrumRequest(model="dirac", box=BoxSpec((1.0,)), count=3, spin_counting=True)
    levels = enumerate_levels(req)
    assert [lv.qnums.indices for lv in levels] == [(1,), (2,), (3,)]
    assert all(lv.degeneracy == 2 for lv in levels)
    req = SpectrumRequest(model="kg", box=BoxSpec((1.0,)), count=3, spin_counting=True)
    assert all(lv.degeneracy == 1 for lv in enumerate_levels(req))


@pytest.mark.parametrize("n_max", [2, 3, 5])
def test_cubic_multiplicities_partition_the_lattice(n_max):
    """The cube walk's weights over its sorted triples with no index past
    n_max sum to n_max^3.  The walk's shell holds every mode (threshold 0,
    an empty interior) out to |n|^2 = 3 n_max^2 + 1/2, which covers that
    cube; with the interior out to |n|^2 = n_max^2 + 1/2, interior and shell
    weigh every lattice triple in the ball."""
    radius_sq = 3 * n_max**2
    limit = 0.5 * (radius_sq + 0.5)
    inside, shell = _split_lattice("nonrel", BoxSpec.cube(math.pi), 0.0, limit)
    assert inside == 0
    assert sum(w for t, w in shell if max(t) <= n_max) == n_max**3
    ball = sum(
        1
        for t in itertools.product(range(1, n_max * 2 + 1), repeat=3)
        if sum(n * n for n in t) <= radius_sq
    )
    inside, shell = _split_lattice("nonrel", BoxSpec.cube(math.pi), 0.5 * (n_max**2 + 0.5), limit)
    assert inside > 0 and inside + sum(w for _, w in shell) == ball


@pytest.mark.parametrize("lengths", [(math.pi,) * 3, (1.0, 1.3, 2.1)], ids=["cube", "box"])
@pytest.mark.parametrize("model", MODELS)
def test_split_lattice_matches_brute_force_edge_sums(model, lengths):
    """The walk's shell is every mode whose spin-0 |x|^2 passes the budget
    at ``threshold`` and whose sum of squared branch edges, (n_i - 1/2) pi
    / L_i for spin-1/2, is within the budget at ``limit`` (on the cube its
    sorted triples, weighing their permutations).  Interior and shell weigh
    every mode in that edge-sum ball, and the interior holds the rest.  The
    budgets at ``limit`` sit just below and just above each edge sum that
    opens a column, where the walk's loop tests decide."""
    box = BoxSpec(lengths)
    shift = 0.5 if model == "dirac" else 0.0

    def norm_sq(triple, edge):
        return sum(((n - edge) * math.pi / length) ** 2 for n, length in zip(triple, lengths))

    triples = list(itertools.product(range(1, 20), repeat=3))
    spin0 = {t: norm_sq(t, 0.0) for t in triples}
    lowest = {t: norm_sq(t, shift) for t in triples}
    inner = 60.4  # |x|^2 budget at threshold
    openers = {lowest[n1, n2, n2 if box.is_cube else 1]
               for n1, n2 in itertools.product(range(1, 20), repeat=2)}
    budgets = [s * factor for s in sorted(openers) if 100.0 < s < 150.0
               for factor in (1 - 1e-6, 1 + 1e-6)]
    assert len(budgets) >= 8
    sums = sorted({*spin0.values(), *lowest.values()})
    for outer in budgets:
        for budget in (inner, outer):  # no sum within rounding of a budget
            near = sums[max(bisect.bisect(sums, budget) - 1, 0):][:2]
            assert all(abs(s - budget) > 1e-7 * budget for s in near)
        ball = [t for t in triples if lowest[t] <= outer]
        assert max(map(max, ball)) < 19
        shell = Counter(tuple(sorted(t)) if box.is_cube else t
                        for t in ball if spin0[t] > inner)
        inside, split = _split_lattice(model, box, _kinetic(model, inner), _kinetic(model, outer))
        assert len(split) == len(shell) and dict(split) == shell
        assert inside == sum(1 for t in ball if spin0[t] <= inner)
        assert inside + sum(shell.values()) == len(ball)


def _kinetic(model, norm_sq):
    return 0.5 * norm_sq if model == "nonrel" else _relativistic_kinetic(norm_sq)


def test_cube_counts_equal_the_box_one_ulp_longer():
    """A cube walks sorted triples weighed by their 1, 3 or 6 permutations;
    the box with its third side one ulp longer walks every triple with
    weight 1.  Both give the same count over a seeded spread of sides in
    [0.3, 50] and cutoffs in [0.1, 30], the cutoff held where no axis index
    passes 60 so that the box walk stays quick."""
    rng = random.Random(7)
    for case in range(60):
        model = MODELS[case % 3]
        length = math.exp(rng.uniform(math.log(0.3), math.log(50.0)))
        x_max = 60.0 * math.pi / length
        t_max = min(30.0, 0.5 * x_max**2 if model == "nonrel" else _relativistic_kinetic(x_max**2))
        tmax = math.exp(rng.uniform(math.log(0.1), math.log(t_max)))
        box = BoxSpec((length, length, math.nextafter(length, math.inf)))
        assert count_states(model, BoxSpec.cube(length), tmax) == count_states(model, box, tmax)


def test_count_boundary_convention_includes_equal():
    # (1,1,1) on the cube of side pi sits exactly at kinetic = 1
    assert count_states("kg", BoxSpec.cube(math.pi), 1.0) == 1


def test_count_matches_exhaustive_oracle():
    box = BoxSpec.cube(0.5)
    for tmax in (5.0, 17.3, 40.0):
        assert count_states("kg", box, tmax) == lattice_count(box.lengths, tmax, 10)
    box300 = BoxSpec.cube(300.0)
    assert count_states("nonrel", box300, 4e-4) == lattice_count(
        box300.lengths, 4e-4, 20, quadratic=True
    )


@pytest.fixture
def solved(monkeypatch):
    """Index triples handed to ``level_3d`` by the enumerator, in order."""
    triples = []
    unpatched = relbox.spectra.level_3d

    def recording_level_3d(model, qnums, box):
        triples.append(qnums.indices)
        return unpatched(model, qnums, box)

    monkeypatch.setattr(relbox.spectra, "level_3d", recording_level_3d)
    return triples


def test_dirac_count_solves_only_the_lower_bound_ellipsoid(solved):
    """Enumerating to kinetic 100 on the unit cube solves the sorted triples
    whose branch lower bound sum((n_i - 1/2) pi)^2 reaches the cutoff, each
    once."""
    request = SpectrumRequest("dirac", BoxSpec.cube(1.0), max_kinetic=100.0)
    assert sum(lv.degeneracy for lv in enumerate_levels(request)) == 17061
    norm_sq_max = 100.0 * 102.0  # kinetic T <=> |x|^2 <= T (T + 2)
    inside = {
        t
        for t in itertools.combinations_with_replacement(range(1, 40), 3)
        if sum(((n - 0.5) * math.pi) ** 2 for n in t) <= norm_sq_max
    }
    assert len(inside) == 3199
    assert len(solved) == len(set(solved)) == 3199
    assert set(solved) == inside


def _relativistic_kinetic(norm_sq):
    return norm_sq / (math.sqrt(norm_sq + 1.0) + 1.0)


def test_dirac_count_solves_only_the_cutoff_shell(solved):
    """Counting to kinetic 100 on the unit cube solves only the sorted
    triples that the two bracket energies leave undecided: spin-0 energy
    above 100 (1 - 2e-9) and branch-edge energy at most 100 (1 + 1e-9)."""
    assert count_states("dirac", BoxSpec.cube(1.0), 100.0) == 17061
    shell = {
        t
        for t in itertools.combinations_with_replacement(range(1, 40), 3)
        if _relativistic_kinetic(sum((n * math.pi) ** 2 for n in t)) > 100.0 * (1 - 2e-9)
        and _relativistic_kinetic(sum(((n - 0.5) * math.pi) ** 2 for n in t))
        <= 100.0 * (1 + 1e-9)
    }
    assert len(shell) == 222
    assert len(solved) == len(set(solved)) == 222
    assert set(solved) == shell


@st.composite
def count_requests(draw):
    """(model, box, cutoff, spin counting) with L_i in [0.3, 5] and T <= 30.

    In 3D the cutoff stays where no axis index passes 10, so the exhaustive
    enumeration it is checked against stays quick; a third of the cutoffs
    sit on a level's energy or within a merge tolerance of it.
    """
    model = draw(st.sampled_from(MODELS))
    shape = draw(st.sampled_from(["1d", "cube", "box"]))
    length = st.floats(0.3, 5.0)
    if shape == "1d":
        box = BoxSpec((draw(length),))
        t_max = 30.0
    else:
        lengths = (draw(length),) * 3 if shape == "cube" else tuple(draw(length) for _ in range(3))
        box = BoxSpec(lengths)
        x_max = 10.0 * math.pi / max(lengths)
        t_max = min(30.0, 0.5 * x_max**2 if model == "nonrel" else _relativistic_kinetic(x_max**2))
    if draw(st.integers(0, 2)) == 0:
        indices = tuple(draw(st.integers(1, 4)) for _ in box.lengths)
        level = (level_1d(model, indices[0], box.lengths[0]) if shape == "1d"
                 else level_3d(model, QuantumNumbers(indices), box))
        factor = draw(st.sampled_from([1.0, 1 - 2e-9, 1 - 1e-9, 1 - 5e-10, 1 + 5e-10, 1 + 1e-9]))
        tmax = min(t_max, level.kinetic * factor)
    else:
        tmax = draw(st.floats(1e-3, t_max))
    return model, box, tmax, draw(st.booleans())


@settings(deadline=None, max_examples=200)
@given(count_requests())
def test_count_equals_enumerated_degeneracy_sum(case):
    model, box, tmax, spin = case
    request = SpectrumRequest(model, box, max_kinetic=tmax, spin_counting=spin)
    assert count_states(model, box, tmax, spin) == sum(
        lv.degeneracy for lv in enumerate_levels(request)
    )


@pytest.mark.parametrize("model", ["kg", "nonrel"])
@pytest.mark.parametrize("low, high", [((1, 1, 5), (3, 3, 3)), ((2, 2, 11), (4, 7, 8))])
def test_count_at_a_cutoff_inside_an_accidental_degeneracy(model, low, high):
    """With the cutoff on the lower float of two equal-|n|^2 triples, the
    upper one (a few ulps above it) joins its level and counts too."""
    box = BoxSpec.cube(1.0)
    cutoff = level_3d(model, QuantumNumbers(low), box).kinetic
    assert level_3d(model, QuantumNumbers(high), box).kinetic > cutoff
    request = SpectrumRequest(model, box, max_kinetic=cutoff)
    total = count_states(model, box, cutoff)
    assert total == sum(lv.degeneracy for lv in enumerate_levels(request))
    assert total == lattice_count(box.lengths, cutoff * (1 + 1e-12), 12,
                                  quadratic=model == "nonrel")


@pytest.mark.parametrize("length", [0.3, 1.0, 7.0])
@pytest.mark.parametrize("model", MODELS)
def test_count_with_an_empty_interior_next_to_the_lowest_level(model, length):
    """Cutoffs within a few MERGE_REL_TOL of the (1, 1, 1) level leave the
    interior empty or hold that one mode, and put the level within the
    merge tolerance of the shell's bound; the count is the enumerated
    degeneracy sum at each."""
    box = BoxSpec.cube(length)
    lowest = level_3d(model, QuantumNumbers((1, 1, 1)), box).kinetic
    for factor in (1 - 3e-9, 1 + 3e-9, 1 - 1e-9, 1 + 1e-9, 1 - 3e-10, 1 + 3e-10, 1.0):
        cutoff = lowest * factor
        request = SpectrumRequest(model, box, max_kinetic=cutoff)
        assert count_states(model, box, cutoff) == sum(
            lv.degeneracy for lv in enumerate_levels(request)
        )


@pytest.mark.parametrize(
    "model, lengths, tmax, count",
    [
        ("kg", (1000.0, 1000.0, 1000.0), 1.0, 87388962),
        ("nonrel", (1000.0, 1100.0, 1200.0), 0.5, 22146919),
        ("dirac", (300.0, 310.0, 320.0), 0.1, 46412),
    ],
    ids=["kg-cube", "nonrel-box", "dirac-box"],
)
def test_large_walk_counts_are_pinned(model, lengths, tmax, count):
    """The three large counts whose walk times are tracked, pinned so that
    a faster walk or a thinner spin-1/2 shell must keep them exactly."""
    assert count_states(model, BoxSpec(lengths), tmax) == count


@pytest.mark.parametrize(
    "oracle, count",
    [
        (lambda: integer_cube_count(1000.0, 1.0), 87388962),
        (lambda: integer_cube_count(3000.0, 1.0), 2365939818),
        (lambda: spin0_box_count((1000.0, 1100.0, 1200.0), 0.5, quadratic=True), 22146919),
    ],
    ids=["kg-cube-1000", "kg-cube-3000", "nonrel-box"],
)
def test_pinned_spin0_counts_follow_independent_oracles(oracle, count):
    """The pinned spin-0 counts, and the (3000)^3 count that the walk budget
    now refuses, from integer and per-axis table oracles that run neither
    the walk nor a solver.  Every mode lies more than ten merge tolerances
    from the cutoff, so no merged level can cross it."""
    counted, margin = oracle()
    assert margin > 10 * MERGE_REL_TOL
    assert counted == count


@pytest.mark.parametrize(
    "lengths, tmax, count",
    [((300.0, 310.0, 320.0), 0.1, 46412), ((1.0, 1.0, 1.0), 100.0, 17061)],
    ids=["pinned-box", "unit-cube"],
)
def test_spin_half_counts_follow_a_one_sweep_oracle(lengths, tmax, count):
    """The pinned spin-1/2 count and the unit-cube count, from one sweep of
    bisected axis roots at the cutoff, with no coupled solve; every sweep
    lies more than ten merge tolerances from the cutoff, and so does every
    level."""
    counted, margin = dirac_one_sweep_count(lengths, tmax)
    assert margin > 10 * MERGE_REL_TOL
    assert counted == count


@pytest.mark.parametrize("chain", [40, 41])
def test_merge_chain_below_the_shell_widens_it(chain):
    """Synthetic levels 0.6 MERGE_REL_TOL apart from T (1 - 0.6 tol (chain - 1))
    up past the cutoff T merge in pairs counted from the bottom of the
    chain, so the first shell cannot tell which of them start a level.  The
    count must widen the shell to the chain's bottom and agree with
    ``_merge_sorted`` on every mode; which way the level above the cutoff
    goes depends on the parity of the chain."""
    cutoff = 50.0
    kinetics = [cutoff * (1.0 - 0.6 * MERGE_REL_TOL * k) for k in range(-3, chain)]
    kinetics += [1.0, 7.5, cutoff * (1.0 - 1e-6)]
    entries = [
        (Level("kg", QuantumNumbers((i + 1, 1, 1)), (1.0, 1.0, 1.0), e, 1), 1 + i % 3)
        for i, e in enumerate(kinetics)
    ]
    limit = cutoff * (1.0 + MERGE_REL_TOL)
    thresholds = []

    def split(threshold):
        thresholds.append(threshold)
        inside = sum(w for lv, w in entries if lv.kinetic <= threshold)
        return inside, [(lv, w) for lv, w in entries if threshold < lv.kinetic <= limit]

    reachable = [(lv, w) for lv, w in entries if lv.kinetic <= limit]
    levels = _merge_sorted(reachable)
    expected = sum(lv.degeneracy for lv in levels if lv.kinetic <= cutoff)
    assert _count_from_shell(split, cutoff) == expected
    assert len(thresholds) > 1
    first_inside, first_shell = split(thresholds[0])
    assert first_inside > 0
    assert _count_shell(first_shell, thresholds[0], cutoff) is None
    # the level just above the cutoff joins the one at it for an odd chain
    above = next(lv for lv in levels if lv.kinetic > cutoff * (1.0 - 0.3 * MERGE_REL_TOL))
    assert (above.kinetic <= cutoff) == (chain % 2 == 1)


@pytest.mark.parametrize(
    "lengths, tmax, count",
    [
        ((1.0, 1.0, 1.0), 1000.0, 16817874),
        ((1.0, 1.3, 1.7), 300.0, 999030),
        ((0.7, 1.1, 2.9), 400.0, 2393345),
        ((2.0, 2.0, 3.0), 150.0, 683203),
    ],
)
def test_large_kg_counts_follow_the_weyl_expansion(lengths, tmax, count):
    """Counts far beyond the enumeration bound, within 1% of the surface
    term of the Weyl expansion for the Dirichlet box."""
    assert count_states("kg", BoxSpec(lengths), tmax) == count
    k = math.sqrt(tmax * (tmax + 2.0))
    a, b, c = lengths
    surface_term = 2.0 * (a * b + b * c + c * a) * k * k / (16.0 * math.pi)
    assert abs(count - weyl_count(lengths, k)) <= 0.01 * surface_term


@pytest.mark.parametrize("model, count, spin", [("kg", 300, False), ("dirac", 200, True)])
def test_count_request_solves_each_reachable_triple_once(solved, model, count, spin):
    """A count request on the unit cube solves, once each, every sorted
    triple whose lower bound (spin-0 energy, or branch-edge energy for
    spin-1/2) can reach the count-th level K with the two merge margins,
    and, finding K by doubling, none bound above 2 K (1 + 1e-9)."""
    request = SpectrumRequest(model, BoxSpec.cube(1.0), count=count, spin_counting=spin)
    last = enumerate_levels(request)[-1].kinetic
    shift = 0.5 if model == "dirac" else 0.0

    def lower_bound(triple):
        return _relativistic_kinetic(sum(((n - shift) * math.pi) ** 2 for n in triple))

    margin = 1.0 + MERGE_REL_TOL
    needed = {
        t
        for t in itertools.combinations_with_replacement(range(1, 40), 3)
        if lower_bound(t) <= last * margin * margin
    }
    assert len(solved) == len(set(solved))
    assert needed <= set(solved)
    assert max(lower_bound(t) for t in solved) <= 2.0 * last * margin


@pytest.mark.parametrize(
    "model, lengths, spin, merges",
    [
        ("kg", (1.0, 1.0, 1.0), False, True),  # (1,1,5) with (3,3,3)
        ("dirac", (1.0, 1.0, 1.0), True, False),
        ("dirac", (1.0, 1.1, 1.2), False, False),
        ("nonrel", (2.0, 2.0, 3.0), False, True),  # swapped equal axes
    ],
)
def test_count_request_matches_exhaustive_lattice(model, lengths, spin, merges):
    """First 30 levels, representatives, merged extras and degeneracies as
    an exhaustive scan of the 8^3 lattice gives them."""
    box = BoxSpec(lengths)
    count, n_max = 30, 8
    req = SpectrumRequest(model=model, box=box, count=count, spin_counting=spin)
    levels = enumerate_levels(req)
    expected = lattice_levels(
        lambda t: level_3d(model, QuantumNumbers(t), box).kinetic,
        lengths, n_max, count,
    )
    factor = 2 if spin else 1
    assert [
        (lv.qnums.indices, tuple(q.indices for q in lv.also), lv.degeneracy, lv.kinetic)
        for lv in levels
    ] == [(t, also, factor * w, k) for t, also, w, k in expected]
    # the 8^3 lattice holds every mode that can reach the last level
    shift = 0.5 if model == "dirac" else 0.0
    outside = min(
        (n_max + 1 - shift) ** 2 * (math.pi / length) ** 2 for length in lengths
    )
    last = levels[-1].kinetic
    assert outside > (2.0 * last if model == "nonrel" else last * (last + 2.0))
    assert any(lv.also for lv in levels) == merges


def test_count_equals_sum_of_enumerated_degeneracies():
    box = BoxSpec.cube(0.7)
    req = SpectrumRequest(model="dirac", box=box, max_kinetic=12.0)
    levels = enumerate_levels(req)
    assert count_states("dirac", box, 12.0) == sum(lv.degeneracy for lv in levels)


def test_dirac_counts_dominate_kg_per_polarization():
    box = BoxSpec.cube(0.5)
    for tmax in [1.0 + 39.0 * k / 19.0 for k in range(20)]:
        assert count_states("dirac", box, tmax) >= count_states("kg", box, tmax)


def test_spin_lowering_every_level():
    for box_length in (1.0, 10.0, 100.0, 300.0):
        for n in range(1, 5):
            assert (
                level_1d("dirac", n, box_length).kinetic
                < level_1d("kg", n, box_length).kinetic
            )
        box = BoxSpec.cube(box_length)
        for triple in itertools.combinations_with_replacement((1, 2, 3), 3):
            qn = QuantumNumbers(triple)
            assert level_3d("dirac", qn, box).kinetic < level_3d("kg", qn, box).kinetic


@pytest.mark.parametrize("model", ["kg", "dirac", "nonrel"])
def test_kinetic_decreases_with_box_size(model):
    values_1d = [level_1d(model, 2, L).kinetic for L in (0.5, 1.0, 5.0, 50.0)]
    assert all(a > b for a, b in zip(values_1d, values_1d[1:]))
    values_3d = [
        level_3d(model, QuantumNumbers((1, 2, 2)), BoxSpec.cube(L)).kinetic
        for L in (0.5, 1.0, 5.0, 50.0)
    ]
    assert all(a > b for a, b in zip(values_3d, values_3d[1:]))


def test_nonrelativistic_convergence_is_monotone():
    gaps = []
    for box_length in (10.0, 30.0, 100.0, 300.0):
        dirac = level_1d("dirac", 1, box_length).kinetic
        nonrel = level_1d("nonrel", 1, box_length).kinetic
        gaps.append(abs(dirac - nonrel) / nonrel)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def _figure_table(models, lcs, count, dim):
    return spectrum_table(models, [(lc, BoxSpec.cube(lc, dim=dim)) for lc in lcs], count)


def _rows_of(table, model):
    """(lc, qnums) -> kinetic for one model's rows."""
    return {
        (lc, tuple(q)): t
        for m, lc, q, t in zip(table["model"], table["lc"], table["qnums"], table["kinetic"])
        if m == model
    }


def test_figure_table_row_counts_and_order():
    table = _figure_table(["kg", "dirac", "nonrel"], [1.0, 10.0, 100.0, 300.0], 4, 1)
    models = table["model"]
    assert len(models) == 36  # 4 levels x 4 sizes x 2 models + 4 nonrel at 300
    assert models == ["kg"] * 16 + ["dirac"] * 16 + ["nonrel"] * 4
    assert table["lc"][32:] == [300.0] * 4
    lcs = table["lc"][:16]
    assert lcs == sorted(lcs)
    assert list(table) == [
        "model", "dim", "lc", "qnums", "wavenumbers", "kinetic", "degeneracy", "also"
    ]
    assert all(len(column) == 36 for column in table.values())


def test_figure_table_unit_box_kg_values():
    kinetic = _figure_table(["kg"], [1.0], 4, 1)["kinetic"]
    assert len(kinetic) == len(KG_UNIT_BOX_T)
    for value, expected in zip(kinetic, KG_UNIT_BOX_T):
        assert value == pytest.approx(expected, rel=1e-13)


def test_figure_table_large_box_models_agree():
    table = _figure_table(["kg", "dirac"], [300.0], 4, 1)
    kg, dirac = _rows_of(table, "kg"), _rows_of(table, "dirac")
    assert kg.keys() == dirac.keys()
    for key, a in kg.items():
        assert abs(a - dirac[key]) / a < 0.01


def test_figure_table_dirac_rows_below_kg_3d():
    table = _figure_table(["kg", "dirac"], [1.0, 10.0], 3, 3)
    kg, dirac = _rows_of(table, "kg"), _rows_of(table, "dirac")
    assert kg.keys() == dirac.keys()
    for key, val in dirac.items():
        assert val < kg[key]


def test_spectrum_table_validation():
    box = [(1.0, BoxSpec.cube(1.0, dim=1))]
    with pytest.raises(ValueError):
        spectrum_table(["kg", "muon"], box, 1)
    with pytest.raises(ValueError):
        spectrum_table(["kg"], [], 1)
    with pytest.raises(ValueError):
        spectrum_table(["kg"], box)  # neither count nor max_kinetic


def test_capacity_error_is_explicit(monkeypatch):
    monkeypatch.setattr(relbox.spectra, "_WALK_BUDGET", 16)
    req = SpectrumRequest(model="kg", box=BoxSpec.cube(1.0), max_kinetic=1000.0)
    with pytest.raises(CapacityError, match="shell modes than the walk budget 16$"):
        enumerate_levels(req)
    req1d = SpectrumRequest(model="kg", box=BoxSpec((1.0,)), max_kinetic=1000.0)
    with pytest.raises(CapacityError, match="^1D enumeration needs 318 levels, above the walk "
                                            "budget 16$"):
        enumerate_levels(req1d)


# Requests whose largest 3D walk visits 145 to 1278 columns and shell modes.
_BUDGETED_REQUESTS = {
    "count-dirac-cube": lambda: count_states("dirac", BoxSpec.cube(1.0), 100.0),
    "count-nonrel-box": lambda: count_states("nonrel", BoxSpec((1.0, 2.0, 3.0)), 500.0),
    "levels-kg-cube": lambda: enumerate_levels(SpectrumRequest("kg", BoxSpec.cube(1.0),
                                                               count=200)),
    "levels-dirac-box": lambda: enumerate_levels(
        SpectrumRequest("dirac", BoxSpec((1.0, 1.3, 1.7)), max_kinetic=30.0)),
}


@pytest.mark.parametrize("request_name", sorted(_BUDGETED_REQUESTS))
def test_a_smaller_walk_budget_never_answers_what_a_larger_refuses(monkeypatch, request_name):
    """Each budget either gives the answer of the default budget or refuses
    with a message naming itself, and once a budget refuses, every smaller
    one refuses too: the walks do not depend on the budget."""
    run = _BUDGETED_REQUESTS[request_name]
    answer = run()
    outcomes = []
    for budget in (10_000, 3_000, 1_000, 300, 100, 30, 10, 3, 1):
        monkeypatch.setattr(relbox.spectra, "_WALK_BUDGET", budget)
        try:
            outcomes.append(run() == answer)
        except CapacityError as exc:
            assert str(exc).endswith(f"the walk budget {budget}")
            outcomes.append(None)
    assert all(outcomes[:outcomes.index(None)])
    assert set(outcomes[outcomes.index(None):]) == {None}


def test_dirac_count_up_to_index_96_matches_an_independent_count():
    """At L = 1, T = 300 spin-1/2 shell modes reach index 96.  Every mode
    whose spin-0 energy is at most T counts (its spin-1/2 energy is lower);
    the 1839 sorted triples above it whose branch-edge energy reaches T are
    solved by the Newton oracle, none within 1e-8 of T, so no merged level
    crosses the cutoff."""
    cutoff = 300.0

    def kinetic(triple, shift=0.0):
        return _relativistic_kinetic(sum(((n - shift) * math.pi) ** 2 for n in triple))

    triples = list(itertools.combinations_with_replacement(range(1, 101), 3))
    # no spin-0 energy within rounding of T, so lattice_count splits as this test does
    assert all(abs(kinetic(t) - cutoff) > 1e-9 * cutoff for t in triples)
    interior = lattice_count((1.0,) * 3, cutoff, 100)
    shell = [t for t in triples if kinetic(t, 0.5) <= cutoff < kinetic(t)]
    assert len(shell) == 1839 and max(map(max, shell)) == 96
    solved = [newton_wavenumbers_3d(t, (1.0,) * 3)[3] for t in shell]
    assert all(abs(k - cutoff) > 1e-8 * cutoff for k in solved)
    counted = sum(
        len(set(itertools.permutations(t))) for t, k in zip(shell, solved) if k <= cutoff
    )
    assert count_states("dirac", BoxSpec.cube(1.0), cutoff) == interior + counted == 457573


@pytest.mark.parametrize("model", ["kg", "dirac"])
def test_1d_enumeration_past_the_bound_is_refused_at_once(model):
    """About 1.6e5 levels lie below kinetic 50 at L = 1e4: refused from the
    bisected count, without solving the first 1e5 of them."""
    request = SpectrumRequest(model, BoxSpec((1e4,)), max_kinetic=50.0)
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        enumerate_levels(request)
    assert time.perf_counter() - start < 0.1


def test_3d_enumeration_past_the_bound_is_refused_before_any_solve(solved):
    """Indices up to ~1e5 on the long axes would reach kinetic 1e4; the walk
    passes the walk budget among its columns, before any mode is solved."""
    request = SpectrumRequest("kg", BoxSpec((1.0, 30.0, 30.0)), max_kinetic=1e4)
    with pytest.raises(CapacityError):
        enumerate_levels(request)
    assert solved == []


@pytest.mark.parametrize("length", [1e170, 1e-160])
def test_3d_count_request_with_degenerate_lower_bounds_is_refused(length):
    """At L = 1e170 every lower bound a walk can reach underflows to 0, so
    the first walk passes the walk budget; at L = 1e-160 every one
    overflows, so the reach stops at the largest finite budget with no level
    in it.  Either way the request is refused at once instead of looping."""
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        enumerate_levels(SpectrumRequest("kg", BoxSpec.cube(length), count=4))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("model", MODELS)
def test_count_1d_beyond_float64_resolution_is_a_capacity_error(model):
    """At L = 1e300 the branch-edge index bound overflows: a typed error at
    once, not an OverflowError or a scan over ~1e304 indices."""
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        count_states(model, BoxSpec((1e300,)), 1e10)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("length", [1e-155, math.pi * 1e-154])
@pytest.mark.parametrize("model", ["kg", "dirac"])
def test_3d_count_with_overflowing_energies_is_not_a_silent_zero(model, length):
    """At L = 1e-155 every |x|^2 overflows; at L = pi 1e-154 each x_i^2 is
    1e308 but their sum overflows.  The relativistic energy
    |x|^2 / (sqrt(|x|^2 + 1) + 1) is then NaN, although each mode's energy
    (~5e155) lies below the cutoff: a typed error, not a count of 0.  The
    quadratic energy overflows to +inf, above the cutoff, so 0 is right."""
    box = BoxSpec.cube(length)
    with pytest.raises(CapacityError):
        count_states(model, box, 1e170)
    assert count_states("nonrel", box, 1e170) == 0


@pytest.mark.parametrize("run", [
    pytest.param(lambda: count_states("kg", BoxSpec.cube(1e308), 1e150), id="kg-index-inf"),
    pytest.param(lambda: count_states("dirac", BoxSpec.cube(math.pi / 1.4e154), 1.25e154),
                 id="dirac-count"),
    pytest.param(lambda: enumerate_levels(
        SpectrumRequest("dirac", BoxSpec.cube(2.244e-154), count=5)), id="dirac-levels"),
])
def test_3d_column_floors_past_float64_are_capacity_errors(run):
    """At L = 1e308, T = 1e150 a column's interior floor L sqrt(|x|^2) / pi is
    +inf; at the dirac cubes each (n pi / L)^2 overflows although the branch
    edges pass the budget, so the column's interior is empty and the solved
    levels overflow: typed errors, not an OverflowError."""
    with pytest.raises(CapacityError):
        run()


_INDEX_REFUSAL = "count needs indices above 2**53 (float64 resolution)"


@pytest.mark.parametrize("model, length, message", [
    ("nonrel", 1.05e15, "than the walk budget 100000"),
    ("kg", 1e17, _INDEX_REFUSAL),
    ("dirac", 1e17, _INDEX_REFUSAL),
    ("nonrel", 1e17, _INDEX_REFUSAL),
], ids=["nonrel-1.05e15-walk-budget", "kg-1e17-index", "dirac-1e17-index", "nonrel-1e17-index"])
def test_the_walk_budget_refuses_below_2_53_and_the_index_rule_from_it(model, length, message):
    """On (1, 1, L3) at T = 100 the first column's interior ends near
    4.5 L3 (nonrel) or 32 L3 (kg, dirac).  Below 2**53 (nonrel at
    L3 = 1.05e15, ~4.7e15) its ~7e6 shell modes pass the walk budget; from
    2**53 on the index rule refuses the column before its shell is walked."""
    with pytest.raises(CapacityError) as refused:
        count_states(model, BoxSpec((1.0, 1.0, length)), 100.0)
    assert str(refused.value).endswith(message)


@pytest.mark.parametrize("model", ["kg", "dirac"])
def test_3d_count_with_an_overflowing_cutoff_is_a_capacity_error(model):
    """|x|^2 = T (T + 2) at T = 1e160 overflows, so no column floor can be
    taken: a typed error, not an OverflowError."""
    with pytest.raises(CapacityError):
        count_states(model, BoxSpec.cube(1.0), 1e160)


@pytest.mark.parametrize("model", ["kg", "dirac"])
def test_count_with_overflowing_energies_below_a_finite_budget_is_zero(model):
    """Every |x|^2 overflows, so every energy lies above ~1.3e154 and above
    a cutoff of 1, whose budget T (T + 2) is finite: 0 states, in 1D and 3D."""
    assert count_states(model, BoxSpec((1e-160,)), 1.0) == 0
    assert count_states(model, BoxSpec.cube(1e-155), 1.0) == 0


# A cube whose 4th kg level, (1, 1, 3), has |x|^2 = 11 (pi / L)^2 below the
# float64 maximum, while 12 (pi / L)^2, reached by doubling the walk from
# the (1, 1, 1) level, overflows it.
_EDGE_OF_RANGE_CUBE = math.pi / math.sqrt(sys.float_info.max / 11.5)


@pytest.mark.parametrize(
    "model, length",
    [("kg", 1e-152), ("dirac", 1e-152), ("kg", _EDGE_OF_RANGE_CUBE)],
)
def test_3d_count_request_past_an_overflowing_lattice_probe(model, length):
    """|x|^2 overflows from |n|^2 of about 1800 on at L = 1e-152, and from 12
    on at the edge-of-range cube, but the first four levels are finite: each
    lies between its branch-edge bound and the spin-0 energy pi |n| / L (to
    rounding, as |x| >> 1 there)."""
    levels = enumerate_levels(SpectrumRequest(model, BoxSpec.cube(length), count=4))
    assert [lv.qnums.indices for lv in levels] == [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 3)]
    assert [lv.degeneracy for lv in levels] == [1, 3, 3, 3]
    for level in levels:
        n = level.qnums.indices
        spin0 = math.pi / length * math.sqrt(sum(i * i for i in n))
        assert math.isfinite(level.kinetic)
        if model == "kg":
            assert level.kinetic == pytest.approx(spin0, rel=1e-14)
        else:
            edge = math.pi / length * math.sqrt(sum((i - 0.5) ** 2 for i in n))
            assert edge * (1 - 1e-14) <= level.kinetic < spin0


def test_3d_enumeration_with_an_overflowing_budget_is_refused():
    """With the lattice probe out of range, a cutoff whose budget T (T + 2)
    overflows could hide modes whose |x|^2 overflows below it: refused
    rather than truncated."""
    with pytest.raises(CapacityError):
        enumerate_levels(SpectrumRequest("kg", BoxSpec.cube(1e-152), max_kinetic=1e160))


def test_level_with_an_overflowing_energy_is_refused():
    """x = pi * 1e160 squares to inf, and so does the kinetic energy."""
    with pytest.raises(CapacityError):
        level_1d("kg", 1, 1e-160)
    with pytest.raises(CapacityError):
        enumerate_levels(SpectrumRequest("kg", BoxSpec((1e-160,)), count=4))


@pytest.mark.parametrize("model", MODELS)
def test_levels_past_the_float_range_are_capacity_errors(model):
    """At L = 1e-160 every |x|^2 overflows, so every kinetic energy is +inf:
    both level builders refuse for every model, naming indices and box,
    instead of a ValueError or a level of infinite energy.  A 1D table is
    refused at its first level, as in 3D, and one past the walk budget by
    the budget, before any level is solved."""
    with pytest.raises(CapacityError, match=r"indices \(1,\) in box \(1e-160,\) overflows"):
        level_1d(model, 1, 1e-160)
    with pytest.raises(CapacityError, match=r"indices \(1,\) in box \(1e-160,\) overflows"):
        enumerate_levels(SpectrumRequest(model, BoxSpec.cube(1e-160, dim=1), count=4))
    with pytest.raises(CapacityError, match="^1D enumeration needs 200000 levels"):
        enumerate_levels(SpectrumRequest(model, BoxSpec.cube(1e-160, dim=1), count=200_000))
    with pytest.raises(CapacityError, match=r"indices \(1, 1, 1\) in box \(1e-160, "):
        level_3d(model, QuantumNumbers((1, 1, 1)), BoxSpec.cube(1e-160))


def test_dirac_3d_table_at_a_sweep_tolerance_below_float64_resolution(monkeypatch):
    """At 1e-16 the last bit of some roots alternates between sweeps; the
    fixed point still stops, at the first sweep that lowers no wavenumber."""
    monkeypatch.setattr(relbox.rootfind, "_SWEEP_REL_TOL", 1e-16)
    boxes = [(lc, BoxSpec.cube(lc)) for lc in (1.0, 2.0, 3.0, 5.0, 7.0, 10.0)]
    assert len(spectrum_table(["dirac"], boxes, count=20)["model"]) == 120


def test_count_1d_large_kg_is_the_closed_form_at_once():
    """3.2e13 levels, ~1e5 of them in the shell: bisected, not scanned."""
    length, tmax = 1e11, 1e3
    start = time.perf_counter()
    n = count_states("kg", BoxSpec((length,)), tmax)
    elapsed = time.perf_counter() - start
    assert n == math.floor(length * math.sqrt(tmax * (tmax + 2.0)) / math.pi)
    assert level_1d("kg", n, length).kinetic <= tmax < level_1d("kg", n + 1, length).kinetic
    assert elapsed < 0.1


def test_count_1d_dirac_with_cutoff_levels_next_to_the_tangent_pole():
    """At n ~ 3e13 in L = 1e11 the cutoff roots sit ~1e-3 above (n - 1/2) pi,
    below its ulp of 0.016: still a count between the spin-0 count and the
    branch-edge count, with the cutoff between its last level and the next."""
    length, tmax = 1e11, 1e3
    c = count_states("dirac", BoxSpec((length,)), tmax)
    edge = math.floor(length * math.sqrt(tmax * (tmax + 2.0)) / math.pi + 0.5)
    assert count_states("kg", BoxSpec((length,)), tmax) == 31862803707398 <= c <= edge
    assert level_1d("dirac", c, length).kinetic <= tmax
    assert tmax < level_1d("dirac", c + 1, length).kinetic


def test_count_needs_a_finite_cutoff():
    for box in (BoxSpec((1.0,)), BoxSpec.cube(1.0)):
        with pytest.raises(ValueError):
            count_states("kg", box, math.inf)


def test_request_validation():
    box = BoxSpec.cube(1.0)
    with pytest.raises(ValueError):
        SpectrumRequest(model="kg", box=box)
    with pytest.raises(ValueError):
        SpectrumRequest(model="kg", box=box, count=3, max_kinetic=1.0)
    with pytest.raises(ValueError):
        SpectrumRequest(model="kg", box=box, count=0)
    with pytest.raises(ValueError):
        SpectrumRequest(model="bogus", box=box, count=1)


def test_non_cubic_box_has_no_permutation_grouping():
    box = BoxSpec((1.0, 1.5, 2.0))
    req = SpectrumRequest(model="kg", box=box, count=5)
    levels = enumerate_levels(req)
    assert all(lv.degeneracy == 1 for lv in levels)
    kinetics = [lv.kinetic for lv in levels]
    assert kinetics == sorted(kinetics)
