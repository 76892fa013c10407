"""Scalar Newton solver and the 1D / 3D transcendental wavenumbers."""

import itertools
import math
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from relbox import (
    BoxSpec,
    CapacityError,
    ConvergenceError,
    QuantumNumbers,
    dirac_wavenumber_1d,
    dirac_wavenumbers_3d,
    dispersion,
    kg_wavenumber_1d,
    kg_wavenumbers_3d,
    level_3d,
)
import relbox.rootfind

from oracles import dirac_root_1d, newton_wavenumbers_3d

# Bisection-oracle roots of tan(y) + y = 0 (unit box), tolerance 1e-12.
Y1_UNIT_BOX = 2.0287578381104342
Y2_UNIT_BOX = 4.9131804394348837


def test_scalar_newton_iteration_cap(monkeypatch):
    monkeypatch.setattr(relbox.rootfind, "_SCALAR_ITER_CAP", 1)
    with pytest.raises(ConvergenceError) as excinfo:
        dirac_wavenumber_1d(1, 1.0)
    assert excinfo.value.last_estimate is not None
    assert 0.5 * math.pi <= excinfo.value.last_estimate <= math.pi


def test_kg_wavenumber_values():
    assert kg_wavenumber_1d(1, math.pi) == 1.0
    assert kg_wavenumber_1d(3, 300.0) == pytest.approx(math.pi / 100.0, rel=1e-15)


@given(st.integers(min_value=1, max_value=500), st.floats(min_value=0.01, max_value=1e3))
def test_kg_wavenumber_linearity(n, box_length):
    assert kg_wavenumber_1d(2 * n, box_length) == pytest.approx(
        2.0 * kg_wavenumber_1d(n, box_length), rel=1e-15
    )


def test_dirac_1d_against_bisection_oracle():
    assert dirac_wavenumber_1d(1, 1.0) == pytest.approx(Y1_UNIT_BOX, abs=1e-9)
    assert dirac_wavenumber_1d(2, 1.0) == pytest.approx(Y2_UNIT_BOX, abs=1e-9)
    for n in (3, 7, 15):
        for box_length in (0.5, 2.0, 40.0):
            assert dirac_wavenumber_1d(n, box_length) == pytest.approx(
                dirac_root_1d(n, box_length), abs=1e-10
            )


def test_dirac_1d_large_box_limit():
    x = dirac_wavenumber_1d(1, 300.0)
    kg = math.pi / 300.0
    assert x < kg
    assert abs(x - kg) / kg < 0.01


@pytest.mark.parametrize("box_length", [0.1, 1.0, 10.0, 100.0, 300.0])
def test_dirac_1d_strictly_increasing_and_below_kg(box_length):
    previous = 0.0
    for n in range(1, 21):
        x = dirac_wavenumber_1d(n, box_length)
        assert x > previous
        assert x < kg_wavenumber_1d(n, box_length)
        previous = x


@pytest.mark.parametrize("box_length", [1.0, 10.0, 100.0, 300.0])
def test_dirac_1d_residual(box_length):
    for n in range(1, 21):
        y = box_length * dirac_wavenumber_1d(n, box_length)
        assert abs(math.tan(y) + y / box_length) <= 1e-10


def test_dirac_1d_residual_strong_confinement():
    # For box_length = 0.1 the roots sit so close to the tangent poles that
    # the equation's slope is ~(y/L)^2; for n = 9-12 and 14-20 no double
    # near the root reaches a residual of 1e-10 (n = 13 reaches 2.6e-11),
    # so only n <= 8 is held to 1e-10 here.  Acceptance criterion 2 checks
    # n = 9-20 against the float64 floor of the root.
    for n in range(1, 9):
        y = 0.1 * dirac_wavenumber_1d(n, 0.1)
        assert abs(math.tan(y) + y / 0.1) <= 1e-10


@pytest.mark.parametrize("box_length", [10.0, 50.0, 300.0])
def test_dirac_1d_first_order_shift_bound(box_length):
    for n in range(1, 5):
        kg = kg_wavenumber_1d(n, box_length)
        gap = abs(dirac_wavenumber_1d(n, box_length) - kg) / kg
        assert gap <= 2.0 / box_length


@pytest.mark.parametrize(
    "n, box_length", [(19, 1e-7), (20, 1e-7), (2, 1e-8), (5, 1e-9)]
)
def test_dirac_1d_root_inside_bracket_shrink(n, box_length):
    # the root lies closer to the tangent pole than a bracket margin of
    # 1e-9 pi would leave
    y = box_length * dirac_wavenumber_1d(n, box_length)
    assert (n - 0.5) * math.pi < y < (n - 0.5) * math.pi + 1e-9 * math.pi
    assert dirac_wavenumber_1d(n, box_length) == pytest.approx(
        dirac_root_1d(n, box_length), rel=1e-12
    )


@settings(deadline=None, max_examples=500)
@given(
    log_length=st.floats(min_value=-8.0, max_value=300.0),
    n=st.integers(min_value=1, max_value=10**6),
)
@example(log_length=-40.0, n=11)  # n pi - delta rounds to below the pole end
def test_dirac_1d_root_in_branch_and_matches_oracle(log_length, n):
    """Any box from 1e-8 to 1e300 and any n up to 1e6: the root lies in its
    branch and agrees with the bisection oracle."""
    box_length = 10.0**log_length
    pole = (n - 0.5) * math.pi
    x = dirac_wavenumber_1d(n, box_length)
    assert pole / box_length <= x <= n * math.pi / box_length

    def f(y):
        return math.tan(y) + y / box_length

    # the oracle needs its own bracket (the branch pulled in by 1e-12) to
    # change sign, which fails where the root is that close to an end
    assume(f(pole + 1e-12) * f(n * math.pi - 1e-12) < 0.0)
    assert x == pytest.approx(dirac_root_1d(n, box_length), rel=1e-12)


@settings(deadline=None, max_examples=500)
@given(
    log_length=st.floats(min_value=8.0, max_value=300.0),
    n=st.integers(min_value=1, max_value=1000),
)
@example(log_length=17.0, n=1)
def test_dirac_1d_large_box_asymptote(log_length, n):
    """With y = x L the root solves x L + atan(x) = n pi, so in a large box
    x = n pi / (L + 1) (1 + x^2 / (3 (L + 1)) + ...), far inside the bound."""
    box_length = 10.0**log_length
    x = dirac_wavenumber_1d(n, box_length)
    asymptote = n * math.pi / (box_length + 1.0)
    bound = 4.0 * sys.float_info.epsilon + (n * math.pi / box_length) ** 2
    assert abs(x - asymptote) <= bound * asymptote


def test_dirac_1d_domain_errors():
    with pytest.raises(ValueError):
        dirac_wavenumber_1d(0, 1.0)
    with pytest.raises(ValueError):
        dirac_wavenumber_1d(1, 0.0)


def test_dirac_3d_refuses_a_1d_box():
    with pytest.raises(ValueError, match="need a 3D box, got 1D"):
        dirac_wavenumbers_3d(QuantumNumbers((1,)), BoxSpec((1.0,)))


def test_kg_3d_componentwise():
    xs = kg_wavenumbers_3d(QuantumNumbers((2, 1, 1)), BoxSpec((1.0, 2.0, 4.0)))
    assert xs == pytest.approx((2 * math.pi, math.pi / 2, math.pi / 4), rel=1e-15)


def _coupled_residual_tan(xs, kinetic, lengths):
    e = kinetic + 2.0
    return max(
        abs(math.tan(x * L) - 2.0 * e * x / (x * x - e * e))
        for x, L in zip(xs, lengths)
    )


@pytest.mark.parametrize("box_length", [0.5, 1.0, 5.0, 50.0, 300.0])
def test_dirac_3d_residual_and_branch(box_length):
    box = BoxSpec.cube(box_length)
    for n in itertools.product((1, 2, 3), repeat=3):
        xs = dirac_wavenumbers_3d(QuantumNumbers(n), box)
        assert len(xs) == 3
        # self-consistency: the shared kinetic energy of the returned roots
        kinetic = dispersion("dirac", xs)
        norm_sq = math.fsum(x * x for x in xs)
        assert kinetic == pytest.approx(math.sqrt(norm_sq + 1.0) - 1.0, rel=1e-13)
        assert _coupled_residual_tan(xs, kinetic, box.lengths) <= 1e-10
        for x, ni in zip(xs, n):
            assert (ni - 0.5) * math.pi / box_length < x < ni * math.pi / box_length


def test_dirac_3d_large_box_limit():
    xs = dirac_wavenumbers_3d(QuantumNumbers((1, 1, 1)), BoxSpec.cube(300.0))
    kg = math.pi / 300.0
    for x in xs[:3]:
        assert abs(x - kg) / kg < 0.01
    assert xs[0] == xs[1] == xs[2]


def test_dirac_3d_permutation_equivariance():
    box = BoxSpec.cube(1.0)
    base = dirac_wavenumbers_3d(QuantumNumbers((1, 2, 3)), box)
    for perm in itertools.permutations((1, 2, 3)):
        out = dirac_wavenumbers_3d(QuantumNumbers(perm), box)
        for axis, n in enumerate(perm):
            assert out[axis] == pytest.approx(base[n - 1], rel=1e-12)
        assert dispersion("dirac", out) == pytest.approx(dispersion("dirac", base), rel=1e-12)


@pytest.mark.parametrize("box_length", [1.0, 10.0, 100.0, 300.0])
def test_dirac_3d_returns_the_wavenumbers_of_its_level(box_length):
    """The solver returns the three wavenumbers alone, the very floats of
    the level that ``level_3d`` builds from them, on the triples of the 3D
    figure table and their permutations."""
    box = BoxSpec.cube(box_length)
    for low in ((1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 3)):
        for triple in set(itertools.permutations(low)):
            xs = dirac_wavenumbers_3d(QuantumNumbers(triple), box)
            assert type(xs) is tuple and len(xs) == 3
            assert xs == level_3d("dirac", QuantumNumbers(triple), box).wavenumbers


def test_dirac_3d_one_dominant_axis_reduces_to_1d():
    xs = dirac_wavenumbers_3d(QuantumNumbers((1, 1, 50)), BoxSpec.cube(1.0))
    x_1d = dirac_wavenumber_1d(50, 1.0)
    assert abs(xs[2] - x_1d) / x_1d < 1e-2


@pytest.mark.parametrize("box_length", [0.5, 1.0, 5.0, 50.0])
def test_dirac_3d_matches_newton_oracle(box_length):
    box = BoxSpec.cube(box_length)
    for n in itertools.product((1, 2, 3), repeat=3):
        fp = dirac_wavenumbers_3d(QuantumNumbers(n), box)
        nw = newton_wavenumbers_3d(n, box.lengths)
        for a, b in zip(fp[:3], nw[:3]):
            assert abs(a - b) <= 1e-10


def test_dirac_3d_non_cubic_box():
    box = BoxSpec((1.0, 2.0, 4.0))
    x1, x2, x3 = dirac_wavenumbers_3d(QuantumNumbers((2, 1, 1)), box)
    kinetic = dispersion("dirac", (x1, x2, x3))
    assert _coupled_residual_tan((x1, x2, x3), kinetic, box.lengths) <= 1e-10
    nw = newton_wavenumbers_3d((2, 1, 1), box.lengths)
    assert (x1, x2, x3) == pytest.approx(nw[:3], abs=1e-10)


@settings(deadline=None, max_examples=100)
@given(
    log_lengths=st.tuples(*[st.floats(min_value=-1.0, max_value=3.0)] * 3),
    n=st.tuples(*[st.integers(min_value=1, max_value=20)] * 3),
)
def test_dirac_3d_matches_newton_oracle_anywhere(log_lengths, n):
    lengths = tuple(10.0**v for v in log_lengths)
    fp = dirac_wavenumbers_3d(QuantumNumbers(n), BoxSpec(lengths))
    nw = newton_wavenumbers_3d(n, lengths)
    for a, b, ni, length in zip(fp[:3], nw[:3], n, lengths):
        assert (ni - 0.5) * math.pi / length <= a <= ni * math.pi / length
        assert a == pytest.approx(b, rel=1e-12)


@settings(deadline=None, max_examples=300)
@given(
    lengths=st.tuples(*[st.floats(min_value=-6.0, max_value=6.0).map(lambda v: 10.0**v)] * 3),
    n=st.tuples(*[st.integers(min_value=1, max_value=10**5)] * 3),
)
@example(lengths=(1e17, 1e17, 1e17), n=(1, 1, 1))
@example(lengths=(1.1e-6, 2.7e-6, 3.5e5), n=(1, 72602, 5473))
def test_dirac_3d_root_in_branch_anywhere(lengths, n):
    """Boxes from 1e-6 to 1e6 per axis and indices up to 1e5, including axes
    whose energy sum e dwarfs x, where the root sits next to n pi."""
    fp = dirac_wavenumbers_3d(QuantumNumbers(n), BoxSpec(lengths))
    for a, ni, length in zip(fp[:3], n, lengths):
        assert (ni - 0.5) * math.pi / length <= a <= ni * math.pi / length


@settings(deadline=None, max_examples=100)
@given(
    log_lengths=st.tuples(*[st.floats(min_value=-1.0, max_value=3.0)] * 3),
    n=st.tuples(*[st.integers(min_value=1, max_value=20)] * 3),
)
def test_dirac_3d_sweeps_descend_monotonically(log_lengths, n):
    """Each axis root rises with the energy sum and the first sweep starts at
    the spin-0 wavenumbers, the branch tops, so no axis ever rises."""
    lengths = tuple(10.0**v for v in log_lengths)
    roots = []
    solve_axis = relbox.rootfind._solve_axis

    def recording(n_i, length, e_sum):
        roots.append(solve_axis(n_i, length, e_sum))
        return roots[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relbox.rootfind, "_solve_axis", recording)
        dirac_wavenumbers_3d(QuantumNumbers(n), BoxSpec(lengths))
    assert len(roots) % 3 == 0
    for axis in range(3):
        start = n[axis] * math.pi / lengths[axis]
        sweeps = [start] + roots[axis::3]
        assert all(b <= a for a, b in zip(sweeps, sweeps[1:])), sweeps


@pytest.mark.parametrize("length", [1e-155])
def test_dirac_3d_with_an_overflowing_spin0_start_is_a_capacity_error(length):
    """The sweeps start from the spin-0 wavenumbers; at L = 1e-155 each of
    their squares overflows, and so does the |x|^2 of the level the sweeps
    reach.  The solver returns three finite wavenumbers in their branches,
    not a bracket of NaN ends reported as a convergence failure, and the
    level is a typed capacity error."""
    n = (1, 1, 2)
    box = BoxSpec.cube(length)
    xs = dirac_wavenumbers_3d(QuantumNumbers(n), box)
    assert len(xs) == 3
    for ni, x in zip(n, xs):
        assert math.isfinite(x)
        assert (ni - 0.5) * math.pi / length <= x <= ni * math.pi / length
    message = ("kinetic energy of indices (1, 1, 2) in box (1e-155, 1e-155, 1e-155) "
               "overflows float64")
    with pytest.raises(CapacityError) as excinfo:
        level_3d("dirac", QuantumNumbers(n), box)
    assert str(excinfo.value) == message


# Wavenumbers of (1, 1, 2) on the cube pi / sqrt(DBL_MAX / 5.5) from a
# 300-bit mpmath solve of the three coupled equations and T together; their
# |x|^2 is 0.6518281922193 DBL_MAX.
OVERFLOWING_START_ROOTS = (4.331704074757938e153, 4.331704074757938e153, 8.924762531500614e153)


def test_dirac_3d_with_an_overflowing_spin0_start_answers():
    """The spin-0 |x|^2 of (1, 1, 2) overflows on this cube, but the
    spin-1/2 level's does not: the first sweep takes e = |x| + 2, which is
    T + 2 to rounding there, and the sweeps reach the coupled root within
    their 1e-12 stop."""
    length = math.pi / math.sqrt(sys.float_info.max / 5.5)
    n = (1, 1, 2)
    xs = dirac_wavenumbers_3d(QuantumNumbers(n), BoxSpec.cube(length))
    kinetic = dispersion("dirac", xs)
    assert len(xs) == 3
    assert math.isfinite(kinetic)
    for ni, x, reference in zip(n, xs, OVERFLOWING_START_ROOTS):
        assert (ni - 0.5) * math.pi / length <= x < ni * math.pi / length
        assert math.isclose(x, reference, rel_tol=1e-12, abs_tol=0.0)


def test_dirac_3d_iteration_cap(monkeypatch):
    monkeypatch.setattr(relbox.rootfind, "_SWEEP_CAP", 1)
    with pytest.raises(ConvergenceError) as excinfo:
        dirac_wavenumbers_3d(QuantumNumbers((1, 1, 1)), BoxSpec.cube(0.5))
    assert excinfo.value.iterations == 1
    assert len(excinfo.value.last_estimate) == 3
    # the per-sweep largest relative update, one entry per sweep
    assert len(excinfo.value.history) == 1
    assert excinfo.value.history[0] > relbox.rootfind._SWEEP_REL_TOL
