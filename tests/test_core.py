"""Amplitude algebra, dispersion relations and charge conjugation."""

import math

import pytest
from hypothesis import given, strategies as st

from relbox import (
    BoxSpec,
    FVSpinor,
    ModeAmplitudes,
    QuantumNumbers,
    charge_conjugate,
    dispersion,
    mode_amplitudes,
    nonrel_kinetic_energy,
    scaled_kinetic_energy,
)

# Direct high-precision evaluation of the amplitude formulas at
# wavenumber 1 on the negative branch: eps = sqrt(2),
# phi0 = (1 - sqrt(2)) / (2 * 2**0.25), chi0 = (1 + sqrt(2)) / (2 * 2**0.25).
PHI0_NEG_AT_1 = -0.17415534987450326
CHI0_NEG_AT_1 = 1.0150517651282178


def test_rest_mode_is_pure_upper():
    amps = mode_amplitudes(0.0, +1)
    assert amps.phi0 == 1.0
    assert amps.chi0 == 0.0
    assert amps.scaled_energy == 1.0


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
def test_identity_positive_branch(x):
    amps = mode_amplitudes(x, +1)
    assert abs(amps.phi0**2 - amps.chi0**2 - 1.0) <= 1e-14


def test_amplitude_identity_checked_on_construction():
    # a ValueError, not an assert, so it also holds under python -O
    with pytest.raises(ValueError, match="phi0"):
        ModeAmplitudes(phi0=1.0, chi0=1.0, branch=+1, scaled_energy=1.0)
    with pytest.raises(ValueError, match="phi0"):
        ModeAmplitudes(phi0=1.0, chi0=0.0, branch=-1, scaled_energy=1.0)


@pytest.mark.parametrize("wavenumber", [1e6, 23775.601096953123, 1e17])
@pytest.mark.parametrize("branch", [+1, -1])
def test_amplitude_identity_bound_scales_with_the_amplitudes(wavenumber, branch):
    # phi0^2 - chi0^2 cancels from squares ~ wavenumber / 2, so an absolute
    # bound on the identity rejects every large wavenumber (23775.6... is the
    # 1D spin-1/2 ground state at L = 6.6e-5).
    amps = mode_amplitudes(wavenumber, branch)
    assert amps.scaled_energy == pytest.approx(wavenumber, rel=1e-9)
    for phi0, chi0 in ((amps.phi0 * (1 + 1e-9), amps.chi0),
                       (amps.phi0, amps.chi0 * (1 - 1e-9))):
        with pytest.raises(ValueError, match="phi0"):
            ModeAmplitudes(phi0=phi0, chi0=chi0, branch=branch,
                           scaled_energy=amps.scaled_energy)


def test_negative_branch_values():
    amps = mode_amplitudes(1.0, -1)
    assert amps.scaled_energy == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert amps.phi0 == pytest.approx(PHI0_NEG_AT_1, rel=1e-14)
    assert amps.chi0 == pytest.approx(CHI0_NEG_AT_1, rel=1e-14)
    assert abs(amps.phi0**2 - amps.chi0**2 + 1.0) <= 1e-14


@given(st.floats(min_value=0.0, max_value=100.0), st.sampled_from([+1, -1]))
def test_identity_any_wavenumber(x, branch):
    amps = mode_amplitudes(x, branch)
    assert abs(amps.phi0**2 - amps.chi0**2 - branch) <= 1e-13


@given(st.floats(min_value=0.0, max_value=100.0))
def test_branches_are_swaps_of_each_other(x):
    """The negative branch is the component swap of the positive one."""
    plus = mode_amplitudes(x, +1)
    minus = mode_amplitudes(x, -1)
    assert minus.phi0 == plus.chi0
    assert minus.chi0 == plus.phi0


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_mode_amplitudes_domain(bad):
    with pytest.raises(ValueError):
        mode_amplitudes(bad, +1)


def test_mode_amplitudes_branch_validation():
    with pytest.raises(ValueError):
        mode_amplitudes(1.0, 0)


def test_scaled_kinetic_small_values():
    assert scaled_kinetic_energy(0.0) == 0.0
    assert scaled_kinetic_energy(math.sqrt(3.0)) == pytest.approx(1.0, abs=5e-16)
    # direct formula value, cross-checked against the x^2/2 - x^4/8 expansion
    assert scaled_kinetic_energy(math.pi / 300) == pytest.approx(
        5.4829632417312039e-05, rel=1e-13
    )


def test_nonrel_kinetic_values():
    assert nonrel_kinetic_energy(0.0) == 0.0
    assert nonrel_kinetic_energy(math.pi / 300) == pytest.approx(
        5.4831135561607548e-05, rel=1e-15
    )


@given(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=1e-12, max_value=50.0),
)
def test_scaled_kinetic_strictly_increasing(x, dx):
    assert scaled_kinetic_energy(x) < scaled_kinetic_energy(x + dx)


@given(st.floats(min_value=0.0, max_value=0.5))
def test_taylor_remainder_bound(x):
    gap = abs(scaled_kinetic_energy(x) - nonrel_kinetic_energy(x))
    assert gap <= x**4 / 8.0 + 1e-17


@pytest.mark.parametrize("fn", [scaled_kinetic_energy, nonrel_kinetic_energy])
def test_kinetic_domain_errors(fn):
    with pytest.raises(ValueError):
        fn(-0.5)


def test_charge_conjugate_swaps_and_conjugates():
    assert charge_conjugate(FVSpinor(1, 0)) == FVSpinor(0, 1)
    out = charge_conjugate(FVSpinor(1 + 2j, 3 - 1j))
    assert out.upper == 3 + 1j
    assert out.lower == 1 - 2j


complex_st = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


@given(complex_st, complex_st)
def test_charge_conjugate_involution_and_norm(upper, lower):
    s = FVSpinor(upper, lower)
    twice = charge_conjugate(charge_conjugate(s))
    assert twice == s
    c = charge_conjugate(s)
    norm = abs(s.upper) ** 2 + abs(s.lower) ** 2
    norm_c = abs(c.upper) ** 2 + abs(c.lower) ** 2
    assert norm_c == pytest.approx(norm, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize(
    "lengths", [(), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (0.0,), (-1.0, 1.0, 1.0), (math.inf,)]
)
def test_box_spec_rejects_bad_lengths(lengths):
    with pytest.raises(ValueError):
        BoxSpec(lengths)


def test_box_spec_basics():
    box = BoxSpec((1.0, 2.0, 4.0))
    assert box.dimension == 3
    assert not box.is_cube
    assert box.volume() == 8.0
    assert BoxSpec.cube(2.0).lengths == (2.0, 2.0, 2.0)
    assert BoxSpec.cube(2.0, dim=1).dimension == 1


@pytest.mark.parametrize("indices", [(), (0,), (1, 2), (1, 1, 0), (1, 2, 3, 4)])
def test_quantum_numbers_rejects_bad_indices(indices):
    with pytest.raises(ValueError):
        QuantumNumbers(indices)


def test_quantum_numbers_arity_check():
    qn = QuantumNumbers((1, 2, 3))
    qn.check_matches(BoxSpec.cube(1.0))
    with pytest.raises(ValueError):
        qn.check_matches(BoxSpec((1.0,)))


@pytest.mark.parametrize("wavenumbers", [(1e155,), (1e154, 1e154, 1e154)])
def test_dispersion_past_the_float_range(wavenumbers):
    """An overflowing |x|^2, of one square or of a sum of finite squares,
    gives NaN for the relativistic energy and +inf for the quadratic one."""
    assert math.isnan(dispersion("kg", wavenumbers))
    assert dispersion("nonrel", wavenumbers) == math.inf
