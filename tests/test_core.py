"""Amplitude algebra, dispersion relations, charge conjugation and the
value types' contract."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relbox import (
    MODELS,
    BoxSpec,
    BoxState,
    FieldGrid,
    FieldSample,
    FVSpinor,
    GridSpec,
    Level,
    ModeAmplitudes,
    QuantumNumbers,
    SpectrumRequest,
    charge_conjugate,
    dirac_wavenumber_1d,
    dispersion,
    enumerate_levels,
    kg_wavenumber_1d,
    level_1d,
    mode_amplitudes,
    spectrum_table,
)
from relbox.spectra import _merge_equal_energies

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
    with pytest.raises(ValueError, match="branch"):
        mode_amplitudes(1.0, 0)


def test_scaled_kinetic_small_values():
    assert dispersion("kg", (0.0,)) == 0.0
    assert dispersion("kg", (math.sqrt(3.0),)) == pytest.approx(1.0, abs=5e-16)
    # direct formula value, cross-checked against the x^2/2 - x^4/8 expansion
    assert dispersion("kg", (math.pi / 300,)) == pytest.approx(
        5.4829632417312039e-05, rel=1e-13
    )


def test_nonrel_kinetic_values():
    assert dispersion("nonrel", (0.0,)) == 0.0
    assert dispersion("nonrel", (math.pi / 300,)) == pytest.approx(
        5.4831135561607548e-05, rel=1e-15
    )


@given(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=1e-12, max_value=50.0),
)
def test_scaled_kinetic_strictly_increasing(x, dx):
    assert dispersion("kg", (x,)) < dispersion("kg", (x + dx,))


@given(st.floats(min_value=0.0, max_value=0.5))
def test_taylor_remainder_bound(x):
    gap = abs(dispersion("kg", (x,)) - dispersion("nonrel", (x,)))
    assert gap <= x**4 / 8.0 + 1e-17


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
    "lengths",
    [(), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (0.0,), (-1.0, 1.0, 1.0), (math.inf,), ("1.0",)],
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


@pytest.mark.parametrize("value", [1.5, 2.9, 0.5, 0.0, -1, math.nan, math.inf, -math.inf])
def test_fractional_or_non_finite_indices_are_refused_not_truncated(value):
    """An index that is not an integer >= 1 is a ValueError naming it, in a
    3D label and in every 1D solver; none is truncated to a level labelled
    int(value)."""
    named = f"got {value!r}"
    with pytest.raises(ValueError, match=named):
        QuantumNumbers((value, 1, 1))
    for model in ("kg", "dirac", "nonrel"):
        with pytest.raises(ValueError, match=named):
            level_1d(model, value, 1.0)
    for solve in (kg_wavenumber_1d, dirac_wavenumber_1d):
        with pytest.raises(ValueError, match=named):
            solve(value, 1.0)


def test_integral_indices_of_any_numeric_type_are_kept():
    qn = QuantumNumbers((2.0, np.int64(3), np.float64(1.0)))
    assert qn.indices == (2, 3, 1) and all(type(n) is int for n in qn.indices)
    for model in ("kg", "dirac", "nonrel"):
        level = level_1d(model, 2, 1.0)
        assert level_1d(model, 2.0, 1.0) == level_1d(model, np.int64(2), 1.0) == level
    for dim in (1, 3):
        cubes = [BoxSpec.cube(1.0, dim=d) for d in (dim, float(dim), np.int64(dim))]
        assert cubes == [BoxSpec.cube(1.0, dim=dim)] * 3 and len(cubes[1].lengths) == dim


def test_quantum_numbers_arity_check():
    qn = QuantumNumbers((1, 2, 3))
    qn.check_matches(BoxSpec.cube(1.0))
    with pytest.raises(ValueError):
        qn.check_matches(BoxSpec((1.0,)))


@pytest.mark.parametrize("wavenumbers", [(1e155,), (1e154, 1e154, 1e154)])
def test_dispersion_past_the_float_range(wavenumbers):
    """An overflowing |x|^2, of one square or of a sum of finite squares,
    gives +inf for the relativistic energy and for the quadratic one."""
    assert dispersion("kg", wavenumbers) == math.inf
    assert dispersion("nonrel", wavenumbers) == math.inf


_BOX = BoxSpec((1.0, 2.0, 3.0))
_QNUMS = QuantumNumbers((1, 2, 3))
_SPINOR = FVSpinor(upper=1 + 2j, lower=0.5 - 1j)
_AXIS = np.array([0.0, 0.5, 1.0])
_AMPS = mode_amplitudes(1.0, -1)

# Each value type with every field by keyword, in field order, already in
# normal form (so the repr shows them as given).
VALUE_TYPES = [
    (BoxSpec, dict(lengths=(1.0, 2.0, 3.0))),
    (QuantumNumbers, dict(indices=(1, 2, 3))),
    (FVSpinor, dict(upper=1 + 2j, lower=0.5 - 1j)),
    (ModeAmplitudes, dict(phi0=_AMPS.phi0, chi0=_AMPS.chi0, branch=-1,
                          scaled_energy=_AMPS.scaled_energy)),
    (Level, dict(model="kg", qnums=_QNUMS, wavenumbers=(1.0, 2.0, 3.0), kinetic=2.75,
                 degeneracy=6, also=(QuantumNumbers((3, 3, 3)),))),
    (SpectrumRequest, dict(model="dirac", box=_BOX, count=None, max_kinetic=5.0,
                           spin_counting=True)),
    (GridSpec, dict(points_per_axis=5)),
    (FieldSample, dict(position=(0.5,), time=0.0, spinor=_SPINOR, rho=2.0, current=(0.0,))),
    (BoxState, dict(box=_BOX, qnums=_QNUMS, conjugated=True)),
    (FieldGrid, dict(axes=(_AXIS,), time=0.0, upper=_AXIS, lower=_AXIS, rho=_AXIS,
                     current=(_AXIS,))),
]


@pytest.mark.parametrize("cls, fields", VALUE_TYPES, ids=[cls.__name__ for cls, _ in VALUE_TYPES])
def test_value_type_contract(cls, fields):
    """Immutable, equal and equally hashed when built from equal fields, and
    shown as ``Name(field=value, ...)``."""
    value = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    again = cls(**fields)
    assert again == value and again is not value
    if cls is FieldGrid:  # numpy arrays are unhashable, and so is a value holding them
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(again) == hash(value)
    shown = ", ".join(f"{name}={field!r}" for name, field in fields.items())
    assert repr(value) == f"{cls.__name__}({shown})"


INVALID_VALUES = [
    (lambda: BoxSpec.cube(1.0, dim=2), "dim must be 1 or 3, got 2"),
    (lambda: BoxSpec.cube(1.0, dim=1.5), r"dim must be an integer >= 1, got 1\.5"),
    (lambda: ModeAmplitudes(_AMPS.phi0, _AMPS.chi0, -1, 0.5),
     r"scaled energy must be >= 1, got 0\.5"),
    (lambda: Level("foo", _QNUMS, (1.0, 2.0, 3.0), 2.75, 1), "unknown model 'foo'"),
    (lambda: Level("kg", _QNUMS, (1.0, 2.0, 3.0), 2.75, 0),
     "degeneracy must be an integer >= 1, got 0"),
    (lambda: Level("kg", _QNUMS, (1.0, 2.0, 3.0), -1.0, 1),
     r"kinetic energy must be >= 0, got -1\.0"),
    (lambda: SpectrumRequest("kg", _BOX, max_kinetic=0.0),
     r"max_kinetic must be positive and finite, got 0\.0"),
    # Fractional or non-finite values are refused when built, not deep inside
    # the enumeration or the grid.
    (lambda: Level("kg", _QNUMS, (1.0, 2.0, 3.0), 2.75, 1.5),
     r"degeneracy must be an integer >= 1, got 1\.5"),
    (lambda: SpectrumRequest("kg", _BOX, count=2.5), r"count must be an integer >= 1, got 2\.5"),
    (lambda: SpectrumRequest("kg", _BOX, count=math.nan), "count must be an integer >= 1, got nan"),
    (lambda: SpectrumRequest("kg", _BOX, max_kinetic=math.inf),
     "max_kinetic must be positive and finite, got inf"),
    (lambda: GridSpec(201.5), r"points_per_axis must be an integer >= 3, got 201\.5"),
    (lambda: GridSpec(math.nan), "points_per_axis must be an integer >= 3, got nan"),
]


@pytest.mark.parametrize("build, message", INVALID_VALUES,
                         ids=["cube-dim-2", "cube-dim-1.5", "amplitudes-energy-0.5",
                              "level-model-foo", "level-degeneracy-0", "level-kinetic-negative",
                              "request-max-kinetic-0", "level-degeneracy-1.5", "request-count-2.5",
                              "request-count-nan", "request-max-kinetic-inf", "grid-201.5",
                              "grid-nan"])
def test_value_types_refuse_invalid_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_integral_counts_of_any_numeric_type_give_the_same_levels():
    for box in (BoxSpec((1.0,)), BoxSpec.cube(1.0)):
        levels = enumerate_levels(SpectrumRequest("dirac", box, count=3))
        for count in (3.0, np.int64(3)):
            request = SpectrumRequest("dirac", box, count=count)
            assert type(request.count) is int
            assert enumerate_levels(request) == levels
    boxes = [(1.0, BoxSpec((1.0,))), (10.0, BoxSpec((10.0,)))]
    assert spectrum_table(MODELS, boxes, count=2.0) == spectrum_table(MODELS, boxes, count=2)


def test_rebuilt_levels_carry_degeneracy_and_merged_representatives():
    """The two places that rebuild a level from another: an accidental merge
    (on the unit cube, (1, 1, 5) and (3, 3, 3) share |n|^2 = 27) and the
    spin-weighted 1D enumeration."""
    cube = BoxSpec.cube(1.0)
    levels = enumerate_levels(SpectrumRequest("kg", cube, count=14))
    merged = levels[13]
    assert merged.qnums == QuantumNumbers((1, 1, 5))
    assert (merged.degeneracy, merged.also) == (4, (QuantumNumbers((3, 3, 3)),))
    assert merged.kinetic == dispersion("kg", merged.wavenumbers)
    assert all(lv.also == () for lv in levels[:13])
    base = Level("kg", QuantumNumbers((1, 1, 5)), merged.wavenumbers, merged.kinetic, 1)
    other = Level("kg", QuantumNumbers((3, 3, 3)), merged.wavenumbers, merged.kinetic, 1)
    assert _merge_equal_energies([(base, 3), (other, 1)]) == [merged]
    weighted = enumerate_levels(SpectrumRequest("dirac", BoxSpec((1.0,)), count=3,
                                                spin_counting=True))
    for n, level in enumerate(weighted, start=1):
        plain = level_1d("dirac", n, 1.0)
        assert (level.degeneracy, level.also) == (2, ())
        assert (level.model, level.qnums, level.wavenumbers, level.kinetic) == (
            plain.model, plain.qnums, plain.wavenumbers, plain.kinetic)
