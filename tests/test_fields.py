"""Box-state fields: boundary behaviour, charge, current, stationarity."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relbox import (
    BoxSpec,
    BoxState,
    CapacityError,
    GridSpec,
    QuantumNumbers,
    conjugated_state,
    normalization_check,
    stationarity_residual,
)
import relbox
import relbox.fields
from relbox.fields import _simpson_weights, _sine_profiles

from oracles import box_state_closed_form, exact_simpson_charge, simpson_integral

UNIT_1D = BoxState(box=BoxSpec((1.0,)), qnums=QuantumNumbers((1,)))
UNIT_CUBE = BoxState(box=BoxSpec.cube(1.0), qnums=QuantumNumbers((1, 1, 1)))


def sample_1d(n, box_length, position, time=0.0):
    """The nth 1D box eigenstate at one point."""
    state = BoxState(box=BoxSpec((box_length,)), qnums=QuantumNumbers((n,)))
    return state.sample((position,), time)

FIELDS_NAMES = ("BoxState", "FieldGrid", "FieldSample", "GridSpec", "conjugated_state",
                "normalization_check", "stationarity_residual")


@pytest.mark.parametrize("name", FIELDS_NAMES)
def test_fields_names_resolve_from_the_package(name):
    """``relbox`` loads ``relbox.fields`` on first use of one of its names
    and hands out the same objects; they stay in ``__all__``."""
    assert getattr(relbox, name) is getattr(relbox.fields, name)
    assert name in relbox.__all__


def test_star_import_includes_the_fields_names():
    namespace = {}
    exec("from relbox import *", namespace)
    assert {name: namespace[name] for name in FIELDS_NAMES} == {
        name: getattr(relbox.fields, name) for name in FIELDS_NAMES
    }


def test_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        relbox.no_such_name  # noqa: B018


# Positive-branch amplitude (eps + 1) / (2 sqrt(eps)) at eps = sqrt(2) and 2.
PHI0_AT_X1 = 1.0150517651282178
PHI0_AT_SQRT3 = 3.0 / (2.0 * math.sqrt(2.0))


def test_boundary_vanishing_1d():
    for n in (1, 2, 5):
        for t in (0.0, 0.7):
            for x in (0.0, 2.5):
                s = sample_1d(n, 2.5, x, t)
                assert s.spinor.upper == 0j
                assert s.spinor.lower == 0j
                assert s.rho == 0.0
                assert s.current == (0.0,)


def test_boundary_vanishing_3d_faces():
    box = BoxSpec((1.0, 2.0, 3.0))
    qn = QuantumNumbers((1, 2, 1))
    face_points = [
        (0.0, 1.0, 1.5),
        (1.0, 0.3, 0.2),
        (0.5, 2.0, 1.0),
        (0.5, 1.0, 0.0),
        (0.7, 0.6, 3.0),
    ]
    for pos in face_points:
        s = BoxState(box=box, qnums=qn).sample(pos)
        assert s.spinor.upper == 0j and s.spinor.lower == 0j
        assert s.rho == 0.0
        assert s.current == (0.0, 0.0, 0.0)


def test_midpoint_value_1d():
    s = sample_1d(1, math.pi, math.pi / 2, 0.0)
    assert s.spinor.upper.real == pytest.approx(
        math.sqrt(2.0 / math.pi) * PHI0_AT_X1, rel=1e-14
    )
    assert s.spinor.upper.imag == 0.0


def test_center_value_3d():
    box = BoxSpec.cube(math.pi)
    s = BoxState(box=box, qnums=QuantumNumbers((1, 1, 1))).sample((math.pi / 2,) * 3, 0.0)
    assert s.spinor.upper.real == pytest.approx(
        math.sqrt(8.0 / math.pi**3) * PHI0_AT_SQRT3, rel=1e-13
    )


def test_position_outside_box_is_rejected():
    with pytest.raises(ValueError):
        sample_1d(1, 1.0, 1.5, 0.0)
    with pytest.raises(ValueError):
        UNIT_CUBE.sample((0.5, -0.1, 0.5))
    with pytest.raises(ValueError):
        UNIT_CUBE.sample((0.5, 0.5))


def test_current_vanishes_everywhere():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 10.0))
        s = UNIT_1D.sample((x,), t)
        assert abs(s.current[0]) <= 1e-12
    for _ in range(50):
        pos = rng.uniform(0.0, 1.0, size=3)
        t = float(rng.uniform(0.0, 10.0))
        s = UNIT_CUBE.sample(tuple(pos), t)
        assert max(abs(j) for j in s.current) <= 1e-12


def test_rho_matches_stored_spinor():
    s = UNIT_1D.sample((0.3,), 1.7)
    assert abs(s.rho - (abs(s.spinor.upper) ** 2 - abs(s.spinor.lower) ** 2)) <= 1e-13


def test_rho_is_time_independent():
    for x in (0.1, 0.4, 0.9):
        a = UNIT_1D.sample((x,), 0.37)
        b = UNIT_1D.sample((x,), 129.0)
        assert abs(a.rho - b.rho) <= 1e-13


def test_conjugation_flips_density_pointwise():
    conj = conjugated_state(UNIT_1D)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 5.0))
        assert conj.sample((x,), t).rho == pytest.approx(
            -UNIT_1D.sample((x,), t).rho, rel=1e-13, abs=1e-300
        )
        assert conj.sample((x,), t).current == (0.0,) or abs(
            conj.sample((x,), t).current[0]
        ) <= 1e-12


def test_double_conjugation_restores_samples():
    twice = conjugated_state(conjugated_state(UNIT_CUBE))
    for pos in [(0.2, 0.5, 0.8), (0.4, 0.4, 0.4)]:
        a = UNIT_CUBE.sample(pos, 0.9)
        b = twice.sample(pos, 0.9)
        assert cmath.isclose(a.spinor.upper, b.spinor.upper, rel_tol=1e-14)
        assert cmath.isclose(a.spinor.lower, b.spinor.lower, rel_tol=1e-14)
        assert a.rho == pytest.approx(b.rho, rel=1e-14)


def test_normalization_1d():
    assert normalization_check(UNIT_1D, GridSpec(201)) == pytest.approx(1.0, abs=1e-8)
    conj = conjugated_state(UNIT_1D)
    assert normalization_check(conj, GridSpec(201)) == pytest.approx(-1.0, abs=1e-8)


def test_normalization_3d():
    assert normalization_check(UNIT_CUBE, GridSpec(51)) == pytest.approx(1.0, abs=1e-6)


def test_integral_float_grid_sizes_are_kept():
    assert type(GridSpec(201.0).points_per_axis) is int
    assert normalization_check(UNIT_1D, GridSpec(201.0)) == normalization_check(
        UNIT_1D, GridSpec(201))


def test_normalization_stays_exact_under_refinement():
    # The sine-squared charge density is integrated exactly by every odd
    # Simpson grid here (no aliasing), so refinement keeps the error at the
    # rounding floor rather than showing an O(h^4) tail.
    for npoints in (5, 9, 17, 33, 65):
        value = normalization_check(UNIT_1D, GridSpec(npoints))
        assert value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lengths", [(4e-103,) * 3, (1e-102,) * 3, (4e-154, 4e-154, 1e60)],
                         ids=["3d-4e-103", "3d-1e-102", "3d-lengths-4e-154-4e-154-1e60"])
def test_normalization_keeps_its_digits_where_the_weight_product_is_subnormal(lengths):
    """The Simpson weight products, about (L / 180)^3, fall below the normal
    float64 range in the two cubes; in the last box the product of the
    first two axes' weights does.  The charge still integrates to +-1 within
    a few ulp, not to 1.0000000000003186 or 0.9999999999997847."""
    state = BoxState(BoxSpec(lengths), QuantumNumbers((1, 1, 1)))
    for charge, s in ((1.0, state), (-1.0, conjugated_state(state))):
        assert abs(normalization_check(s, GridSpec(61)) - charge) <= 4 * math.ulp(1.0)


def _ulps_apart(a: float, b: float) -> int:
    """Floats from ``a`` to ``b``, two floats of one sign."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def _random_charge_states(seed: int, count: int):
    """``count`` (state, grid) pairs, 1D and 3D in turn: axis lengths
    log-uniform in [1e-100, 1e100], indices 1..5, an odd grid that resolves
    the state, half of them charge conjugated."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        dim, most = (1, 401) if i % 2 == 0 else (3, 41)
        lengths = tuple(float(v) for v in 10.0 ** rng.uniform(-100.0, 100.0, dim))
        indices = tuple(int(v) for v in rng.integers(1, 6, dim))
        fewest = 2 * max(indices) + 3
        points = fewest + 2 * int(rng.integers(0, (most - fewest) // 2 + 1))
        state = BoxState(BoxSpec(lengths), QuantumNumbers(indices), bool(rng.integers(2)))
        cases.append((state, GridSpec(points)))
    return cases


def test_normalization_is_within_4_ulp_of_its_sampled_density_at_any_box_size():
    """From boxes of 1e-100 to 1e100 the box-unit quadrature lies within 4
    floats of the exact Simpson sum of the density it samples, and a 1D
    state's within 4 floats of its charge, +-1.  A coarse 3D grid's sampled
    density may itself integrate a few floats farther from +-1, as its
    sines are taken at rounded arguments."""
    for state, grid in _random_charge_states(1, 600):
        charge = -1.0 if state.conjugated else 1.0
        value = normalization_check(state, grid)
        exact = exact_simpson_charge(_sine_profiles(state, grid.axes(state.box)), charge)
        assert _ulps_apart(value, exact) <= 4, (state, grid, value, exact)
        if state.box.dimension == 1:
            assert _ulps_apart(value, charge) <= 4, (state, grid, value)


def test_simpson_engine_is_fourth_order():
    # O(h^4) rate measured on exp, which Simpson does not integrate exactly.
    exact = math.e - 1.0
    errors = []
    for npoints in (5, 9, 17):
        w = _simpson_weights(npoints)
        values = np.exp(np.linspace(0.0, 1.0, npoints))
        errors.append(abs(float(w @ values) - exact))
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.2)
    assert errors[1] / errors[2] == pytest.approx(16.0, rel=0.2)


def test_simpson_engine_matches_independent_sum():
    xs = np.linspace(0.0, 1.0, 21)
    values = np.cos(xs) + xs**2
    w = _simpson_weights(21)
    assert float(w @ values) == pytest.approx(simpson_integral(values, 1.0), rel=1e-15)


def test_normalization_requires_odd_grid():
    with pytest.raises(ValueError):
        normalization_check(UNIT_1D, GridSpec(200))


@pytest.mark.parametrize("n, npoints", [(100, 201), (200, 201), (2, 5)])
def test_normalization_refuses_aliasing_grid(n, npoints):
    # Simpson's rule would return 4/3 for n = 100 on 201 points
    state = BoxState(box=BoxSpec((1.0,)), qnums=QuantumNumbers((n,)))
    with pytest.raises(ValueError, match="alias"):
        normalization_check(state, GridSpec(npoints))
    with pytest.raises(ValueError, match="alias"):
        normalization_check(conjugated_state(state), GridSpec(npoints))


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(2)


@pytest.mark.parametrize("state", [UNIT_1D, conjugated_state(UNIT_1D)])
def test_stationarity_second_order_1d(state):
    coarse = stationarity_residual(state, GridSpec(101))
    fine = stationarity_residual(state, GridSpec(201))
    assert 3.5 <= coarse / fine <= 4.5


def test_stationarity_second_order_3d():
    coarse = stationarity_residual(UNIT_CUBE, GridSpec(21))
    fine = stationarity_residual(UNIT_CUBE, GridSpec(41))
    assert 3.5 <= coarse / fine <= 4.5


@pytest.mark.parametrize("conjugated", [False, True])
@pytest.mark.parametrize("length", [1e-16, 1e-13, 1e-11])
@pytest.mark.parametrize("indices", [(1,), (1, 2, 3)], ids=["1d", "3d"])
def test_stationarity_residual_matches_closed_form_in_tiny_boxes(indices, length, conjugated):
    """The 3-point stencil maps a product of sines to itself with eigenvalue
    sum(4 / h^2 sin^2(x h / 2)) instead of |x|^2, so the largest residual is
    half that gap times prefactor |phi0 + chi0| = prefactor / sqrt(|E|)
    times the largest interior |profile|.  In tiny boxes the amplitudes
    grow like sqrt(|E|) and their sum cancels; the residual must not."""
    dim, grid = len(indices), 2 * max(indices) + 3  # the coarsest resolving grid
    state = BoxState(BoxSpec((length,) * dim), QuantumNumbers(indices), conjugated)
    xs = [n * math.pi / length for n in indices]
    h = length / (grid - 1)
    gap = math.fsum(4.0 / h / h * math.sin(x * h / 2.0) ** 2 - x * x for x in xs)
    peak = math.prod(max(abs(math.sin(x * k * h)) for k in range(1, grid - 1)) for x in xs)
    energy = math.sqrt(math.fsum(x * x for x in xs) + 1.0)
    expected = 0.5 * abs(gap) * math.sqrt(2.0**dim / length**dim) / math.sqrt(energy) * peak
    residual = stationarity_residual(state, GridSpec(grid))
    assert residual == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_stationarity_detects_wrong_energy():
    grid = GridSpec(201)
    residual = stationarity_residual(
        UNIT_1D, grid, energy=UNIT_1D.scaled_energy + 0.1
    )
    xs = np.linspace(0.0, 1.0, 201)[1:-1]
    a_up, a_lo = UNIT_1D.amplitudes()
    profile = np.abs(np.sin(math.pi * xs))
    psi_max = UNIT_1D.prefactor() * max(abs(a_up), abs(a_lo)) * float(profile.max())
    assert residual >= 0.05 * psi_max


def test_scalar_wave_equation_residual_shrinks_second_order():
    """The component sum solves the second-order scalar relation
    d^2psi/dt^2 - lap psi + psi = 0; verified with central differences in
    both time and space."""

    def residual(nx, dt):
        xs = np.linspace(0.0, 1.0, nx)
        h = xs[1] - xs[0]
        states = []
        for t in (-dt, 0.0, dt):
            samples = [UNIT_1D.sample((float(x),), t) for x in xs]
            states.append(
                np.array([s.spinor.upper + s.spinor.lower for s in samples])
            )
        psi_prev, psi_now, psi_next = states
        d2t = (psi_prev - 2.0 * psi_now + psi_next) / dt**2
        d2x = (psi_now[:-2] - 2.0 * psi_now[1:-1] + psi_now[2:]) / h**2
        res = d2t[1:-1] - d2x + psi_now[1:-1]
        return float(np.max(np.abs(res)))

    coarse = residual(51, 2e-2)
    fine = residual(101, 1e-2)
    assert 3.0 <= coarse / fine <= 5.0


def _tau_matrices():
    tau1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    tau2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    tau3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return tau1, tau2, tau3


def _current_tau_form(spinor, gradient):
    """Matrix form of the charge current, (1/2i)[Psi+ t3(t3+it2) dPsi - h.c.]."""
    _, tau2, tau3 = _tau_matrices()
    op = tau3 @ (tau3 + 1j * tau2)
    forward = np.conj(spinor) @ (op @ gradient)
    backward = np.conj(gradient) @ (op @ spinor)
    return float(((forward - backward) / 2j).real)


def test_current_tau_form_agrees_on_travelling_waves():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a, b, c = (complex(*rng.normal(size=2)) for _ in range(3))
        k = float(rng.uniform(0.3, 3.0))
        x = float(rng.uniform(-2.0, 2.0))
        phase = cmath.exp(1j * k * x)
        spinor = np.array([a * phase + b / phase, c * phase], dtype=complex)
        gradient = np.array(
            [1j * k * (a * phase - b / phase), 1j * k * c * phase], dtype=complex
        )
        psi = spinor.sum()
        dpsi = gradient.sum()
        component_form = (psi.conjugate() * dpsi).imag
        assert _current_tau_form(spinor, gradient) == pytest.approx(
            component_form, rel=1e-12, abs=1e-14
        )


def test_current_tau_form_vanishes_on_box_state():
    state = UNIT_1D
    x_n = state.wavenumbers[0]
    a_up, a_lo = state.amplitudes()
    pref = state.prefactor()
    for x in (0.21, 0.5, 0.83):
        for t in (0.0, 1.3):
            phase = cmath.exp(-1j * state.scaled_energy * t)
            spinor = np.array(
                [
                    pref * a_up * math.sin(x_n * x) * phase,
                    pref * a_lo * math.sin(x_n * x) * phase,
                ],
                dtype=complex,
            )
            gradient = np.array(
                [
                    pref * a_up * x_n * math.cos(x_n * x) * phase,
                    pref * a_lo * x_n * math.cos(x_n * x) * phase,
                ],
                dtype=complex,
            )
            assert abs(_current_tau_form(spinor, gradient)) <= 1e-12
            sample = state.sample((x,), t)
            assert abs(sample.current[0]) <= 1e-12


lengths_st = st.floats(min_value=0.1, max_value=10.0)


@st.composite
def states_and_axes(draw):
    """A 1D, cubic or non-cubic 3D state (maybe conjugated) and per-axis
    coordinates that often include the faces."""
    dim = draw(st.sampled_from([1, 3]))
    if dim == 3 and draw(st.booleans()):
        lengths = (draw(lengths_st),) * 3
    else:
        lengths = tuple(draw(lengths_st) for _ in range(dim))
    state = BoxState(box=BoxSpec(lengths),
                     qnums=QuantumNumbers(tuple(draw(st.integers(1, 12)) for _ in range(dim))),
                     conjugated=draw(st.booleans()))
    fraction = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    axes = [[f * length for f in draw(st.lists(fraction, min_size=1, max_size=6))]
            for length in lengths]
    return state, axes


@settings(deadline=None, max_examples=200)
@given(states_and_axes(), st.one_of(st.just(0.0), st.floats(-50.0, 50.0)), st.data())
def test_evaluate_matches_closed_form(state_axes, t, data):
    state, axes = state_axes
    lengths = state.box.lengths
    values = state.evaluate(axes, t)
    shape = tuple(len(a) for a in axes)
    fields = [values.upper, values.lower, values.rho, *values.current]
    assert all(f.shape == shape for f in fields)
    assert values.time == t and len(values.current) == len(lengths)
    xs = state.wavenumbers
    energy = math.sqrt(1.0 + sum(x * x for x in xs))
    amp = state.prefactor() * (math.sqrt(energy) + 1.0)  # bounds |phi0| + |chi0|
    tol = 1e-10 * amp
    for index in np.ndindex(*shape):
        pos = tuple(axes[a][i] for a, i in enumerate(index))
        got = [complex(f[index]) for f in fields]
        if any(r in (0.0, length) for r, length in zip(pos, lengths)):
            # exact +0.0 on the faces, no -0.0
            parts = [p for v in got for p in (v.real, v.imag)]
            assert all(p == 0.0 and math.copysign(1.0, p) == 1.0 for p in parts)
            continue
        upper, lower, rho = box_state_closed_form(
            state.qnums.indices, lengths, pos, t, state.conjugated)
        assert abs(got[0] - upper) <= tol and abs(got[1] - lower) <= tol
        assert abs(got[2] - rho) <= tol * amp
        assert all(abs(j) <= 1e-12 * amp * amp * max(xs) for j in got[3:])
    # the pointwise sampler returns the array values bit for bit
    for _ in range(3):
        index = tuple(data.draw(st.integers(0, n - 1)) for n in shape)
        s = state.sample(tuple(axes[a][i] for a, i in enumerate(index)), t)
        assert s.spinor.upper == values.upper[index]
        assert s.spinor.lower == values.lower[index]
        assert s.rho == values.rho[index]
        assert s.current == tuple(float(j[index]) for j in values.current)


def _scalar_sample(state, pos, t):
    """The per-point formula the array evaluation replaced: (upper, lower,
    rho), rho as the closed form +-prefactor^2 prod sin^2 (squares as s * s,
    the product in axis order)."""
    sines = [0.0 if r in (0.0, length) else math.sin(x * r)
             for x, r, length in zip(state.wavenumbers, pos, state.box.lengths)]
    a_up, a_lo = state.amplitudes()
    phase = cmath.exp(-1j * state.scaled_energy * t)
    upper = state.prefactor() * a_up * math.prod(sines) * phase
    lower = state.prefactor() * a_lo * math.prod(sines) * phase
    scale = (-1.0 if state.conjugated else 1.0) * state.prefactor() ** 2
    return upper, lower, scale * math.prod(s * s for s in sines)


@settings(deadline=None, max_examples=100)
@given(states_and_axes(), st.one_of(st.just(0.0), st.floats(-50.0, 50.0)))
def test_evaluate_reproduces_the_scalar_formula(state_axes, t):
    # same operations in the same order, so equal values (up to the sign of 0)
    state, axes = state_axes
    values = state.evaluate(axes, t)
    for index in np.ndindex(*values.rho.shape):
        pos = tuple(axes[a][i] for a, i in enumerate(index))
        assert _scalar_sample(state, pos, t) == (
            values.upper[index], values.lower[index], values.rho[index])


def test_evaluate_rejects_points_outside_the_box():
    with pytest.raises(ValueError):
        UNIT_CUBE.evaluate([[0.5], [0.2, 1.5], [0.1]])
    with pytest.raises(ValueError):
        UNIT_1D.evaluate([[float("nan")]])
    with pytest.raises(ValueError):
        UNIT_CUBE.evaluate([[0.5], [0.5]])


@pytest.mark.parametrize("lengths, message", [
    ((1e-154,), "overflows float64"),
    ((1e200, 1e-200, 1.0), "overflows float64"),
    ((1e-110,) * 3, "outside the float64 range"),
    ((1e-103,) * 3, "outside the float64 range"),
    ((1e110,) * 3, "outside the float64 range"),
], ids=["1d-1e-154", "3d-lengths-1e200-1e-200", "3d-1e-110", "3d-1e-103", "3d-1e110"])
def test_box_state_outside_the_float64_range_is_a_capacity_error(lengths, message):
    """A state whose |x|^2 overflows, or whose 2^d / volume (the squared
    normalization) underflows to 0 or overflows, is refused when built:
    its amplitudes or its prefactor would not be finite."""
    with pytest.raises(CapacityError, match=message):
        BoxState(BoxSpec(lengths), QuantumNumbers((1,) * len(lengths)))
