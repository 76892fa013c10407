"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  Criterion 2 bounds the 1D tangent-equation residual by 1e-10, raised
only where rounding the root to float64 leaves more than that: near the
tangent poles of the smallest box one ulp of the wavenumber moves the
residual by up to ~4e-9 (see ``_tan_residual_bound``).
"""

import itertools
import json
import math
import time

import numpy as np

from relbox import (
    BoxSpec,
    BoxState,
    GridSpec,
    QuantumNumbers,
    conjugated_state,
    count_states,
    dirac_wavenumber_1d,
    dirac_wavenumbers_3d,
    dispersion,
    enumerate_levels,
    kg_wavenumber_1d,
    level_1d,
    level_3d,
    mode_amplitudes,
    normalization_check,
    stationarity_residual,
    SpectrumRequest,
)

from clirunner import invoke
from oracles import dirac_root_1d, lattice_count, newton_wavenumbers_3d


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(num, ok, elapsed, desc):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d} ({elapsed:6.2f}s): {desc}")


def test_criterion_01_amplitude_identity():
    with _Timer() as t:
        xs = np.linspace(0.0, 100.0, 1000)
        worst = 0.0
        for x in xs:
            for branch in (+1, -1):
                amps = mode_amplitudes(float(x), branch)
                worst = max(worst, abs(amps.phi0**2 - amps.chi0**2 - branch))
    ok = worst <= 1e-13 and t.elapsed < 1.0
    _report(1, ok, t.elapsed, f"amplitude identity, worst deviation {worst:.2e}")
    assert worst <= 1e-13
    assert t.elapsed < 1.0


def _tan_residual(x, box_length):
    y = box_length * x
    return abs(math.tan(y) + y / box_length)


def _tan_residual_bound(x, box_length):
    """1e-10, or the residual float64 rounding of the root can leave, if larger.

    The slope of f(y) = tan(y) + y/L is 1 + tan(y)^2 + 1/L, about 4e5 near
    the poles at L = 0.1.  A wavenumber one ulp from the root moves
    y = L x by L ulp(x), and forming y rounds by up to ulp(y)/2; the
    residual those steps leave is the floor no float64 root can get under.
    Where that floor is below 1e-10 (every box with L >= 1, and n <= 5 at
    L = 0.1) the bound is exactly 1e-10.

    The slope is taken at the root, where tan(y) = -y/L = -x, and not at
    the value under test: a wrong x next to a pole would otherwise raise
    its own bound with its own huge tan(y).
    """
    y = box_length * x
    slope = 1.0 + x * x + 1.0 / box_length
    return max(1e-10, slope * (box_length * math.ulp(x) + math.ulp(y) / 2))


def test_criterion_02_dirac_roots_1d():
    with _Timer() as t:
        x1 = dirac_wavenumber_1d(1, 1.0)
        x2 = dirac_wavenumber_1d(2, 1.0)
        oracle_gap = max(
            abs(x1 - dirac_root_1d(1, 1.0)), abs(x2 - dirac_root_1d(2, 1.0))
        )
        value_gap = max(abs(x1 - 2.028758), abs(x2 - 4.913180))
        roots = {
            (n, box_length): dirac_wavenumber_1d(n, box_length)
            for box_length in (0.1, 1.0, 10.0, 100.0, 300.0)
            for n in range(1, 21)
        }
    checked = [
        (n, L, _tan_residual(x, L), _tan_residual_bound(x, L))
        for (n, L), x in roots.items()
    ]
    failures = [c for c in checked if c[2] > c[3]]
    n_w, L_w, r_w, b_w = max(checked, key=lambda c: c[2] / c[3])
    worst = f"worst residual/bound {r_w / b_w:.2f} at n={n_w} L={L_w}"
    # The floor term must not excuse a wrong root: a wavenumber 3 ulps off,
    # or one converged onto the tangent pole below the root, breaks the
    # bound at every near-pole root of the smallest box.
    excused = []
    for n in range(9, 21):
        x = roots[n, 0.1]
        moved = {-3: x - 3 * math.ulp(x), 3: x + 3 * math.ulp(x)}
        moved["pole"] = (n - 0.5) * math.pi / 0.1
        for shift, wrong in moved.items():
            if _tan_residual(wrong, 0.1) <= _tan_residual_bound(wrong, 0.1):
                excused.append((n, shift))
    ok = (
        oracle_gap <= 1e-6
        and value_gap <= 1e-6
        and not failures
        and not excused
        and t.elapsed < 1.0
    )
    _report(
        2,
        ok,
        t.elapsed,
        f"1D roots: oracle gap {oracle_gap:.2e}, {worst}",
    )
    assert oracle_gap <= 1e-6
    assert value_gap <= 1e-6
    assert t.elapsed < 1.0
    assert not failures, (
        f"residual exceeds its bound at {len(failures)} roots ({worst}): "
        + ", ".join(f"n={n} L={L} r={r:.2e} > {b:.2e}" for n, L, r, b in failures)
    )
    assert not excused, f"bound accepts wrong wavenumbers (n, shift): {excused}"


def test_criterion_03_spin_lowering():
    with _Timer() as t:
        ok = True
        for box_length in (1.0, 10.0, 100.0, 300.0):
            for n in range(1, 5):
                ok &= (
                    level_1d("dirac", n, box_length).kinetic
                    < level_1d("kg", n, box_length).kinetic
                )
            box = BoxSpec.cube(box_length)
            for triple in itertools.combinations_with_replacement((1, 2, 3), 3):
                qn = QuantumNumbers(triple)
                ok &= level_3d("dirac", qn, box).kinetic < level_3d("kg", qn, box).kinetic
    ok = ok and t.elapsed < 10.0
    _report(3, ok, t.elapsed, "spin-1/2 levels sit below spin-0 levels")
    assert ok
    assert t.elapsed < 10.0


def test_criterion_04_nonrelativistic_limit():
    with _Timer() as t:
        sizes = (10.0, 30.0, 100.0, 300.0)
        gaps_1d, gaps_3d, kin_gaps = [], [], []
        ok = True
        for box_length in sizes:
            kg_x = kg_wavenumber_1d(1, box_length)
            gap = abs(dirac_wavenumber_1d(1, box_length) - kg_x) / kg_x
            ok &= gap <= 2.0 / box_length
            gaps_1d.append(gap)

            xs = dirac_wavenumbers_3d(
                QuantumNumbers((1, 1, 1)), BoxSpec.cube(box_length)
            )
            gap3 = abs(xs[0] - kg_x) / kg_x
            ok &= gap3 <= 2.0 / box_length
            gaps_3d.append(gap3)

            x = kg_x * math.sqrt(3.0)  # 3D ground-mode magnitude
            kin_gap = abs(dispersion("kg", (x,)) - 0.5 * x * x) / (0.5 * x * x)
            ok &= kin_gap <= x * x / 4.0
            kin_gaps.append(kin_gap)
        for seq in (gaps_1d, gaps_3d, kin_gaps):
            ok &= all(a > b for a, b in zip(seq, seq[1:]))
    ok = ok and t.elapsed < 5.0
    _report(4, ok, t.elapsed, "wavenumber and kinetic gaps shrink like the box grows")
    assert ok
    assert t.elapsed < 5.0


def test_criterion_05_3d_level_structure():
    with _Timer() as t:
        expected = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 3)]
        kg = enumerate_levels(
            SpectrumRequest(model="kg", box=BoxSpec.cube(300.0), count=4)
        )
        dirac = enumerate_levels(
            SpectrumRequest(
                model="dirac", box=BoxSpec.cube(300.0), count=4, spin_counting=True
            )
        )
        ok = [lv.qnums.indices for lv in kg] == expected
        ok &= [lv.degeneracy for lv in kg] == [1, 3, 3, 3]
        ok &= sum(lv.degeneracy for lv in kg) == 10
        ok &= [lv.qnums.indices for lv in dirac] == expected
        ok &= [lv.degeneracy for lv in dirac] == [2, 6, 6, 6]
    ok = ok and t.elapsed < 5.0
    _report(5, ok, t.elapsed, "first four cubic levels and their degeneracies")
    assert ok
    assert t.elapsed < 5.0


def test_criterion_06_cross_solver_oracle():
    with _Timer() as t:
        worst = 0.0
        for box_length in (0.5, 1.0, 5.0, 50.0):
            box = BoxSpec.cube(box_length)
            for triple in itertools.product((1, 2, 3), repeat=3):
                fp = dirac_wavenumbers_3d(QuantumNumbers(triple), box)
                nw = newton_wavenumbers_3d(triple, box.lengths)
                worst = max(worst, max(abs(a - b) for a, b in zip(fp[:3], nw[:3])))
    ok = worst <= 1e-10 and t.elapsed < 30.0
    _report(6, ok, t.elapsed, f"fixed point vs damped Newton, worst gap {worst:.2e}")
    assert worst <= 1e-10
    assert t.elapsed < 30.0


def test_criterion_07_one_dimensional_reduction():
    with _Timer() as t:
        xs = dirac_wavenumbers_3d(QuantumNumbers((1, 1, 50)), BoxSpec.cube(1.0))
        x_1d = dirac_wavenumber_1d(50, 1.0)
        gap = abs(xs[2] - x_1d) / x_1d
    ok = gap <= 1e-2 and t.elapsed < 5.0
    _report(7, ok, t.elapsed, f"dominant axis matches the 1D root, gap {gap:.2e}")
    assert gap <= 1e-2
    assert t.elapsed < 5.0


def test_criterion_08_field_checks():
    with _Timer() as t:
        state_1d = BoxState(box=BoxSpec((1.0,)), qnums=QuantumNumbers((1,)))
        state_3d = BoxState(box=BoxSpec.cube(1.0), qnums=QuantumNumbers((1, 1, 1)))
        norm_1d = normalization_check(state_1d, GridSpec(201))
        norm_3d = normalization_check(state_3d, GridSpec(51))
        ok = abs(norm_1d - 1.0) <= 1e-8 and abs(norm_3d - 1.0) <= 1e-6

        conj_1d = conjugated_state(state_1d)
        conj_3d = conjugated_state(state_3d)
        ok &= abs(normalization_check(conj_1d, GridSpec(201)) + 1.0) <= 1e-8
        ok &= abs(normalization_check(conj_3d, GridSpec(51)) + 1.0) <= 1e-6

        max_current = 0.0
        for x in np.linspace(0.0, 1.0, 51):
            for tval in (0.0, 0.7):
                for st in (state_1d, conj_1d):
                    max_current = max(
                        max_current, abs(st.sample((float(x),), tval).current[0])
                    )
        grid_pts = np.linspace(0.0, 1.0, 9)
        for pos in itertools.product(grid_pts, repeat=3):
            for st in (state_3d, conj_3d):
                sample = st.sample(tuple(float(v) for v in pos), 0.4)
                max_current = max(max_current, max(abs(j) for j in sample.current))
        ok &= max_current <= 1e-12

        ratio_1d = stationarity_residual(state_1d, GridSpec(101)) / stationarity_residual(
            state_1d, GridSpec(201)
        )
        ratio_3d = stationarity_residual(state_3d, GridSpec(21)) / stationarity_residual(
            state_3d, GridSpec(41)
        )
        ok &= 3.5 <= ratio_1d <= 4.5 and 3.5 <= ratio_3d <= 4.5
    ok = ok and t.elapsed < 60.0
    _report(
        8,
        ok,
        t.elapsed,
        f"fields: norm gaps {abs(norm_1d - 1.0):.1e}/{abs(norm_3d - 1.0):.1e}, "
        f"|J|max {max_current:.1e}, ratios {ratio_1d:.2f}/{ratio_3d:.2f}",
    )
    assert ok
    assert t.elapsed < 60.0


def test_criterion_09_density_of_states():
    with _Timer() as t:
        box = BoxSpec.cube(0.5)
        sweep = np.linspace(1.0, 40.0, 20)
        ok = True
        for tmax in sweep:
            kg = count_states("kg", box, float(tmax))
            dirac = count_states("dirac", box, float(tmax))
            ok &= dirac >= kg
            ok &= kg == lattice_count(box.lengths, float(tmax), 10)
    ok = ok and t.elapsed < 30.0
    _report(9, ok, t.elapsed, "spin-1/2 cumulative counts dominate; spin-0 matches oracle")
    assert ok
    assert t.elapsed < 30.0


def test_criterion_10_figure_data_regeneration():
    with _Timer() as t:
        ok = True
        for dim in ("1", "3"):
            args = [
                "spectrum", "--dim", dim, "--model", "all",
                "--lc", "1,10,100,300", "--levels", "4",
            ]
            first = invoke(*args)
            second = invoke(*args)
            ok &= first.exit_code == 0 and first.stdout == second.stdout
            data_lines = [
                line
                for line in first.stdout.splitlines()
                if line and not line.startswith("#")
            ]
            ok &= len(data_lines) == 37  # header + 36 rows
            as_json = invoke(*args, "--format", "json")
            again = invoke(*args, "--format", "json")
            ok &= as_json.exit_code == 0 and as_json.stdout == again.stdout
            ok &= len(json.loads(as_json.stdout)["rows"]) == 36
    ok = ok and t.elapsed < 10.0
    _report(10, ok, t.elapsed, "figure tables regenerate byte-identically")
    assert ok
    assert t.elapsed < 10.0
