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


# (box lengths, indices, 3D spin-1/2 wavenumbers) of the coupled root at 300
# bits: 120 boxes with L_i log-uniform in [0.1, 100] and n_i <= 30, the 16
# dirac levels of the 3D figure table, and the cube pi / sqrt(DBL_MAX / 5.5)
# whose spin-0 |x|^2 overflows.  Quoted, so the tests need no mpmath.
COUPLED_ROOTS_3D = (
    ((0.22769823011981608, 3.2177127078739205, 3.431374648566984), (28, 4, 29),
     (379.4448206566867, 3.8990196324660125, 26.510480374771955)),
    ((0.46757757046630966, 6.3546547054209235, 4.673874704142897), (26, 19, 18),
     (171.35207550968354, 9.376118243367804, 12.069085774027442)),
    ((33.667060578464145, 21.36573070091455, 2.969704325728906), (25, 19, 15),
     (2.3246810324524296, 2.7784162382751596, 15.369641358350068)),
    ((0.524568536441143, 6.960057732738439, 0.21488674664473373), (27, 4, 15),
     (159.6472844682267, 1.8035586388397604, 213.03228507093837)),
    ((0.10825961878119807, 47.08591736324304, 2.9570604714509128), (11, 7, 13),
     (304.73988335739136, 0.4669782006043393, 13.780817357866326)),
    ((0.5682498257876832, 87.04364002900402, 61.36940245265513), (26, 13, 24),
     (140.99036157914438, 0.46912212259340763, 1.2283144516022058)),
    ((3.473462702817292, 0.1694180595605691, 1.0499865024827524), (18, 18, 10),
     (16.251635618202485, 324.5602054521328, 29.747680765339943)),
    ((0.7291314123745035, 0.2646458354922956, 8.597756262444305), (23, 19, 10),
     (98.04319702557632, 219.97017341038415, 3.650457325359781)),
    ((0.1186363849890665, 13.570223531972562, 1.2320453590070037), (14, 3, 13),
     (357.55075303206115, 0.6942348340477611, 33.00034086738784)),
    ((47.087560189564144, 4.6062456910800265, 39.964634761240376), (14, 17, 26),
     (0.9309061294756467, 11.276488934489652, 2.0357881167171965)),
    ((17.800834852627503, 6.316779845267489, 2.9722965183408814), (30, 17, 9),
     (5.2553656111283935, 8.28983302439303, 9.133233067114997)),
    ((34.15333565628985, 4.9203997464846525, 88.46884314053236), (17, 17, 26),
     (1.5560385989603407, 10.556817699688493, 0.9215105431048913)),
    ((0.11915942907504032, 0.471600879456808, 0.24377914848593213), (2, 23, 17),
     (49.64622579180523, 151.03404623718498, 213.5485315332328)),
    ((45.75873107649308, 0.2031089874301195, 7.360868957064309), (16, 5, 16),
     (1.0978141000421713, 69.6980819484817, 6.802805209487091)),
    ((44.96954031807111, 35.390467860803945, 0.23229494518800403), (23, 15, 22),
     (1.6065456552531274, 1.331284039916385, 290.78422956199984)),
    ((2.5598711697398766, 61.43191734634694, 91.55390343568021), (18, 9, 18),
     (21.49521052189912, 0.4595908224730068, 0.6170562727678186)),
    ((1.6078330517583173, 98.77607142046612, 4.410071199507032), (21, 17, 23),
     (40.11698897570358, 0.5404413259150124, 16.225202908866166)),
    ((2.7332459807153917, 45.01427789495341, 1.9915925574003877), (10, 27, 9),
     (11.101256264453431, 1.8798961015547158, 13.565527153977968)),
    ((0.1066180336347982, 0.2815342584499366, 44.271584841192734), (15, 26, 17),
     (428.99315402062393, 286.5337350723025, 1.2062456756700435)),
    ((60.37722149687743, 1.2017319082516882, 0.39766072693442556), (23, 16, 15),
     (1.1964308088693014, 41.28830168121778, 114.72639760152504)),
    ((3.418222617186516, 30.096814473144917, 26.538589088275728), (18, 22, 30),
     (16.11094895297986, 2.2878731773510017, 3.5364724846707465)),
    ((0.1261420433538136, 0.7416644682238901, 2.360297436456615), (26, 4, 15),
     (635.1017370578388, 16.872022545572385, 19.93870441378379)),
    ((11.694977587694563, 22.659592410410475, 3.511720949992337), (15, 30, 6),
     (3.9564309842052494, 4.120254151957175, 5.067271643607296)),
    ((79.76334417435594, 33.6759090838277, 2.738033436891563), (3, 21, 9),
     (0.11789148975927885, 1.9486923564540353, 9.79632731837175)),
    ((51.261469642930074, 1.2893960089729208, 0.383495110564699), (28, 14, 5),
     (1.7146934899973862, 33.21878824301964, 37.655477980398864)),
    ((2.2293817527000446, 0.11017869653851893, 0.10014791392743391), (19, 18, 30),
     (26.751651132430286, 505.15092032116996, 926.708818561809)),
    ((32.28979384638039, 6.767077693082262, 0.3947981404355172), (4, 20, 2),
     (0.3877299961148474, 9.13638217118448, 12.624167089543771)),
    ((18.01212759504152, 73.97767423782831, 10.125847754388356), (21, 12, 5),
     (3.5940507375418203, 0.5068969195891444, 1.49445175224014)),
    ((0.10360800085443758, 9.856982297083471, 5.2826370387571275), (30, 28, 16),
     (894.5082097029641, 8.922068455431853, 9.5112049394475)),
    ((11.729239239200927, 64.94424662202027, 4.339211556665343), (16, 19, 5),
     (4.1886172033786, 0.914834405457546, 3.399690621174849)),
    ((74.9604841282909, 42.460135934233314, 3.26711311609874), (3, 14, 22),
     (0.12557583354483648, 1.0336113357627437, 20.689134085342342)),
    ((0.3022487717755017, 0.2547055487305449, 22.24505097601135), (19, 10, 17),
     (192.84035452127105, 119.54875607778025, 2.399905282720712)),
    ((1.722334282679943, 26.545137419118117, 3.6315561648067596), (7, 13, 1),
     (11.910442477373623, 1.5297651168062365, 0.8301702733907388)),
    ((75.24428222422628, 1.472461442557136, 0.1660733696265209), (27, 12, 21),
     (1.1272247347384752, 25.51397572569162, 387.8248870266973)),
    ((1.1487047673087474, 20.351724465447475, 0.11950077208702829), (17, 16, 11),
     (46.20955761397057, 2.468975659349402, 276.1834592300772)),
    ((11.178497370271817, 2.240893131137469, 55.19131398932141), (16, 15, 19),
     (4.460664734224059, 20.360499984196267, 1.0797299298427825)),
    ((7.174936940379043, 0.32523764370119423, 5.939986951815281), (7, 14, 20),
     (3.0585329263346708, 130.43592846208733, 10.550900532967614)),
    ((1.0215428519188472, 6.232450173142749, 10.85162830475596), (3, 18, 13),
     (8.17131564593164, 8.888276700518855, 3.7146594059725215)),
    ((0.12660710087205346, 8.74362215750994, 0.3312010678735312), (21, 18, 30),
     (509.74545250414434, 6.464884819311282, 281.84643783123283)),
    ((32.88068887225307, 2.267057683352313, 18.370843047083248), (7, 16, 23),
     (0.6670447403285531, 21.506782753757964, 3.9147851277465002)),
    ((10.861848143989562, 0.11518859769364469, 8.648822046228721), (7, 26, 29),
     (2.024088048140054, 695.486973428949, 10.53044607054028)),
    ((3.552695480814811, 74.09047371885326, 0.30281127371294614), (28, 6, 13),
     (24.65683593609335, 0.2543610898330966, 129.76799211106447)),
    ((0.6582952217773188, 3.972214859131146, 40.19183613690883), (13, 10, 6),
     (59.69222451444336, 7.844746106902219, 0.4686087506279175)),
    ((1.0769558977118185, 0.6170652197976906, 3.110335621315615), (25, 27, 14),
     (72.1180684646272, 135.13612086424936, 14.08236545097664)),
    ((0.7294756454098739, 0.33953679401704223, 3.6141429718833793), (15, 4, 17),
     (62.67324486709764, 34.44456313587867, 14.668967225998177)),
    ((24.536205895182253, 24.55477702125867, 28.083874725979687), (28, 7, 8),
     (3.533993134454944, 0.8810429692961393, 0.8821772724200502)),
    ((0.10344690540250233, 0.19026495120314857, 2.30324922713527), (11, 14, 18),
     (320.84850389497, 225.69572738469455, 24.49777755832856)),
    ((22.38419694004332, 35.357404186207795, 10.261169891282364), (1, 12, 28),
     (0.1390489147485739, 1.0599819446932939, 8.431673441457372)),
    ((0.2953094667807892, 4.852970309008033, 5.2119079835530275), (18, 7, 4),
     (186.18982669780087, 4.521533373722351, 2.4061579547134033)),
    ((7.283720403311461, 0.6940916596428595, 17.936542110957483), (24, 7, 19),
     (10.267536244876407, 29.555959342890013, 3.3165113608419987)),
    ((0.7657735477099892, 0.6372386645348568, 4.647318908249858), (4, 26, 9),
     (16.08336390912035, 125.74213144458793, 6.063624764737105)),
    ((0.19466694921288014, 2.0330994600517864, 0.20802101471006632), (2, 25, 12),
     (30.56430249372802, 38.425555795022014, 173.88719234940302)),
    ((14.691797851295103, 0.36015177792302616, 7.767112642484803), (17, 11, 9),
     (3.629839254855444, 91.62577649722621, 3.6301927146011934)),
    ((5.812001024286751, 0.15550526368477138, 62.43868410432843), (6, 9, 9),
     (3.2367675562986054, 171.7597134046847, 0.4527496687516329)),
    ((0.15439642301438047, 1.7176196626053792, 49.44953478752809), (25, 9, 14),
     (498.532072294919, 16.42309995190676, 0.8893660675640066)),
    ((78.75865072409799, 0.14857126813884391, 0.5077806403233878), (10, 4, 4),
     (0.3987605323508864, 74.41743528650949, 23.60509343865093)),
    ((11.415095340119205, 5.363436645361625, 64.31811006140856), (12, 11, 25),
     (3.236482279569173, 6.201067599433122, 1.216518716663405)),
    ((2.3341788238853853, 7.536730312379944, 13.888293616054295), (2, 30, 13),
     (2.5375691137962604, 12.313163107153784, 2.9110174151380597)),
    ((0.8875466455990357, 0.44351537925529066, 2.4434842011905875), (22, 29, 4),
     (77.10372215305405, 202.04081834596536, 5.123514501256917)),
    ((11.465431113302229, 38.36209448057459, 11.071617897246151), (30, 9, 13),
     (8.101070894901161, 0.73320794354181, 3.625719042052748)),
    ((0.7510073174251696, 28.212848806529486, 0.14889912558412807), (23, 14, 29),
     (95.79810970905721, 1.5587644737406283, 601.4109440450426)),
    ((0.11775787035757163, 12.187142205264577, 0.7390385448720882), (25, 26, 30),
     (653.7915067366758, 6.70061266325453, 127.01833975797487)),
    ((0.23278001433292594, 20.122421552740043, 0.9049978878934873), (29, 1, 18),
     (384.70155321207, 0.15608427763314534, 62.13630378222605)),
    ((74.19425086204697, 0.3911513965668703, 0.14737894916095753), (4, 6, 20),
     (0.16936033361344238, 47.61200461652316, 415.7307560524816)),
    ((0.23337569773650726, 0.12940652926251242, 3.696167711475298), (20, 21, 21),
     (265.4731784613389, 498.65600375739353, 17.83211237073811)),
    ((0.8067212694372522, 1.8806598440630538, 0.2392728571437384), (14, 13, 13),
     (53.78184837549192, 21.585869042986786, 164.3904394137559)),
    ((0.5222974873061842, 1.832130179379207, 0.45571768130300466), (5, 6, 18),
     (29.20024552211792, 10.199893334040953, 120.7275341623285)),
    ((0.12168901295591117, 14.184050892208685, 4.207191275472126), (18, 13, 29),
     (451.8176776515964, 2.8784446909914045, 21.63220535703012)),
    ((0.5819999327552926, 0.2773640236234483, 0.11751302009557428), (9, 18, 16),
     (48.226131610683495, 200.93715455926798, 415.33432565112474)),
    ((1.793243680560236, 75.06488689823799, 0.2605987635351636), (21, 19, 3),
     (36.08301953528167, 0.7947508277160387, 31.75857490690132)),
    ((33.01109051138013, 4.559805768047936, 8.92564684453614), (27, 17, 27),
     (2.559948210689679, 11.440956768150112, 9.384734076337486)),
    ((0.6246954909003803, 7.925372119094714, 18.348300472133406), (11, 2, 22),
     (52.8389136909806, 0.7891054897667649, 3.7592582278951685)),
    ((33.26264089510398, 7.648468157299862, 0.5350809821802429), (2, 8, 22),
     (0.18880698187393888, 3.2792488161091433, 126.24724249250671)),
    ((3.356299907820339, 0.2834917944070222, 17.201968181127754), (28, 13, 23),
     (26.100563657363853, 138.6102077565469, 4.19705353856752)),
    ((84.8229802910814, 71.28525701353284, 0.4983542569235941), (27, 9, 11),
     (0.999649728746551, 0.3964710539719259, 66.2218729810812)),
    ((38.33885268005385, 1.3310046262889574, 2.3867293623349437), (15, 18, 26),
     (1.2279672670303359, 41.50800501431999, 33.758616750962574)),
    ((2.6435527098721523, 23.2213180708841, 5.51745882992999), (7, 6, 21),
     (7.954478890645606, 0.8071722154230291, 11.719385208297284)),
    ((1.7045692914842703, 2.8481975254930108, 0.1037374163347739), (12, 27, 27),
     (22.084298649211828, 29.755329025195042, 802.5504947962585)),
    ((3.712641574179495, 1.678729240774504, 0.129574297000855), (6, 3, 10),
     (5.065342448832199, 5.58549366722415, 230.36979374760233)),
    ((1.3133533748956614, 15.596417680232195, 0.25934732022504264), (24, 4, 29),
     (57.163093287003264, 0.8054273444638829, 345.29667878059473)),
    ((0.1135160671872687, 0.44809257786504286, 35.16698495580076), (19, 10, 19),
     (512.0908031284774, 69.51469245996168, 1.6971516086927685)),
    ((0.13612227520862108, 1.512962255078735, 4.1394522928138935), (17, 26, 21),
     (380.90466256796736, 53.8046633511727, 15.917811240481075)),
    ((9.667388178164956, 78.61074340075974, 0.20642599297437206), (5, 24, 13),
     (1.623084969514582, 0.9590062756066687, 190.2629231378871)),
    ((1.0019125764629104, 0.608600374514127, 0.13328024583792414), (19, 22, 26),
     (59.384360236453034, 112.96753782437231, 601.246440340279)),
    ((0.37096272338991887, 49.743525082399806, 0.7689100461425478), (10, 12, 5),
     (80.56499368284555, 0.7575070659359597, 19.825838096514225)),
    ((82.84423305855282, 0.36820650346719097, 17.418392189202642), (1, 28, 20),
     (0.037917797755302046, 234.64598375672728, 3.605456693643575)),
    ((8.777009847731648, 65.7130960741155, 1.166740732718094), (25, 29, 25),
     (8.918472053636409, 1.385799868944465, 65.99006583775382)),
    ((86.51048716210691, 97.82066378494332, 0.32557848578368626), (17, 1, 6),
     (0.617084503784648, 0.03210371534372078, 53.128958455603595)),
    ((0.8790560163037033, 0.27179206203795603, 0.12168980976533185), (4, 17, 22),
     (14.240367010913337, 194.15908639587502, 555.5421614758972)),
    ((44.35807078799916, 8.515586041363921, 0.1013860268056766), (12, 3, 12),
     (0.8497744728308511, 1.1060411045753138, 356.3718822247545)),
    ((0.80899596037995, 3.9481736754100996, 6.287663102975878), (8, 5, 4),
     (29.180589363449673, 3.9139400477728006, 1.977993096596771)),
    ((90.17780747052731, 2.842460188482665, 41.87281230386142), (24, 3, 13),
     (0.8318884224977348, 2.899859884794503, 0.9648592032784749)),
    ((0.6133573778693625, 0.8025753995344648, 0.22524072930969855), (16, 30, 16),
     (80.96770430167349, 116.38358946110897, 216.99142825073844)),
    ((0.23057694290084232, 3.6044504058773894, 30.61466293508589), (22, 27, 15),
     (292.9645136696415, 23.48875237195524, 1.5389179193362121)),
    ((56.63237656239147, 1.08481773545984, 0.16110335088928665), (3, 26, 16),
     (0.16640151571606357, 74.86168804700574, 302.4618539141682)),
    ((21.571666740623062, 0.6250460169837008, 9.690027304586456), (6, 11, 14),
     (0.8723138343655403, 52.811105375276945, 4.521688129173447)),
    ((3.3022982161393046, 0.9888670529682211, 52.64009846105239), (24, 22, 28),
     (22.649958062653113, 68.37158449481903, 1.6701882935964063)),
    ((3.0170521042471528, 0.8730663008395454, 0.3885590852002429), (15, 8, 28),
     (15.573523835821069, 28.499072171787706, 222.3826488047116)),
    ((11.681087424789647, 1.1108098778532234, 22.990687755027004), (14, 27, 26),
     (3.756816592933036, 74.96141810586509, 3.5487527858285444)),
    ((5.882877400253058, 0.43513760412069635, 2.1135636832652676), (19, 22, 24),
     (10.125037956240497, 155.30245329071192, 35.46785807615921)),
    ((0.2414082499904505, 0.6351656453239941, 32.13203538889852), (11, 9, 27),
     (136.87242502007885, 43.59335162160748, 2.6386914825288086)),
    ((39.84245227459471, 0.6178297256113671, 4.318677833836892), (9, 8, 11),
     (0.7087650196297289, 38.21230563033633, 7.9115375533755365)),
    ((82.55599079953615, 4.829473638868899, 0.23426564878281664), (10, 19, 15),
     (0.3804937856496975, 12.333537353650815, 194.48106871314286)),
    ((7.9355265510866335, 1.5788864835155438, 4.458640454908523), (11, 22, 14),
     (4.330678977937099, 42.81314366403405, 9.768902553247656)),
    ((1.0244982692949327, 10.902468772684124, 58.705968870375735), (30, 22, 28),
     (90.47412308592969, 6.32675858431857, 1.4978363413592954)),
    ((7.92426453422973, 33.34856628815507, 19.63852250670671), (17, 7, 14),
     (6.566705068940704, 0.6545562832928778, 2.2122209046014767)),
    ((1.138888823911855, 0.9802489970469208, 58.70464522196489), (24, 6, 1),
     (64.87206204520487, 18.686131181892446, 0.05348863484020988)),
    ((0.6326515551893674, 12.737255825381258, 0.2464890125086639), (19, 21, 20),
     (93.28594307550568, 5.176518741067675, 248.8172312353446)),
    ((1.7533452083617482, 21.60746950299002, 2.678109597372496), (29, 16, 11),
     (51.094002763759406, 2.322302077542765, 12.729926525718321)),
    ((0.10845811237701625, 18.698650035051948, 8.106070699914449), (22, 28, 9),
     (622.7832144955213, 4.7035221513543375, 3.486665298088744)),
    ((0.9546430532532425, 21.842926009363175, 23.563202198533798), (17, 9, 20),
     (54.31992664633416, 1.292303828994776, 2.662449097273845)),
    ((7.771584420079391, 0.1725694363341697, 11.948176805357129), (18, 25, 1),
     (7.272151555834917, 446.031443389583, 0.26283649333782755)),
    ((88.66641132752439, 0.2934141652870034, 82.59228038150043), (15, 7, 20),
     (0.531304365137391, 69.64488992249179, 0.7604866682498351)),
    ((10.457521798492019, 13.078190481847281, 0.17899732336388902), (14, 23, 17),
     (4.203039988975355, 5.522066982632782, 289.6133678647563)),
    ((11.05149340116053, 4.758524843753601, 0.2109442391878861), (9, 14, 2),
     (2.540649980505161, 9.100292156126205, 22.902023778873026)),
    ((0.3595626329960989, 15.949677870447944, 92.3639707581401), (30, 16, 22),
     (257.7602145011111, 3.1499782920991595, 0.7482274219426871)),
    ((9.753356209509372, 1.0731843693380694, 0.8983692703480859), (16, 9, 16),
     (5.136516863622726, 25.608697500640407, 54.337250426065964)),
    ((44.645845103086735, 32.87624393839593, 0.12886838338088769), (16, 5, 1),
     (1.122268007664669, 0.47571274470388225, 12.825065845591896)),
    ((2.767177035302782, 1.2547647177269492, 32.32598377438945), (15, 7, 12),
     (16.59933988278152, 16.578210308808014, 1.1632827896957445)),
    ((0.662070725929947, 33.631122050457726, 1.5840827719107595), (7, 19, 2),
     (30.9054334897094, 1.7715840010563517, 3.81749254647835)),
    ((1.0, 1.0, 1.0), (1, 1, 1),
     (2.295671596282826, 2.295671596282826, 2.295671596282826)),
    ((1.0, 1.0, 1.0), (1, 1, 2),
     (2.481295755470994, 2.481295755470994, 5.062782354526272)),
    ((1.0, 1.0, 1.0), (1, 2, 2),
     (2.5769287752798324, 5.22057464010115, 5.22057464010115)),
    ((1.0, 1.0, 1.0), (1, 1, 3),
     (2.624796178484522, 2.624796178484522, 8.061083708022162)),
    ((10.0, 10.0, 10.0), (1, 1, 1),
     (0.28719061374318944, 0.28719061374318944, 0.28719061374318944)),
    ((10.0, 10.0, 10.0), (1, 1, 2),
     (0.28837775962589574, 0.28837775962589574, 0.5775205110248081)),
    ((10.0, 10.0, 10.0), (1, 2, 2),
     (0.28939148293530914, 0.5794649213046544, 0.5794649213046544)),
    ((10.0, 10.0, 10.0), (1, 1, 3),
     (0.2899997190631505, 0.2899997190631505, 0.8724489954084679)),
    ((100.0, 100.0, 100.0), (1, 1, 1),
     (0.031105125686498897, 0.031105125686498897, 0.031105125686498897)),
    ((100.0, 100.0, 100.0), (1, 1, 2),
     (0.0311053481539062, 0.0311053481539062, 0.06221084454708388)),
    ((100.0, 100.0, 100.0), (1, 2, 2),
     (0.031105569989296623, 0.06221128790159899, 0.06221128790159899)),
    ((100.0, 100.0, 100.0), (1, 1, 3),
     (0.031105717534752563, 0.031105717534752563, 0.09331774303707578)),
    ((300.0, 300.0, 300.0), (1, 1, 1),
     (0.010437188042870537, 0.010437188042870537, 0.010437188042870537)),
    ((300.0, 300.0, 300.0), (1, 1, 2),
     (0.010437190874402534, 0.010437190874402534, 0.02087438363638985)),
    ((300.0, 300.0, 300.0), (1, 2, 2),
     (0.010437193705014468, 0.020874389297153476, 0.020874389297153476)),
    ((300.0, 300.0, 300.0), (1, 1, 3),
     (0.010437195591580494, 0.010437195591580494, 0.031311594321400106)),
    ((5.495072636159907e-154, 5.495072636159907e-154, 5.495072636159907e-154), (1, 1, 2),
     (4.331704074757938e+153, 4.331704074757938e+153, 8.924762531500614e+153)),
)
"""Made with mpmath 1.3.0 by the script below, which imports nothing from
relbox: each axis root in the pole-free form sin y (x^2 - e^2) - 2 e x cos y
on [(n - 1/2) pi, n pi], and the shared T by bisecting Phi(T) - T on
[0, T_spin0] (Phi is increasing with slope below 1, so the root is unique);
each bisection stops at a bracket 2^-160 of its upper end wide.

::

    import math
    import random
    import sys

    from mpmath import mp, mpf, cos, pi, sin, sqrt

    mp.prec = 300
    WIDTH = mpf(2) ** -160  # relative bracket width at which each bisection stops


    def bisect(g, lo, hi):  # root of g in [lo, hi], where g changes sign, by halving
        sign = 1 if g(lo) > 0 else -1
        while hi - lo > WIDTH * hi:
            mid = (lo + hi) / 2
            if sign * g(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


    def axis_root(n, length, e):
        # x solving sin y (x^2 - e^2) - 2 e x cos y = 0 in y = x L on
        # [(n - 1/2) pi, n pi]; the branch's lower end where there is no sign
        # change (x >= e there, so T + 2 <= x: T lies below the coupled root)
        L = mpf(length)

        def g(y):
            x = y / L
            return sin(y) * (x * x - e * e) - 2 * e * x * cos(y)

        lo, hi = (n - mpf(1) / 2) * pi, n * pi
        if g(lo) * g(hi) >= 0:
            return lo / L
        return bisect(g, lo, hi) / L


    def coupled_roots(indices, lengths):
        # bisect Phi(T) - T on [0, T_spin0]: Phi(T) is the kinetic energy of the
        # axis roots at e = T + 2, increasing in T with slope below 1

        def xs_at(T):
            return [axis_root(n, L, T + 2) for n, L in zip(indices, lengths)]

        def gap(T):
            return sqrt(sum(x * x for x in xs_at(T)) + 1) - 1 - T

        spin0 = sqrt(sum((n * pi / mpf(L)) ** 2 for n, L in zip(indices, lengths)) + 1) - 1
        return xs_at(bisect(gap, mpf(0), spin0))


    def cases():
        rng = random.Random(2026)
        for _ in range(120):
            lengths = tuple(10.0 ** rng.uniform(-1.0, 2.0) for _ in range(3))
            yield lengths, tuple(rng.randint(1, 30) for _ in range(3))
        for length in (1.0, 10.0, 100.0, 300.0):  # the 3D figure table's dirac levels
            for indices in ((1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 3)):
                yield (length,) * 3, indices
        yield (math.pi / math.sqrt(sys.float_info.max / 5.5),) * 3, (1, 1, 2)


    for lengths, indices in cases():
        roots = tuple(float(x) for x in coupled_roots(indices, lengths))
        print(f"    ({lengths!r}, {indices!r},\n     {roots!r}),", flush=True)
"""
