"""Spin-0 vs spin-1/2 levels in a one-dimensional box.
====================================================

The spin-0 box quantization pins the wavenumber at x_n = n pi / L, while
the spin-1/2 boundary condition turns into the transcendental equation
tan(x L) = -x, whose roots sit strictly below n pi / L.  Both share the
dispersion T = sqrt(x^2 + 1) - 1.  This script prints the scaled kinetic
energies of the first four levels across box sizes, the data behind the
usual comparison figure, and shows both models collapsing onto the
non-relativistic parabola as the box grows.
"""

from relbox import BoxSpec, level_1d, spectrum_table

SIZES = [1.0, 10.0, 100.0, 300.0]

print("first four levels, kinetic energy in units of m c^2")
print(f"{'box':>6} {'n':>2} {'spin-0':>12} {'spin-1/2':>12} {'ratio':>8}")
for box_length in SIZES:
    for n in range(1, 5):
        kg = level_1d("kg", n, box_length).kinetic
        dirac = level_1d("dirac", n, box_length).kinetic
        print(f"{box_length:>6g} {n:>2} {kg:>12.6g} {dirac:>12.6g} {dirac / kg:>8.4f}")

print()
print("non-relativistic limit at the largest box (L = 300 Compton wavelengths):")
for n in range(1, 5):
    dirac = level_1d("dirac", n, 300.0).kinetic
    nonrel = level_1d("nonrel", n, 300.0).kinetic
    print(f"  n={n}: spin-1/2 {dirac:.6e}   x^2/2 {nonrel:.6e}   "
          f"relative gap {abs(dirac - nonrel) / nonrel:.2e}")

print()
boxes = [(size, BoxSpec.cube(size, dim=1)) for size in SIZES]
table = spectrum_table(["kg", "dirac", "nonrel"], boxes, count=4)
print(f"spectrum_table emits {len(table['model'])} rows "
      "(4 levels x 4 sizes x 2 models + 4 non-relativistic reference rows)")
