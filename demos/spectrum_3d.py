"""Cubic-box levels, permutation degeneracy and the coupled equations.
====================================================================

In three dimensions the spin-1/2 wavenumbers solve three coupled tangent
equations sharing the total kinetic energy; the spin-0 ones stay at
n_i pi / L.  On a cube, levels group by the sorted triple (n1, n2, n3)
with 1-, 3- or 6-fold permutation degeneracy, and spin-1/2 adds a factor
of two.  The first four distinct levels hold 10 spatial modes in total.
"""

from relbox import (
    BoxSpec,
    QuantumNumbers,
    SpectrumRequest,
    dirac_wavenumber_1d,
    dirac_wavenumbers_3d,
    enumerate_levels,
    level_3d,
)

BOX = BoxSpec.cube(300.0)

print("first four distinct levels on the cube of side 300")
print(f"{'model':>8} {'triple':>9} {'degeneracy':>10} {'kinetic':>13}")
total = 0
for model, spin in (("kg", False), ("dirac", True)):
    req = SpectrumRequest(model=model, box=BOX, count=4, spin_counting=spin)
    for level in enumerate_levels(req):
        label = ",".join(str(i) for i in level.qnums.indices)
        print(f"{model:>8} {label:>9} {level.degeneracy:>10} {level.kinetic:>13.6e}")
        if model == "kg":
            total += level.degeneracy
print(f"spin-0 degeneracies sum to {total} spatial modes")

print()
print("strongly relativistic cube (side 1): the coupled solve in action")
for triple in [(1, 1, 1), (1, 1, 2), (1, 2, 3)]:
    level = level_3d("dirac", QuantumNumbers(triple), BoxSpec.cube(1.0))
    x1, x2, x3 = level.wavenumbers
    print(f"  n={triple}: x = ({x1:.6f}, {x2:.6f}, {x3:.6f})  T = {level.kinetic:.6f}")

print()
print("one dominant axis reduces to the one-dimensional equation:")
xs = dirac_wavenumbers_3d(QuantumNumbers((1, 1, 50)), BoxSpec.cube(1.0))
x_1d = dirac_wavenumber_1d(50, 1.0)
print(f"  x3 = {xs[2]:.8f} vs 1D root {x_1d:.8f} "
      f"(relative gap {abs(xs[2] - x_1d) / x_1d:.2e})")
