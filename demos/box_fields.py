"""Wavefunctions, charge density and charge conjugation inside the box.
=====================================================================

A box eigenstate carries a two-component spinor (phi, chi) built from the
momentum-mode amplitudes; its charge density is |phi|^2 - |chi|^2 and
integrates to exactly +1.  Charge conjugation swaps and conjugates the
components, flipping the density to -1.  The charge current vanishes
identically, and the stationary equation H psi = E psi is verified on a
grid via central finite differences (second-order accurate).
"""

import numpy as np

from relbox import (
    BoxSpec,
    BoxState,
    GridSpec,
    QuantumNumbers,
    conjugated_state,
    normalization_check,
    stationarity_residual,
)

state = BoxState(box=BoxSpec((1.0,)), qnums=QuantumNumbers((2,)))
anti = conjugated_state(state)

print("n=2 state in the unit 1D box, sampled at t = 0.4")
print(f"{'x':>5} {'Re phi':>10} {'Im phi':>10} {'rho':>10} {'J':>10}")
for x in np.linspace(0.0, 1.0, 9):
    s = state.sample((float(x),), 0.4)
    print(f"{x:>5.3f} {s.spinor.upper.real:>10.5f} {s.spinor.upper.imag:>10.5f} "
          f"{s.rho:>10.5f} {s.current[0]:>10.2e}")

print()
print("charge quadrature (composite Simpson, 201 points):")
print(f"  particle      {normalization_check(state, GridSpec(201)):+.12f}")
print(f"  conjugated    {normalization_check(anti, GridSpec(201)):+.12f}")

print()
print("stationary-equation residual shrinks at second order:")
for npts in (51, 101, 201):
    res = stationarity_residual(state, GridSpec(npts))
    print(f"  {npts:>4} points: {res:.3e}")

print()
cube = BoxState(box=BoxSpec.cube(1.0), qnums=QuantumNumbers((1, 1, 2)))
print("3D (1,1,2) state on the unit cube:")
print(f"  charge quadrature (41^3 points): {normalization_check(cube, GridSpec(41)):+.9f}")
center = cube.sample((0.5, 0.5, 0.25), 0.0)
print(f"  sample at (0.5, 0.5, 0.25): rho = {center.rho:.6f}, "
      f"|J| = {max(abs(j) for j in center.current):.1e}")
