"""Jost functions of a spherical plasma shell and the search for real zeros.

A real-frequency zero of a Jost function would be a true surface plasmon of
the shell. The TM function develops deep finite-width resonance dips at weak
coupling, but its imaginary part (Omega/k0) [z j_l(z)]'^2 stays strictly
positive, so the dips are resonances rather than zeros.
"""

import math

import numpy as np

from plasmasheet import (
    SphericalShell,
    evaluate_jost,
    jost_tm,
    scan_real_zeros,
    tm_flat_limit,
)

shell = SphericalShell(radius=1.0, omega=1.0)

print("Jost functions at Omega R = 1 (imaginary parts are always >= 0)")
print(f"{'k0 R':>6} {'Re gTE':>10} {'Im gTE':>10} {'Re gTM':>10} {'Im gTM':>10}")
for z in (0.5, 1.0, 3.0, 10.0):
    result = evaluate_jost(2, z, shell)
    print(f"{z:6.1f} {result.gTE.real:10.4f} {result.gTE.imag:10.4f}"
          f" {result.gTM.real:10.4f} {result.gTM.imag:10.4f}")
print()

print("Certified zero scan over l = 1..5, Omega R in {0.1, 1, 10}:")
total = 0
for l in range(1, 6):
    for omega_r in (0.1, 1.0, 10.0):
        total += len(scan_real_zeros(l, SphericalShell(1.0, omega_r)))
print(f"  candidates that survive certification: {total}\n")

print("The l = 5 resonance at weak coupling, seen with certification off:")
weak = SphericalShell(radius=1.0, omega=0.1)
for dip in scan_real_zeros(5, weak, certify_nonzero=False):
    estimate = math.sqrt(0.1 * 5 * 6 / 11)
    print(f"  {dip.polarization.upper()} dip at k0 R = {dip.k0r_location:.4f}"
          f" (estimate {estimate:.4f})")
    print(f"  |g|^2 at the minimum : {dip.min_abs_g_squared:.2e}")
    print(f"  exact Im g there     : {dip.imag_part_floor:.2e}")
print("Im g > 0 carries relative error only: a resonance, not a zero.\n")

print("Large shells approach the flat-sheet TM response at fixed kpar = l/R")
kpar, k0 = 1.0, 2.0
gamma = math.sqrt(k0**2 - kpar**2)
period = math.pi * k0 / gamma
for l in (6, 24, 96):
    radius = l / kpar
    big = SphericalShell(radius=radius, omega=3.0)
    z0 = k0 * radius
    samples = z0 + np.arange(64) / 64.0 * period
    mean = np.mean([jost_tm(l, float(z) / radius, big)
                    - tm_flat_limit(float(z) / radius, kpar, 3.0)
                    for z in samples])
    print(f"  l = {l:3d}, R = {radius:5.1f}: |period-averaged deviation|"
          f" = {abs(mean):.6f}")
