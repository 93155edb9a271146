"""The closed-form partial-transpose spectrum against the dense eigensolver.

The evolved cavity state of the GHZ/W mixture has eight partial-transpose
eigenvalues in closed form.  Six are provably nonnegative; the remaining
two decide whether the photons are entangled.  This script checks the
formulas pointwise against a full numerical reconstruction and prints a
small negativity surface.
"""

import numpy as np

from cavres import (closed_form_pt_eigenvalues, global_output_state,
                    negativity, negativity_from_spectrum, partial_transpose,
                    reduce)

print("=" * 70)
print("1. Spectrum vs dense oracle at sample points")
print("=" * 70)
for p, kt in [(1.0, 0.0), (0.0, 0.0), (0.5, 0.3), (0.385, 1.091), (0.8, 2.5)]:
    spec = closed_form_pt_eigenvalues(p, kt)
    cav = reduce(global_output_state(p, kt), ["c1", "c2", "c3"])
    numeric = np.linalg.eigvalsh(partial_transpose(cav, ["c1"]))
    closed = np.sort(np.asarray(spec.lambdas))
    print(f"p = {p:5.3f}, kt = {kt:5.3f}: "
          f"max |closed - numeric| = {np.max(np.abs(closed - numeric)):.2e}, "
          f"lambda5 = {spec.lambda5:+.6f}, lambda7 = {spec.lambda7:+.6f}")

print()
print("=" * 70)
print("2. Known endpoints")
print("=" * 70)
n_w = negativity_from_spectrum(closed_form_pt_eigenvalues(0.0, 0.0))
n_ghz = negativity_from_spectrum(closed_form_pt_eigenvalues(1.0, 0.0))
print(f"W   state: N = {n_w:.12f}  (2*sqrt(2)/3 = {2 * np.sqrt(2) / 3:.12f})")
print(f"GHZ state: N = {n_ghz:.12f}")

print()
print("=" * 70)
print("3. A coarse negativity surface (rows: p, columns: kt)")
print("=" * 70)
kts = np.linspace(0.0, 3.0, 7)
print("        " + "  ".join(f"kt={kt:4.1f}" for kt in kts))
for p in np.linspace(0.0, 1.0, 6):
    row = [negativity_from_spectrum(closed_form_pt_eigenvalues(p, kt))
           for kt in kts]
    print(f"p={p:4.2f}  " + "  ".join(f"{n:7.4f}" for n in row))

print()
print("Negativity hits exactly zero at finite kt for the middle rows:")
print("that is sudden death, while the p = 0 and p = 1 rows only decay")
print("asymptotically.")

print()
print("=" * 70)
print("4. The same numbers from the dense route")
print("=" * 70)
p, kt = 0.6, 1.2
cav = reduce(global_output_state(p, kt), ["c1", "c2", "c3"])
print(f"p = {p}, kt = {kt}:")
print(f"  closed form : {negativity_from_spectrum(closed_form_pt_eigenvalues(p, kt)):.12f}")
print(f"  dense oracle: {negativity(cav, ['c1']):.12f}")
