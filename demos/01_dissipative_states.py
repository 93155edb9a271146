"""Walk through the state constructions: GHZ/W mixtures, purification, and
the exact dissipative evolution of three cavity-reservoir pairs.

Each cavity qubit shares its single excitation with an independent
reservoir qubit; the surviving amplitude is xi = exp(-kt/2) and the leaked
one chi = sqrt(-expm1(-kt)).  An ancilla z purifies the GHZ/W mixture so
the whole evolution stays a pure state on seven qubits.
"""

import numpy as np

from cavres import (amplitudes, ghz, w, mixed_ghz_w, purified_initial,
                    global_output_state, reduce, reorder)
from cavres.states import GLOBAL_LAYOUT

print("=" * 70)
print("1. The two reference states")
print("=" * 70)
print("GHZ amplitudes:", np.round(ghz().amplitudes.real, 6))
print("W   amplitudes:", np.round(w().amplitudes.real, 6))

print()
print("=" * 70)
print("2. Their mixture and its purification")
print("=" * 70)
p = 0.5
rho = mixed_ghz_w(p)
print(f"p = {p}: trace = {rho.data.trace().real:.12f}")
print("eigenvalues:", np.round(np.linalg.eigvalsh(rho.data)[::-1], 12))
psi0 = purified_initial(p)
print("purification layout:", psi0.layout.labels)
recovered = reduce(psi0, ["c1", "c2", "c3"])
print("max |purified reduction - mixture| =",
      f"{np.max(np.abs(recovered.data - rho.data)):.3e}")

print()
print("=" * 70)
print("3. Damping amplitudes")
print("=" * 70)
for kt in (0.0, 0.25, np.log(2.0), 2.0, 8.0):
    xi, chi = amplitudes(kt)
    print(f"kt = {kt:6.3f}: xi = {xi:.6f}, chi = {chi:.6f}, "
          f"xi^2 + chi^2 = {xi * xi + chi * chi:.12f}")
print("kt = ln 2 is the self-dual point where xi = chi.")

print()
print("=" * 70)
print("4. The evolved seven-qubit state")
print("=" * 70)
state = global_output_state(p, 0.0)
expected = reorder(purified_initial(p), GLOBAL_LAYOUT)
print("at kt = 0 the evolved state equals the reordered purification:",
      f"max dev = {np.max(np.abs(state.amplitudes - expected.amplitudes)):.3e}")

for kt in (0.5, 1.5):
    state = global_output_state(p, kt)
    print(f"kt = {kt}: norm = {np.linalg.norm(state.amplitudes):.12f}")
    cav = reduce(state, ["c1", "c2", "c3"])
    res = reduce(state, ["r1", "r2", "r3"])
    print(f"  cavity populations   : {np.round(np.diag(cav.data).real, 4)}")
    print(f"  reservoir populations: {np.round(np.diag(res.data).real, 4)}")

print()
print("The excitations migrate from the cavities to the reservoirs while")
print("the global state stays exactly pure.")
