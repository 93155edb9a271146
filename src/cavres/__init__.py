"""cavres: exact entanglement dynamics of three dissipating cavity qubits.

Three cavity qubits prepared in a GHZ/W mixture (or a generalized GHZ
state) each leak their excitation into an independent reservoir.  The
package constructs the exact evolved states, evaluates negativity and
concurrence measures against closed forms, classifies the sudden-death
regions, and verifies the monogamy chain and the cavity/reservoir swap
relation, all backed by dense numerical oracles.
"""

__version__ = "0.1.0"

from .linalg import DensityMatrix, PureState, SystemLayout, partial_transpose
from .states import (amplitudes, gghz_output_state, ghz, global_output_state,
                     global_output_state_from_amplitudes, mixed_ghz_w,
                     purified_initial, reduce, reorder, w)
from .entanglement import (MonogamyChainRecord, PtSpectrum,
                           closed_form_pt_eigenvalues, gghz_negativity_closed,
                           monogamy_chain, negativity, negativity_from_spectrum,
                           pure_bipartite_concurrence_sq)
from .esd import (RegionClass, classify_region, equal_entanglement_range,
                  esb_time, esb_time_numeric, esd_threshold_probability,
                  esd_time, gghz_esd_boundary, gghz_esd_time,
                  initial_negativity, lambda5_boundary, lambda7_boundary,
                  min_esd_point, min_initial_negativity, reservoir_negativity,
                  swap_check)

__all__ = [
    "__version__",
    # linear algebra
    "SystemLayout", "PureState", "DensityMatrix", "partial_transpose",
    # states
    "ghz", "w", "mixed_ghz_w", "amplitudes",
    "purified_initial", "global_output_state",
    "global_output_state_from_amplitudes", "gghz_output_state", "reduce",
    "reorder",
    # entanglement
    "negativity", "PtSpectrum", "closed_form_pt_eigenvalues",
    "negativity_from_spectrum", "pure_bipartite_concurrence_sq",
    "gghz_negativity_closed", "MonogamyChainRecord", "monogamy_chain",
    # sudden death / birth
    "RegionClass", "lambda5_boundary", "lambda7_boundary",
    "classify_region", "esd_time", "min_esd_point", "min_initial_negativity",
    "initial_negativity", "esd_threshold_probability", "gghz_esd_boundary",
    "gghz_esd_time", "equal_entanglement_range", "swap_check", "esb_time",
    "esb_time_numeric", "reservoir_negativity",
]
