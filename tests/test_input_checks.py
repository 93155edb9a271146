"""Input checks that no other test reaches: each refuses its input with
the named error and message."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cavres import DensityMatrix, PtSpectrum, PureState, SystemLayout, partial_transpose
from cavres.linalg import _as_array


def _raises(error, message):
    return pytest.raises(error, match=f"^{re.escape(message)}$")


def test_position_of_a_label_not_in_the_layout():
    with _raises(ValueError, "label 'r1' not in layout ('c1', 'c2')"):
        SystemLayout(("c1", "c2")).position("r1")


def test_restrict_to_no_labels():
    with _raises(ValueError, "keep set must be nonempty"):
        SystemLayout(("c1", "c2")).restrict([])


def test_restrict_to_a_label_not_in_the_layout():
    with _raises(ValueError, "label 'r1' not in layout ('c1', 'c2')"):
        SystemLayout(("c1", "c2")).restrict(["r1"])


# a bare string is a set of one-character labels; each call prints its refusal
_BARE_STRING_CALLS = """
import numpy as np
from cavres import DensityMatrix, PureState, partial_transpose, reduce
for call in (lambda: reduce(PureState(("c1", "c2"), np.ones(4) / 2.0), "c1"),
             lambda: partial_transpose(DensityMatrix(("c1", "c2"), np.eye(4) / 4.0), "c1")):
    try:
        call()
    except ValueError as exc:
        print(exc)
"""


def test_bare_string_refusal_is_the_same_under_every_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = {subprocess.run([sys.executable, "-c", _BARE_STRING_CALLS], check=True,
                              env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed)),
                              capture_output=True, text=True).stdout
               for seed in range(6)}
    assert outputs == {"label 'c' not in layout ('c1', 'c2')\n" * 2}


@pytest.mark.parametrize("subsystem", [[], ["c1", "c2"]], ids=["empty", "every-label"])
def test_partial_transpose_over_no_or_every_label(subsystem):
    rho = DensityMatrix(("c1", "c2"), np.eye(4) / 4.0)
    with _raises(ValueError, "subsystem must be a nonempty proper subset of the layout"):
        partial_transpose(rho, subsystem)


def test_state_layout_from_a_layout_or_its_labels():
    amps = np.ones(4) / 2.0
    labels = ("c1", "r1")
    assert PureState(SystemLayout(labels), amps).layout == PureState(labels, amps).layout


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)], ids=["too-few", "too-many"])
def test_array_with_the_wrong_number_of_axes(shape):
    with _raises(ValueError, f"expected a 2-d array, got shape {shape}"):
        _as_array(np.zeros(shape), 2)


def test_pure_state_of_the_wrong_length():
    with _raises(ValueError, "amplitude vector of length 3 does not match layout dimension 4"):
        PureState(("c1", "r1"), np.ones(3) / np.sqrt(3.0))


def test_density_matrix_of_the_wrong_shape():
    with _raises(ValueError, "matrix shape (4, 4) does not match layout dimension 2"):
        DensityMatrix(("c1",), np.eye(4) / 4.0)


def test_spectrum_of_seven_eigenvalues():
    with _raises(ValueError, "spectrum must have exactly 8 eigenvalues"):
        PtSpectrum((0.0,) * 7)
