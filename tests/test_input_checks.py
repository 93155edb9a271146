"""Input checks that no other test reaches: each refuses its input with
the named error and message."""

import argparse
import re

import numpy as np
import pytest

from cavres import DensityMatrix, PtSpectrum, PureState, SystemLayout, cli
from cavres.linalg import _as_array


def _raises(error, message):
    return pytest.raises(error, match=f"^{re.escape(message)}$")


def test_tolerance_that_is_not_a_number():
    with _raises(argparse.ArgumentTypeError, "must be finite and at least 0, got 'abc'"):
        cli._tolerance("abc")


def test_position_of_a_label_not_in_the_layout():
    with _raises(ValueError, "label 'r1' not in layout ('c1', 'c2')"):
        SystemLayout(("c1", "c2")).position("r1")


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
