import numpy as np
import pytest

from berrytherm import cli
from berrytherm.fockspace import (
    FockDims,
    TruncationWarning,
    mode_tails,
    truncation_tail,
)


def test_dims_validation():
    with pytest.raises(ValueError):
        FockDims(1, 5)
    with pytest.raises(ValueError):
        FockDims(5, 0)
    assert FockDims(3, 4).total == 12


def test_squeeze_truncation_warning():
    # u = 0.7 leaves a fat squeezed tail at cutoff 6
    config = {"diag_omega_a": np.e ** 2, "diag_omega_b": 1.0, "diag_v": 0.3, "cutoff": 6}
    with pytest.warns(TruncationWarning, match="cutoff 6"):
        cli.cmd_diagonalize(config)
    # the warning names the eigenstates' exact tail: at (v 0.1, ratio e^3) and
    # cutoff 28 it is 4.2e-13, above the gate (the sized default there is 32)
    config = {"diag_omega_a": np.e ** 3, "diag_omega_b": 1.0, "diag_v": 0.1, "cutoff": 28}
    with pytest.warns(TruncationWarning, match="cutoff 28: eigenstate tail 4.17e-13"):
        cli.cmd_diagonalize(config)


def test_truncation_tail_detects_top_levels():
    low, top = np.zeros((6, 6)), np.zeros((6, 6))
    low[1, 1] = top[5, 0] = 1.0  # |1,1> and |5,0>
    assert truncation_tail(low) == 0.0
    assert truncation_tail(top) == pytest.approx(1.0)
    # per mode and per column: |5,0> sits in the field's top two levels only
    assert mode_tails(np.stack([low, top], axis=2) ** 2).tolist() == [[0.0, 1.0], [0.0, 0.0]]
