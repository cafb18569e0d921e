import warnings
from unittest import mock

import pytest

from berrytherm import oracle, reports
from berrytherm.cli import certification_report
from berrytherm.fockspace import TruncationWarning


@pytest.fixture(scope="session")
def certify_reports():
    """The positive certification report and its negative control, built once;
    building them must emit no TruncationWarning, and each report's loop grid
    must build its selection targets once per rung that has pairs left to size
    (one ``eigenstates`` call at each of the 4 rungs)."""
    eigenstates = oracle.eigenstates
    loop_check_cells = reports._loop_check_cells
    target_calls = [0]
    grid_passes = [0]

    def counted_targets(*args, **kwargs):
        target_calls[0] += 1
        return eigenstates(*args, **kwargs)

    def counted_grid(*args, **kwargs):
        before = target_calls[0]
        cells = loop_check_cells(*args, **kwargs)
        grid_passes[0] += target_calls[0] - before
        return cells

    passes = []
    with warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(oracle, "eigenstates", counted_targets), \
            mock.patch.object(reports, "_loop_check_cells", counted_grid):
        warnings.simplefilter("always")
        pos = certification_report()
        passes.append(grid_passes[0])
        neg = certification_report(negative_control=True)
        passes.append(grid_passes[0] - passes[0])
    truncated = [str(w.message) for w in caught if issubclass(w.category, TruncationWarning)]
    assert truncated == []
    assert passes == [4, 4], passes
    return pos, neg
