import warnings

import pytest

from berrytherm.cli import certification_report
from berrytherm.fockspace import TruncationWarning


@pytest.fixture(scope="session")
def certify_reports():
    """The positive certification report and its negative control, built once;
    building them must emit no TruncationWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pos = certification_report()
        neg = certification_report(negative_control=True)
    truncated = [str(w.message) for w in caught if issubclass(w.category, TruncationWarning)]
    assert truncated == []
    return pos, neg
