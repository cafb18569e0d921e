import pytest

from berrytherm.cli import certification_report


@pytest.fixture(scope="session")
def certify_reports():
    """The positive certification report and its negative control, built once."""
    pos = certification_report()
    neg = certification_report(negative_control=True)
    return pos, neg
