import json

import pytest

from scattered_lab.selftest import tower as _tower

from corpus import EXPECTED


@pytest.fixture(scope="session")
def tower():
    """Shared, memoized tower factory: tower(p, e, n)."""
    return _tower


@pytest.fixture(scope="session")
def expected():
    """The byte-identity corpus's records: {command line: record}."""
    return json.loads(EXPECTED.read_text())
