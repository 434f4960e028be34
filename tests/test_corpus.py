"""The byte-identity corpus in tier-1: its fixed stratified subset.

`python tests/corpus.py` runs every entry; see corpus.py.
"""

import json

import pytest

from corpus import EXPECTED, command_lines, document, subset


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


def test_every_entry_has_an_expected_record(expected):
    lines = [line for _, line in command_lines()]
    assert len(set(lines)) == len(lines)
    assert set(lines) == set(expected)


def test_subset_reports_are_byte_identical(expected):
    for line, record in document(subset(command_lines())).items():
        assert record == expected[line], line
