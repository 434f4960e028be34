"""The byte-identity corpus in tier-1: its fixed stratified subset.

`python tests/corpus.py` runs every entry; see corpus.py.
"""

import pytest

from corpus import TASKS, command_lines, document, subset


def test_every_entry_has_an_expected_record(expected):
    lines = [line for _, line in command_lines()]
    assert len(set(lines)) == len(lines)
    assert set(lines) == set(expected)


def test_subset_reports_are_byte_identical(expected):
    for line, record in document(subset(command_lines())).items():
        assert record == expected[line], line


@pytest.mark.parametrize("task", TASKS)
def test_shortcut_records_equal_one_task_analyze(expected, task):
    # a regenerated expected file keeps each shortcut equal to its analyze
    files = "--field ci/f7n6.json --poly ci/frobenius.json"
    assert expected[f"{task} {files}"] == expected[f"analyze {files} --tasks {task}"]
