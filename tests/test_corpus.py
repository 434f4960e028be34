"""The byte-identity corpus in tier-1: its fixed stratified subset, and
README's exit-code contract over every record.

`python tests/corpus.py` runs every entry; see corpus.py.
"""

import json

import pytest

from scattered_lab import errors

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


def _error_code(stderr):
    """The code of the JSON error on stderr, or None if stderr holds none."""
    try:
        return json.loads(stderr)["error"]["code"]
    except (TypeError, ValueError, KeyError):
        return None


def test_exit_codes_follow_the_error_contract(expected):
    # README: exit 0 is success, 2 a refused precondition, 1 any other
    # error; an error is a JSON document on stderr with nothing on stdout.
    # Every record is checked, in the subset or not
    # only the classes that set their own code: RefusedPrecondition inherits
    # the base's "Error" with another exit code
    exit_codes = {cls.code: cls.exit_code for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.ScatteredLabError)
                  and "code" in vars(cls)}
    for line, record in expected.items():
        code = _error_code(record["stderr"])
        if code is None:
            assert record["exit"] == 0, line
        else:
            assert (record["exit"], record["stdout"]) == (exit_codes[code], ""), line
