"""A subset of the deadline matrix of `deadline.py`: commands that used to
walk F_(q^n)^* or fill a baby-step table of isqrt(q^n - 1) entries now end
or refuse within the deadline.  `python tests/deadline.py` runs the whole
matrix."""

import json

import pytest

from deadline import commands, run

# (field, command, exit code, error code)
SUBSET = [
    # no Lunardon-Polverino parameter exists at q = 2: refused before any walk
    ((2, 1, 31), "families 2", 1, "BadParams"),
    # the largest field: discrete logs without tables for the report
    ((2, 1, 40), "families 1", 0, None),
    ((2, 4, 10), "families 2", 0, None),
    # family 4 lives in F_(q^6)[x]: refused before any candidate delta
    ((2, 1, 40), "families 4", 1, "BadParams"),
    ((1048573, 1, 2), "analyze", 2, "TooLarge"),
]


@pytest.mark.parametrize("field, label, code, error", SUBSET,
                         ids=["{}_{}_{} {}".format(*case[0], case[1]) for case in SUBSET])
def test_command_ends_within_the_deadline(tmp_path, field, label, code, error):
    got, seconds, stderr = run(dict(commands(field, tmp_path))[label])
    assert got == code, (field, label, got, seconds, stderr)
    if error:
        assert json.loads(stderr)["error"]["code"] == error
