"""The CLI's number-list check against its per-element reference.

``cli._numbers`` checks a list of only ints and floats as one array and
goes entry by entry only to name a bad entry.  ``numbers_oracle`` is the
entry-by-entry check it replaced: on any JSON-like list both must give the
same floats, bit for bit, or the same ``DomainError`` message, and an
``np`` input file holding a rejected list must still exit 3.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from hypothesis import event, given
from hypothesis import strategies as st

from coordsim import cli
from coordsim.cli import EXIT_INVALID, main
from coordsim.errors import DomainError

BIG = int(sys.float_info.max)
# ints at the edge of float range: the largest float, ints that round to it
# but exceed it, and ints that overflow
EDGE_INTS = [BIG, -BIG, BIG + 1, BIG + 2 ** 969, BIG + 2 ** 970, 2 ** 1024, 10 ** 400, 2 ** 53 + 1]


def numbers_oracle(value, what: str) -> list:
    """A JSON list of numbers, as floats, checked entry by entry."""
    if not isinstance(value, list):
        raise DomainError(f"{what} must be a list of numbers, got {value!r}")
    return [float(cli._number(x, what)) for x in value]


def outcome(check, value):
    """("ok", float bits) or ("error", message) of one check."""
    try:
        floats = check(value, "p")
    except DomainError as e:
        return "error", str(e)
    return "ok", [(type(x), math.copysign(1.0, x), x.hex()) for x in floats]


numbers = (st.floats() | st.integers(-10 ** 400, 10 ** 400) | st.sampled_from(EDGE_INTS)
           | st.integers(-10 ** 20, 10 ** 20))
entries = numbers | st.booleans() | st.text(max_size=3) | st.none() | st.just([]) | st.lists(numbers, max_size=2)
lists = (st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10 ** 20, 10 ** 20),
                  max_size=8)
         | st.lists(numbers, max_size=8) | st.lists(entries, max_size=8))


@given(value=lists | entries)
def test_numbers_match_the_per_element_check(value):
    want = outcome(numbers_oracle, value)
    event(want[0])
    assert outcome(cli._numbers, value) == want
    if want[0] == "error":
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "np.json"
            path.write_text(json.dumps({"p": value, "q": [1.0], "alpha": 0.5}))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["np", "--input", str(path), "--output", str(Path(tmp) / "out")]) == EXIT_INVALID
            assert want[1] in err.getvalue()
