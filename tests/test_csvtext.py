"""The column formatter against Python's own `%d` and `%.6f`, row by row."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dldspec.csvtext import csv_rows

LIMIT = 2.0**53 / 1e6  # the smallest magnitude csv_rows refuses


def _step(tie_direction_count):
    x, direction, count = tie_direction_count
    for _ in range(count):
        x = float(np.nextafter(x, direction))
    return x


# x * 10**6 is exactly halfway between two integers when x is an odd multiple of 2**-7
ties = st.integers(-(2**38), 2**38).map(lambda k: (2 * k + 1) * 0.0078125)
floats = st.one_of(
    ties,
    st.tuples(ties, st.sampled_from([-math.inf, math.inf]), st.integers(1, 3)).map(_step),
    st.floats(-1e-5, 1e-5),
    st.floats(LIMIT * (1 - 2**-20), LIMIT, exclude_max=True).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(-LIMIT, LIMIT, exclude_min=True, exclude_max=True),
    st.just(-0.0),
)
ints = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(floats, ints, floats, ints), min_size=1, max_size=40), st.sampled_from(["", "2,"]))
@example([(-0.0, -(2**63), 0.0078125, 2**63 - 1), (0.0234375, 0, -0.0078125, -1)], "")
def test_rows_match_python_formatting(rows, prefix):
    columns = [np.array(column, dtype=dtype) for column, dtype in zip(zip(*rows), (float, np.int64) * 2)]
    expected = [prefix + "%.6f,%d,%.6f,%d\n" % row for row in rows]
    assert csv_rows(columns, prefix).splitlines(keepends=True) == expected


def test_no_rows_is_no_text():
    assert csv_rows([np.empty(0), np.empty(0, dtype=np.int64)], "1,") == ""
