"""Test cases on both implementations of market._walk's one-block steps (the walk fixture in conftest.py)."""

import pytest

# The compiled loop (native.walk), where it builds, and the NumPy body.
WALKS = ("native", "numpy")


def on_each_walk(cases):
    """Every case of `cases` (pytest.param with ids) on each walk, for parametrize(..., indirect=["walk"]).

    The walk is the cases' last value.  A case keeps its id on the
    native walk and gains "-numpy" on the NumPy one, so the ids of tests
    written before the compiled walk do not change.
    """
    return [pytest.param(*case.values, walk, id=case.id if walk == "native" else f"{case.id}-{walk}",
                         marks=case.marks)
            for walk in WALKS for case in cases]
