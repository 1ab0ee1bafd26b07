"""Unit tests of the output scan shared by reports, closed forms, fits and overflow_as_error."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from dcecon.errors import NumericalOverflowError, first_non_finite, overflow_as_error


@dataclass
class Record:
    first: float
    label: str
    count: int
    last: Optional[float] = None


def test_finite_values_give_none():
    assert first_non_finite(1.5) is None
    assert first_non_finite({"rows": [{"a": 1.0, "b": (2.0, 3.0)}], "note": None}) is None
    assert first_non_finite(Record(1.0, "x", 3)) is None


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_a_bare_float_has_the_empty_path(value):
    assert first_non_finite(value) == ("", value)
    assert first_non_finite(value, "objective") == ("objective", value)


def test_nan_is_found():
    path, value = first_non_finite({"x": math.nan})
    assert path == "x" and math.isnan(value)


def test_nested_dict_list_tuple_paths():
    value = {"config": {"cap": 1.8}, "rows": [{"year": 1997, "objective": 1.0},
                                              {"year": 2002, "objective": (0.5, math.inf)}]}
    assert first_non_finite(value) == ("rows[1].objective[1]", math.inf)
    assert first_non_finite([[1.0], [2.0, -math.inf]]) == ("[1][1]", -math.inf)
    assert first_non_finite({"rows": [{"objective": math.inf}]}, "report") == (
        "report.rows[0].objective", math.inf)


def test_record_fields_in_declaration_order():
    assert first_non_finite(Record(math.inf, "x", 1, -math.inf)) == ("first", math.inf)
    assert first_non_finite(Record(1.0, "x", 1, -math.inf)) == ("last", -math.inf)
    assert first_non_finite({"rows": [Record(1.0, "x", 1, math.inf)]}) == (
        "rows[0].last", math.inf)


def test_none_and_non_float_fields_are_skipped():
    assert first_non_finite(Record(2.0, "inf", 10**400)) is None
    assert first_non_finite([None, "nan", 7, True, np.array([math.inf])]) is None


def test_numpy_float_scalars_are_floats():
    assert first_non_finite({"r_squared": np.float64("inf")}) == ("r_squared", math.inf)


def test_first_hit_wins():
    assert first_non_finite({"a": [1.0, math.nan], "b": math.inf})[0] == "a[1]"
    assert first_non_finite((math.inf, math.nan)) == ("[0]", math.inf)
    assert first_non_finite({"b": -math.inf, "a": math.inf}) == ("b", -math.inf)


def test_overflow_as_error_scans_float_and_tuple_results_only():
    @overflow_as_error
    def pair():
        return 1.0, math.inf

    @overflow_as_error
    def record():
        return Record(math.inf, "x", 1)

    with pytest.raises(NumericalOverflowError, match=r"^non-finite result pair = inf$"):
        pair()
    assert record().first == math.inf
