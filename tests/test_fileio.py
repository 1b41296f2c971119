"""fileio converts each matrix with one np.array call; the per-entry loop in
helpers is the reference for its bits and its error messages."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import matrix_from_json_loop, matrix_to_json_loop, random_system
from palinverse.fileio import (FORMAT_TAG, FileFormatError, _matrix_from_json,
                               load_pair, load_values, load_system, save_pair,
                               save_system)
from palinverse.system import ALL_CLASSES, TP

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                -2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308,
                -1.7976931348623157e308, 1.0, -1.0]
FINITE = st.one_of(st.sampled_from(_EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
# Integers on both sides of the int64 and uint64 limits and up to 1e300,
# all inside the float range.
INTEGERS = st.one_of(st.integers(-10, 10),
                     st.integers(-2**64 - 5, 2**64 + 5),
                     st.integers(2**63 - 5, 2**63 + 5),
                     st.integers(-10**300, 10**300))
NUMBERS = st.one_of(FINITE, st.floats(), INTEGERS)


def _bits(M):
    return np.ascontiguousarray(M).view(np.uint64).tobytes()


@st.composite
def complex_matrices(draw, max_side=5):
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    parts = draw(st.lists(FINITE, min_size=2 * rows * cols, max_size=2 * rows * cols))
    M = np.empty((rows, cols), dtype=np.complex128)
    M.real = np.reshape(parts[0::2], (rows, cols))
    M.imag = np.reshape(parts[1::2], (rows, cols))
    return M


@st.composite
def number_rows(draw, max_side=4):
    """Decoded JSON of a well-formed matrix: equal rows of [re, im] pairs."""
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    pair = st.lists(NUMBERS, min_size=2, max_size=2)
    return draw(st.lists(st.lists(pair, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


# Malformed values: no booleans, and integers stay inside the float range
# (the reference reads the first as numbers and overflows on the second).
_LEAVES = st.one_of(st.none(), st.text(max_size=2), st.integers(-10**6, 10**6),
                    st.floats())
JSON_LIKE = st.recursive(_LEAVES, lambda kids: st.lists(kids, max_size=3),
                         max_leaves=10)


@st.composite
def damaged_rows(draw):
    """A well-formed matrix with one entry replaced, one row cut short or
    one row extended."""
    data = draw(number_rows())
    i = draw(st.integers(0, len(data) - 1))
    j = draw(st.integers(0, len(data[i]) - 1))
    how = draw(st.sampled_from(["entry", "cut", "extend"]))
    if how == "entry":
        data[i][j] = draw(JSON_LIKE)
    elif how == "cut":
        del data[i][j]
    else:
        data[i].append(draw(JSON_LIKE))
    return data


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(X=complex_matrices(), T=complex_matrices())
def test_save_load_is_bit_identical(tmp_path_factory, X, T):
    path = tmp_path_factory.mktemp("pair") / "pair.json"
    save_pair(X, T, path)
    X2, T2 = load_pair(path)
    assert _bits(X2) == _bits(X) and _bits(T2) == _bits(T)
    assert path.read_text() == _pair_oracle(X, T)


def _pair_oracle(X, T):
    """The canonical pair file: json.dumps(indent=2) of the entry loop."""
    doc = {"format": FORMAT_TAG, "X": matrix_to_json_loop(X),
           "T": matrix_to_json_loop(T)}
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_save_system_writes_the_json_dumps_bytes(tmp_path, cls):
    from helpers import random_system

    path = tmp_path / "system.json"
    for n in (1, 2, 5):
        sys_ = random_system(cls, n, seed=n)
        save_system(sys_, path)
        doc = {"format": FORMAT_TAG,
               "class": {"star": cls.star, "epsilon": cls.epsilon}, "n": n,
               "A1": matrix_to_json_loop(sys_.A1), "A0": matrix_to_json_loop(sys_.A0)}
        assert path.read_text() == json.dumps(doc, indent=2) + "\n"
        assert load_system(path).A1.tobytes() == sys_.A1.tobytes()


@pytest.mark.parametrize("values", [
    [-0.0, 5e-324, 1e308, 2.0, -3.0, 0.1, 1e16, 1e-5, -1.7976931348623157e308],
    [float("nan"), float("inf"), -float("inf"), 1.0],
])
def test_save_pair_writes_the_json_dumps_bytes(tmp_path, values):
    # Separators, signed zero, subnormals, the float range, integral floats
    # and the exponent switch; non-finite values as json spells them.
    path = tmp_path / "pair.json"
    parts = np.resize(values, 2 * 3 * 4)
    X = np.empty((3, 4), dtype=np.complex128)
    X.real, X.imag = parts[0::2].reshape(3, 4), parts[1::2].reshape(3, 4)
    for T in (X, X.real, X[:1, :1], np.zeros((2, 0)), np.zeros((0, 2))):
        save_pair(X, T, path)
        assert path.read_text() == _pair_oracle(X, T)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=number_rows())
def test_parse_matches_entry_loop(data):
    assert _bits(_matrix_from_json(data, "A")) == _bits(matrix_from_json_loop(data, "A"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.one_of(damaged_rows(), JSON_LIKE))
def test_malformed_input_keeps_the_message(data):
    try:
        expected = matrix_from_json_loop(data, "A")
    except FileFormatError as exc:
        with pytest.raises(FileFormatError) as info:
            _matrix_from_json(data, "A")
        assert str(info.value) == str(exc)
    else:
        assert _bits(_matrix_from_json(data, "A")) == _bits(expected)


def test_rows_without_columns_parse_as_the_loop_does():
    assert _matrix_from_json([[], []], "A").shape == (2, 0)


@pytest.mark.parametrize("data", [[[[True, 0.5]]], [[[1, 2.0]], [[0.5, False]]],
                                  [[[True, 1]]], [[[True, False]]]])
def test_booleans_are_rejected(data):
    with pytest.raises(FileFormatError, match=r"must be a \[re, im\] pair"):
        _matrix_from_json(data, "A")


def test_boolean_values_are_rejected(tmp_path):
    path = tmp_path / "values.json"
    path.write_text("[[true, 0.5]]")
    with pytest.raises(FileFormatError, match=r"value must be a \[re, im\] pair"):
        load_values(path)


def test_integer_beyond_float_range_is_a_format_error(tmp_path):
    huge = 10 ** 400
    with pytest.raises(FileFormatError, match=r"A\[0\]\[1\] is out of the float range"):
        _matrix_from_json([[[1.0, 0.0], [huge, 0.5]]], "A")
    path = tmp_path / "values.json"
    path.write_text(f"[[0.5, {huge}]]")
    with pytest.raises(FileFormatError, match="out of the float range"):
        load_values(path)


def _system_doc(tmp_path, **changes):
    """A saved order-2 tp system file with header fields replaced: epsilon
    in its class, n at the top."""
    path = tmp_path / "system.json"
    save_system(random_system(TP, 2, 0), path)
    doc = json.loads(path.read_text())
    for key, value in changes.items():
        (doc["class"] if key == "epsilon" else doc)[key] = value
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("epsilon", [1.5, True, "1", -1.9])
def test_system_epsilon_must_be_the_number_one_or_minus_one(tmp_path, epsilon):
    # int() read 1.5, true and "1" as tp, and -1.9 as ta.
    with pytest.raises(FileFormatError, match="epsilon must be the number 1 or -1"):
        load_system(_system_doc(tmp_path, epsilon=epsilon))


def test_system_epsilon_as_a_float_one_loads(tmp_path):
    epsilon = load_system(_system_doc(tmp_path, epsilon=1.0)).cls.epsilon
    assert epsilon == 1 and type(epsilon) is int


@pytest.mark.parametrize("n", [2.7, "2", True, 3])
def test_system_n_must_be_the_order(tmp_path, n):
    # int() read 2.7 as 2.
    with pytest.raises(FileFormatError, match="is not the order of A1"):
        load_system(_system_doc(tmp_path, n=n))
    assert load_system(_system_doc(tmp_path, n=2.0)).n == 2


def test_values_file_with_a_foreign_format_tag_is_refused(tmp_path):
    path = tmp_path / "values.json"
    path.write_text(json.dumps({"format": "other-v9", "values": [[0.5, 0.0]]}))
    with pytest.raises(FileFormatError, match="unsupported format 'other-v9'"):
        load_values(path)
    path.write_text(json.dumps({"format": FORMAT_TAG, "values": [[0.5, 0.0]]}))
    assert load_values(path) == [0.5]


def test_pair_file_without_T_is_refused(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"format": FORMAT_TAG, "X": [[[1.0, 0.0]]]}))
    with pytest.raises(FileFormatError, match=re.escape(f"pair file {path} misses 'T'")):
        load_pair(path)


def test_pair_file_holding_a_list_is_refused(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text("[[1.0, 0.0]]")
    with pytest.raises(FileFormatError, match=re.escape(f"{path} must hold a JSON object")):
        load_pair(path)


@pytest.mark.parametrize("values", [{"re": 0.5}, "0.5", None])
def test_values_object_without_a_values_list_is_refused(tmp_path, values):
    path = tmp_path / "values.json"
    path.write_text(json.dumps({"format": FORMAT_TAG, "values": values}))
    with pytest.raises(FileFormatError, match=r"must hold a list of \[re, im\] pairs"):
        load_values(path)
