"""JSON file formats for systems, pairs, and eigenvalue lists.

Complex scalars are always two-element [re, im] arrays.  A file holds the
bytes of json.dumps(doc, indent=2) and a newline: fixed key order, two-space
indent, shortest round-trip floats, so parse -> serialize is byte identical.
"""

import json
from itertools import chain

import numpy as np

from .system import PalindromicSystem, SymmetryClass

FORMAT_TAG = "palinverse-v1"


class FileFormatError(ValueError):
    """Raised for malformed or unsupported input files."""


def _pair_to_complex(item, what):
    if (not isinstance(item, (list, tuple))) or len(item) != 2 or \
            not all(type(x) in (int, float) for x in item):
        raise FileFormatError(f"parse: {what} must be a [re, im] pair, got {item!r}")
    try:
        return complex(float(item[0]), float(item[1]))
    except OverflowError as exc:
        raise FileFormatError(f"parse: {what} is out of the float range") from exc


def _matrix_from_json(data, what):
    """Complex matrix from decoded JSON rows of [re, im] number pairs.

    Well-formed input converts in one np.array call.  Anything else (ragged
    rows, non-pairs, booleans, integers numpy keeps as objects, no columns)
    takes the per-entry loop, which names the first bad entry.
    """
    if not isinstance(data, list) or not data or \
            not all(isinstance(row, list) for row in data):
        raise FileFormatError(f"parse: {what} must be a nested list")
    try:
        parts = np.array(data)
    except ValueError:  # ragged nesting
        parts = np.array(())
    numbers = chain.from_iterable(chain.from_iterable(data))
    if parts.shape[2:] == (2,) and parts.dtype.kind in "if" and \
            bool not in set(map(type, numbers)):
        out = np.empty(parts.shape[:2], dtype=np.complex128)
        out.real, out.imag = parts[..., 0], parts[..., 1]
        return out
    ncols = len(data[0])
    out = np.zeros((len(data), ncols), dtype=np.complex128)
    for i, row in enumerate(data):
        if len(row) != ncols:
            raise FileFormatError(f"parse: ragged rows in {what}")
        for j, item in enumerate(row):
            out[i, j] = _pair_to_complex(item, f"{what}[{i}][{j}]")
    return out


def _rows(M):
    """The [re, im] rows of a complex matrix, as a file holds them."""
    M = np.asarray(M, dtype=np.complex128)
    return np.stack([M.real, M.imag], -1).tolist()


def _dump(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"parse: invalid JSON in {path}: {exc}") from exc


def _check_format(doc, path):
    if not isinstance(doc, dict):
        raise FileFormatError(f"parse: {path} must hold a JSON object")
    tag = doc.get("format", FORMAT_TAG)
    if tag != FORMAT_TAG:
        raise FileFormatError(f"parse: unsupported format {tag!r} in {path}")


def save_system(sys, path):
    doc = {
        "format": FORMAT_TAG,
        "class": {"star": sys.cls.star, "epsilon": sys.cls.epsilon},
        "n": sys.n,
        "A1": _rows(sys.A1),
        "A0": _rows(sys.A0),
    }
    _dump(doc, path)


def load_system(path):
    doc = _load(path)
    _check_format(doc, path)
    try:
        cdoc = doc["class"]
        eps = cdoc["epsilon"]
        # int() would read 1.5, true or "1" as +1 and -1.9 as -1.
        if type(eps) not in (int, float) or eps not in (1, -1):
            raise ValueError(f"epsilon must be the number 1 or -1, got {eps!r}")
        cls = SymmetryClass(str(cdoc["star"]), int(eps))
        A1 = _matrix_from_json(doc["A1"], "A1")
        A0 = _matrix_from_json(doc["A0"], "A0")
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"parse: bad system file {path}: {exc}") from exc
    n = doc.get("n")
    if n is not None and (type(n) not in (int, float) or n != A1.shape[0]):
        raise FileFormatError(f"parse: declared n = {n!r} is not the order of A1")
    return PalindromicSystem(cls, A1, A0)


def save_pair(X, T, path):
    _dump({"format": FORMAT_TAG, "X": _rows(X), "T": _rows(T)}, path)


def load_pair(path):
    doc = _load(path)
    _check_format(doc, path)
    try:
        X = _matrix_from_json(doc["X"], "X")
        T = _matrix_from_json(doc["T"], "T")
    except KeyError as exc:
        raise FileFormatError(f"parse: pair file {path} misses {exc}") from exc
    return X, T


def load_values(path):
    doc = _load(path)
    if isinstance(doc, dict):
        _check_format(doc, path)
        doc = doc.get("values")
    if not isinstance(doc, list):
        raise FileFormatError(f"parse: {path} must hold a list of [re, im] pairs")
    return [_pair_to_complex(item, "value") for item in doc]
