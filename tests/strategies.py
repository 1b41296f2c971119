"""Hypothesis strategies shared by the test files (kept apart from
helpers, which the benchmark loads)."""

import numpy as np
from hypothesis import strategies as st

from palinverse.forward import _group_values

_UNIT_ANGLES = st.sampled_from([0.3, 1.1, 2.0, 4.0])


def draw_pairing(data, cls):
    """(values, p, q) for the closed-form block, drawn by Hypothesis: pairs
    and unimodular values in any order, some coincident, with either sign
    for each unimodular value of the H classes.  p and q each count every
    pair and their share of the unimodular values; both are 0 for star = T."""
    pairs = data.draw(st.lists(st.tuples(st.floats(0.2, 0.9), st.floats(0.0, 6.0)),
                               max_size=3), label="pairs")
    values = [v for m, a in pairs for v in
              (m * np.exp(1j * a), 1 / cls.star_scalar(m * np.exp(1j * a)))]
    values *= data.draw(st.integers(1, 2), label="copies")
    if cls.star == "H":
        values += [np.exp(1j * a) for a in
                   data.draw(st.lists(_UNIT_ANGLES, max_size=4), label="units")]
    else:
        # tp: +-1 in equal pairs; ta: any count.
        step = 2 if cls.epsilon == 1 else 1
        plus, minus = (step * data.draw(st.integers(0, 2), label=f"{sign}1")
                       for sign in "+-")
        values += [1.0] * plus + [-1.0] * minus
    values = [values[i] for i in data.draw(st.permutations(range(len(values))),
                                           label="order")]
    n_pairs, n_units = (len(group) for group in _group_values(values, cls))
    p = q = 0
    if cls.star == "H":
        plus = data.draw(st.integers(0, n_units), label="positive units")
        p, q = n_pairs + plus, n_pairs + n_units - plus
    return values, p, q
