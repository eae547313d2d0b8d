"""Hypothesis strategies for small U - W - V chains whose tables have
structural zeros, shared by the binning, optimizer and CLI tests."""

import numpy as np
from hypothesis import strategies as st

from coordsim.probability import ConditionalPmf, Pmf
from coordsim.region import Decomposition


@st.composite
def chain_tables(draw):
    """(p_u, w_given_u, v_given_w) as nested lists of floats: integer cell
    weights 0..3 over their row total, at least one positive cell per row,
    |U|, |V| in 1..3 and |W| in 1..min(3, |U| |V| + 1)."""
    u_size = draw(st.integers(1, 3), label="u_size")
    v_size = draw(st.integers(1, 3), label="v_size")
    w_size = draw(st.integers(1, min(3, u_size * v_size + 1)), label="w_size")

    def rows(n_rows, n_cols):
        out = []
        for _ in range(n_rows):
            cells = draw(st.lists(st.integers(0, 3), min_size=n_cols, max_size=n_cols)
                         .filter(any))
            out.append([c / sum(cells) for c in cells])
        return out

    return rows(1, u_size)[0], rows(u_size, w_size), rows(w_size, v_size)


@st.composite
def chains_with_zero_cells(draw):
    """A ``Decomposition`` of ``chain_tables``."""
    p_u, w_given_u, v_given_w = draw(chain_tables())
    return Decomposition(p_u=Pmf(np.array(p_u)), w_given_u=ConditionalPmf(np.array(w_given_u)),
                         v_given_w=ConditionalPmf(np.array(v_given_w)))
