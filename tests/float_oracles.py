"""Shared inputs and comparisons for the plain-float kernel oracle tests.

The generator's sequential recurrences run over Python floats. Their
oracle tests check them against the element-indexed numpy loops they
replaced, byte for byte, including NaN gaps, signed zeros and
infinities.

One thing is left out of the byte contract. When an operation meets two
NaNs of different sign, IEEE 754 does not say which one it returns. x86
returns the first operand, and the C compiler may swap the operands of
``+`` and ``*``. So a NaN that mixes the positive NaN of a data gap with
the negative NaN that ``inf - inf`` makes can differ in its sign bit
between numpy's scalar code and Python's. Inputs that can mix those two
kinds (:data:`ANY`) are compared up to the NaN sign. All other inputs
are compared byte for byte.
"""

import numpy as np
from hypothesis import strategies as st

NAN, INF = float("nan"), float("inf")

#: Any float64, including NaNs of any sign or payload.
ANY = st.one_of(st.floats(width=64),
                st.sampled_from([NAN, 0.0, -0.0, INF, -INF, 1.0, -1.0]))
#: No NaN input; NaNs can still arise from ``inf - inf``.
NO_NAN = st.one_of(st.floats(allow_nan=False, width=64),
                   st.sampled_from([0.0, -0.0, INF, -INF]))
#: Gaps (canonical NaN) in bounded data that cannot overflow.
GAPPY = st.one_of(st.floats(-1e300, 1e300),
                  st.sampled_from([NAN, 0.0, -0.0]))


@st.composite
def series(draw, element=ANY, max_size=400):
    """A float64 series; NaN-bearing kinds may start with a NaN run."""
    lead = []
    if element is not NO_NAN:
        lead = draw(st.integers(0, 20)) * [NAN]
    body = draw(st.lists(element, max_size=max_size - len(lead)))
    return np.array(lead + body, dtype=np.float64)


#: Series whose NaNs all share one sign: compared byte for byte.
SAME_SIGN_NANS = st.one_of(series(NO_NAN), series(GAPPY))


def same_bytes(got, want) -> bool:
    """Same dtype, shape and bytes."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def same_up_to_nan_sign(got, want) -> bool:
    """Same bytes everywhere except the sign and payload of NaNs."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())
