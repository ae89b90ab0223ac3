"""Round trip of the printed form through the expression parser."""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qcenter import Poly, parse_poly  # noqa: E402
from qcenter.poly import default_names  # noqa: E402

NVARS = 4
NAMES = default_names(NVARS)

coefficients = st.builds(
    Fraction,
    st.integers(-50, 50).filter(bool),
    st.integers(1, 12),
)
exponents = st.tuples(*[st.integers(0, 4)] * NVARS)
polys = st.dictionaries(exponents, coefficients, max_size=8).map(
    lambda terms: Poly(NVARS, terms)
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(polys)
def test_printed_poly_parses_back(f):
    assert parse_poly(f.to_string(NAMES), NAMES) == f
