"""Property test of the two state readers: any JSON value either reads or is
a CliError, never another exception."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from trivec.cli import CliError, _parse_psi, parse_state  # noqa: E402

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10)

# scalar fields near the edges the readers guard: huge exponents and
# integers, zero denominators, non-finite floats
SCALARS = JSON | st.integers(-10 ** 400, 10 ** 400) | st.sampled_from(
    ["1", "-2/3", "0.5", "1e4300", "1e4301", "1e-999999999", "1e999999999",
     "1/0", "nan", "inf", "1e308", "  7 ", "1_0"])


def entries(labels, unique):
    """Amplitude lists whose entries are mostly well formed."""
    indices = st.lists(st.sampled_from(labels), min_size=3, max_size=3, unique=unique)
    return st.lists(st.fixed_dictionaries(
        {"indices": indices | JSON}, optional={"re": SCALARS, "im": SCALARS}) | JSON,
        max_size=4)


@st.composite
def documents(draw, fields):
    """A document of ``fields``, with one field at times replaced by any JSON."""
    doc = draw(st.fixed_dictionaries(fields))
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JSON)
    return doc


STATE = documents({
    "format": st.just(1),
    "dimension": st.integers(6, 9),
    "degree": st.just(3),
    "scalar_mode": st.sampled_from(["rational", "float"]),
    "amplitudes": entries(range(1, 10), True),
}) | JSON

FAST = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@FAST
@given(STATE)
def test_parse_state_reads_or_raises_cli_error(doc):
    try:
        parse_state(doc)
    except CliError:
        pass


@FAST
@given(st.sampled_from(["rational", "float"]), st.data())
def test_embed_reader_reads_or_raises_cli_error(mode, data):
    count, labels = data.draw(st.sampled_from([(8, (0, 1)), (27, (1, 2, 3))]))
    doc = data.draw(documents({"amplitudes": entries(labels, False)}) | JSON)
    try:
        _parse_psi(doc, count, mode, labels, "labels")
    except CliError:
        pass
