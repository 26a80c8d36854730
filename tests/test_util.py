import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigline.errors import ConfigError
from rigline.util import parse_fields

CASTS = {"rows": int, "k": int, "frac": float, "shift": float}
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SPACE = st.text(alphabet=" \t", max_size=2)


@settings(max_examples=200, deadline=None)
@given(
    fields=st.fixed_dictionaries({}, optional={
        "rows": st.integers(), "k": st.integers(), "frac": FINITE, "shift": FINITE,
    }),
    sep=st.sampled_from([",", ";"]),
    data=st.data(),
)
def test_parse_fields_reads_back_what_was_written(fields, sep, data):
    draw = data.draw
    parts = [f"{draw(SPACE)}{key}{draw(SPACE)}={draw(SPACE)}{value!r}{draw(SPACE)}"
             for key, value in fields.items()]
    parts += [draw(SPACE) for _ in range(draw(st.integers(0, 3)))]
    text = sep.join(draw(st.permutations(parts)))
    assert parse_fields(text, sep, CASTS, "--thing") == fields


@settings(max_examples=100, deadline=None)
@given(key=st.text(alphabet="abcdefghij", min_size=1, max_size=6).filter(
    lambda k: k not in CASTS))
def test_parse_fields_rejects_unknown_key(key):
    with pytest.raises(ConfigError, match=r"^--thing: unknown key .*; choices: rows, k, frac, shift$"):
        parse_fields(f"rows=3,{key}=1", ",", CASTS, "--thing")


@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from(sorted(CASTS)),
       value=st.text(alphabet="qwxyz_", min_size=1, max_size=6))
def test_parse_fields_rejects_uncastable_value(key, value):
    with pytest.raises(ConfigError, match=f"^--thing: bad value for {key}: "):
        parse_fields(f"{key}={value}", ",", CASTS, "--thing")


def test_parse_fields_needs_an_equals_sign():
    with pytest.raises(ConfigError, match="^--thing: expected key=value, got 'rows'$"):
        parse_fields("k=1, rows", ",", CASTS, "--thing")


def test_parse_fields_untyped_keeps_any_key_as_text():
    assert parse_fields(" a = 1 ,, b=x=y ", ",", None, "--params") == {"a": "1", "b": "x=y"}
