import pytest
from hypothesis import given
from hypothesis import strategies as st

from latred.errors import ParseError, PreconditionViolated
from latred.lattice import Lattice
from latred.rationals import (
    Q,
    is_integer,
    qexact,
    qfloor,
    qparse,
    qround,
    qstr,
)

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
).map(lambda f: Q(f.numerator, f.denominator))


@given(rationals)
def test_qstr_qparse_round_trip(x):
    assert qparse(qstr(x)) == x


@given(rationals)
def test_floor_ceil_bracket(x):
    ceil = -qfloor(-x)
    assert qfloor(x) <= x <= ceil
    assert ceil - qfloor(x) in (0, 1)


@given(rationals)
def test_round_within_half(x):
    r = qround(x)
    assert abs(x - r) <= Q(1, 2)


def test_round_halves_up():
    assert qround(Q(1, 2)) == 1
    assert qround(Q(-1, 2)) == 0
    assert qround(Q(-3, 2)) == -1


def test_is_integer():
    assert is_integer(Q(4, 2))
    assert not is_integer(Q(1, 3))


@pytest.mark.parametrize("bad", ["", "1.5", "3/0", "a/b", "1/-2", "--1", "1/ 2"])
def test_qparse_rejects(bad):
    with pytest.raises(ParseError):
        qparse(bad)


def test_qstr_integer_form():
    assert qstr(Q(6, 3)) == "2"
    assert qstr(Q(-3, 4)) == "-3/4"


def test_qexact_refuses_floats_of_every_width_and_unreadable_values():
    import numpy as np

    for bad in (np.float32(1), np.float16(1), np.longdouble(1), 1j, "abc"):
        with pytest.raises(PreconditionViolated):
            qexact(bad)
        with pytest.raises(PreconditionViolated):
            Lattice(((bad, 0), (0, 1)))
    assert [qexact(x) for x in (3, Q(1, 2), "2/6", np.int64(-4), True)] == [
        3,
        Q(1, 2),
        Q(1, 3),
        -4,
        1,
    ]
