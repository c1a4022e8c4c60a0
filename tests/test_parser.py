import random

import pytest

from dlash.dyer_lashof import DLSum, GradedClass
from dlash.parser import ParseError, parse_sum


def test_basic_monomial():
    m = parse_sum("Q^6 Q^2 x[2]")
    assert m.words == frozenset({(6, 2)})
    assert m.klass == GradedClass("x", 2)


def test_whitespace_insensitive():
    assert parse_sum("Q^6Q^2x[2]") == parse_sum("  Q^6  Q^2  x[ 2 ] ")


def test_char2_cancellation():
    s = parse_sum("Q^3 x[1] + Q^3 x[1]")
    assert s.is_zero()
    assert parse_sum("Q^3 x[1] + Q^2 x[1] + Q^3 x[1]").words == frozenset({(2,)})


def test_sum_of_distinct_terms():
    s = parse_sum("Q^3 x[1] + Q^2 Q^1 x[1]")
    assert s.words == frozenset({(3,), (2, 1)})


def test_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse_sum("Q^x")
    assert exc.value.pos == 2
    assert "integer" in str(exc.value)


def test_error_on_bare_class():
    with pytest.raises(ParseError) as exc:
        parse_sum("x[2]")
    assert exc.value.pos == 0


def test_error_on_trailing_plus():
    with pytest.raises(ParseError):
        parse_sum("Q^3 x[2] +")


def test_error_on_mixed_classes():
    with pytest.raises(ParseError, match="mixed generator classes") as exc:
        parse_sum("Q^3 x[1] + Q^3 y[1]")
    assert exc.value.pos == len("Q^3 x[1] + Q^3 y[1]")
    # a syntax error later in the text is reported first
    with pytest.raises(ParseError, match="syntax error"):
        parse_sum("Q^3 x[1] + Q^3 y[1] Q^2")


def test_error_on_garbage():
    with pytest.raises(ParseError) as exc:
        parse_sum("Q^3 x[2] @")
    assert exc.value.pos == 9


def _random_sum(rng):
    klass = GradedClass(rng.choice("xyz"), rng.randint(0, 5))
    words: set = set()
    for _ in range(rng.randint(1, 4)):
        words ^= {tuple(rng.randint(0, 40) for _ in range(rng.randint(1, 4)))}
    return DLSum(klass, words)


def test_round_trip_on_random_sums():
    rng = random.Random(404)
    seen = 0
    for _ in range(1000):
        s = _random_sum(rng)
        if s.is_zero():
            continue  # "0" is a rendering, not an expression
        seen += 1
        back = parse_sum(str(s))
        assert back.words == s.words
        assert back.klass == s.klass
        assert str(back) == str(s)  # printing is idempotent
        # the words print in sorted order
        terms = [next(iter(parse_sum(t).words)) for t in str(s).split(" + ")]
        assert terms == sorted(s.words)
    assert seen > 900
