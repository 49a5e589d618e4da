"""Exact integer polynomial arithmetic."""

import pytest

from gyrograph import IntPolynomial


def test_construction_drops_zeros():
    p = IntPolynomial({3: 0, 2: 5, 0: 0})
    assert p.coefficient(3) == 0
    assert p.coefficient(2) == 5
    assert p.degree == 2


def test_zero_polynomial():
    z = IntPolynomial()
    assert z.degree == -1
    assert str(z) == "0"
    assert not z


def test_addition_and_subtraction():
    p = IntPolynomial({2: 1, 0: 3})
    q = IntPolynomial({2: -1, 1: 4})
    assert p + q == IntPolynomial({1: 4, 0: 3})
    assert p - p == IntPolynomial()
    assert p + 2 == IntPolynomial({2: 1, 0: 5})


def test_multiplication():
    # (x + 1)(x - 1) = x^2 - 1
    assert IntPolynomial({1: 1, 0: 1}) * IntPolynomial({1: 1, 0: -1}) == IntPolynomial(
        {2: 1, 0: -1}
    )
    assert IntPolynomial({1: 1}) * 3 == IntPolynomial({1: 3})


def test_power():
    assert IntPolynomial({1: 1, 0: 1}) ** 3 == IntPolynomial(
        {3: 1, 2: 3, 1: 3, 0: 1}
    )
    assert IntPolynomial({1: 2}) ** 0 == IntPolynomial.constant(1)


@pytest.mark.parametrize(
    "base",
    [IntPolynomial({1: 1, 0: 1}), IntPolynomial({3: 2, 1: -1, 0: 5}), IntPolynomial({0: -1}), IntPolynomial()],
)
def test_power_matches_repeated_multiplication(base):
    expected = IntPolynomial.constant(1)
    for k in range(41):
        assert base**k == expected
        expected = expected * base


@pytest.mark.parametrize("k", [1, 2, 3, 8, 13, 40])
def test_power_squares_only_up_to_its_top_bit(monkeypatch, k):
    # popcount(k) products into the result and bit_length(k) - 1 squarings.
    products = []
    multiply = IntPolynomial.__mul__

    def counting(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(IntPolynomial, "__mul__", counting)
    IntPolynomial({1: 1, 0: 1}) ** k
    assert len(products) == k.bit_count() + k.bit_length() - 1


def test_evaluation_is_exact():
    p = IntPolynomial({10: 1, 0: -1})
    assert p(3) == 3**10 - 1
    assert p(-1) == 0


def test_string_rendering():
    assert str(IntPolynomial({3: 1, 2: -2, 1: -7, 0: 8})) == "x^3 - 2x^2 - 7x + 8"
    assert str(IntPolynomial({2: 18, 1: 10, 0: 8})) == "18x^2 + 10x + 8"
    assert str(IntPolynomial({1: 1})) == "x"
    assert str(IntPolynomial({0: -5})) == "-5"


def test_json_round_trip():
    p = IntPolynomial({8: 1, 7: 8, 6: 19, 5: 12})
    assert IntPolynomial({int(e): c for e, c in p.to_dict().items()}) == p


def test_rejects_negative_exponent():
    with pytest.raises(ValueError):
        IntPolynomial({-1: 2})


def test_equality_with_ints():
    assert IntPolynomial({0: 7}) == 7
    assert IntPolynomial() == 0
    assert IntPolynomial({1: 1}) != 1


def test_hashable():
    assert len({IntPolynomial({1: 1}), IntPolynomial({1: 1})}) == 1
