import pytest

from kunz.errors import CapacityError, PreconditionError
from kunz.field import FieldConfig, frobenius_exponent, is_prime

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 101, 2**31 - 1]
COMPOSITES = [0, 1, 4, 6, 9, 15, 21, 25, 91, 561, 2**31 - 3]


def test_is_prime_on_known_values():
    assert all(is_prime(n) for n in PRIMES)
    assert not any(is_prime(n) for n in COMPOSITES)
    assert not is_prime(-7)


def test_field_config_rejects_non_primes():
    for n in [4, 1, 0, -5]:
        with pytest.raises(PreconditionError):
            FieldConfig(n)
    with pytest.raises(PreconditionError):
        FieldConfig(2**31)


def test_frobenius_exponent_values_and_caps():
    assert frobenius_exponent(5, 0) == 1
    assert frobenius_exponent(5, 3) == 125
    assert frobenius_exponent(2, 62) == 2**62
    with pytest.raises(CapacityError):
        frobenius_exponent(2, 63)
    with pytest.raises(CapacityError):
        frobenius_exponent(5, 40)
    with pytest.raises(PreconditionError):
        frobenius_exponent(5, -1)
