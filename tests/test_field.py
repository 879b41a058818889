import math

import pytest

from kunz.errors import CapacityError, PreconditionError
from kunz.field import MAX_PRIME, FieldConfig, frobenius_exponent, is_prime

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 101, 2**31 - 1]
COMPOSITES = [0, 1, 4, 6, 9, 15, 21, 25, 91, 561, 2**31 - 3]


def test_is_prime_on_known_values():
    assert all(is_prime(n) for n in PRIMES)
    assert not any(is_prime(n) for n in COMPOSITES)
    assert not is_prime(-7)


@pytest.mark.parametrize("n", [1763, 2147117569], ids=["41*43", "46337^2"])
def test_is_prime_refuses_composites_past_trial_division(n):
    """No factor up to 37; the only prime factor of 46337^2 is its
    integer square root, the last divisor trial division tries."""
    assert not is_prime(n)


def test_is_prime_does_not_call_the_base_2_3_5_7_pseudoprime_prime():
    """3215031751 is the least strong pseudoprime to the bases 2, 3, 5 and
    7, so a Miller-Rabin test with those bases calls it prime. It lies past
    2^31, where is_prime answers nothing and refuses it."""
    assert 151 * 751 * 28351 == 3215031751
    with pytest.raises(PreconditionError, match="below 2"):
        is_prime(3215031751)


def test_is_prime_matches_a_sieve_below_2_to_the_16():
    bound = 2**16
    sieve = [False, False] + [True] * (bound - 2)
    for d in range(2, math.isqrt(bound) + 1):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, bound, d))
    assert [n for n in range(bound) if is_prime(n)] == [
        n for n in range(bound) if sieve[n]]


@pytest.mark.parametrize("n", [MAX_PRIME, MAX_PRIME + 1, 2**61 - 1])
def test_is_prime_refuses_2_to_the_31_and_above(n):
    with pytest.raises(PreconditionError, match="below 2"):
        is_prime(n)


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
    # refused before the power is taken, which would not end
    with pytest.raises(CapacityError, match=r"^p\^e = 3\^2147483647 exceeds"):
        frobenius_exponent(3, 2**31 - 1)
    with pytest.raises(PreconditionError):
        frobenius_exponent(5, -1)
