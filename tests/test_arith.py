"""Primality and prime divisors against sympy, the differential oracle.

Every number the library factors is a group order q^t - 1 of a tower with
q^n <= ENUM_BOUND = 2^40, so both are plain trial division in stdlib
integer code, exact on [1, 2^40] and refused above it; sympy is a test
dependency only.
"""

import time

import pytest

from scattered_lab.errors import TooLarge
from scattered_lab.field_tower import ENUM_BOUND, _is_prime, _prime_divisors

sympy = pytest.importorskip("sympy")

CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911)
# strong pseudoprimes to the first 4, 5, 6, 7, 9 and 12 prime bases (the last
# is psi_12); all but the first are above 2^40, where trial division refuses
STRONG_PSEUDOPRIMES = (3215031751, 2152302898747, 3474749660383, 341550071728321,
                       3825123056546413051, 318665857834031151167461)
# those, the largest prime below psi_13 and products of primes above 2^10
PAST_THE_BOUND = tuple(m for m in STRONG_PSEUDOPRIMES if m > ENUM_BOUND) + (
    int(sympy.prevprime(3317044064679887385961981)), 1031**3 * 1033, 65537**2 * 65539)


def _sympy_primes(m):
    return tuple(sorted(int(ell) for ell in sympy.factorint(m)))


def test_group_orders_up_to_the_enumeration_bound():
    # every p^k - 1 that make_field and the field certificate can meet with p < 200
    orders = sorted({p**k - 1 for p in sympy.primerange(2, 200)
                     for k in range(2, 41) if p**k <= ENUM_BOUND})
    assert len(orders) > 300
    for m in orders:
        assert _prime_divisors(m) == _sympy_primes(m), m


def test_every_small_integer():
    assert not _is_prime(0) and not _is_prime(1)
    for m in range(1, 20000):
        assert _is_prime(m) == sympy.isprime(m), m
        assert _prime_divisors(m) == _sympy_primes(m), m


@pytest.mark.parametrize("m", CARMICHAEL + STRONG_PSEUDOPRIMES)
def test_pseudoprimes_are_composite(m):
    # never reported prime: factored below the bound, refused above it
    if m > ENUM_BOUND:
        for fn in (_is_prime, _prime_divisors):
            with pytest.raises(TooLarge):
                fn(m)
        return
    assert not _is_prime(m)
    assert _prime_divisors(m) == _sympy_primes(m)


def test_largest_exact_prime_and_squares():
    # the costliest orders in the domain: 2^38 - 1 (87 382 trial steps) and
    # p^2 - 1 for the four primes p below 2^20 with the largest second factor
    for m in (2**38 - 1, 1047197**2 - 1, 1044893**2 - 1, 1044283**2 - 1, 1043453**2 - 1):
        assert _prime_divisors(m) == _sympy_primes(m), m
    top = int(sympy.prevprime(ENUM_BOUND))
    assert _is_prime(top) and _prime_divisors(top) == (top,)
    # squares of primes above 2^10, and one times the next prime, below 2^40
    for m in (1031**2, 1031**2 * 1033, 65537**2):
        assert _prime_divisors(m) == _sympy_primes(m)


def test_refuses_past_the_enumeration_bound():
    start = time.perf_counter()
    for m in PAST_THE_BOUND:
        assert m > ENUM_BOUND
        for fn in (_is_prime, _prime_divisors):
            with pytest.raises(TooLarge):
                fn(m)
    assert time.perf_counter() - start < 1
