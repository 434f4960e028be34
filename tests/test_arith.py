"""Primality and prime divisors against sympy, the differential oracle.

The library decides both with stdlib integer code (trial division, strong
probable-prime tests to the bases 2..41, Brent's rho); sympy is a test
dependency only.
"""

import pytest

from scattered_lab.field_tower import ENUM_BOUND, _is_prime, _prime_divisors

sympy = pytest.importorskip("sympy")

PSI_12 = 318665857834031151167461
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911)
# strong pseudoprimes to the first 4, 5, 6, 7, 9 and 12 prime bases
STRONG_PSEUDOPRIMES = (3215031751, 2152302898747, 3474749660383, 341550071728321,
                       3825123056546413051, PSI_12)


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
    assert not _is_prime(m)
    assert _prime_divisors(m) == _sympy_primes(m)


def test_largest_exact_prime_and_squares():
    top = int(sympy.prevprime(3317044064679887385961981))   # psi_13
    assert _is_prime(top) and _prime_divisors(top) == (top,)
    # a square and a cube of primes above the trial-division bound
    for m in (1031**2, 1031**3 * 1033, 65537**2 * 65539):
        assert _prime_divisors(m) == _sympy_primes(m)
