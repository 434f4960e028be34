"""Finite-field arithmetic written apart from the program under test.

The answer checks of the benchmark must not trust the code they check, so
this module re-implements F_{p^n} = F_p[X]/(m(X)) from the definitions:
schoolbook polynomial products, reduction by the modulus, Rabin's
irreducibility test and a primitive element found by factoring p^n - 1.
Elements use the program's wire convention only because the program's
answers arrive in it: a packed base-p integer sum(d_i p^i) for the
polynomial sum(d_i X^i).
"""

from __future__ import annotations

import numpy as np


def prime_factors(m: int) -> list[int]:
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmulmod(a, b, m, p):
    """a*b mod m over F_p; polynomials as little-endian lists, m monic."""
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _pmod(prod, m, p)


def _pmod(a, m, p):
    a = [x % p for x in a]
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _trim(a[:dm])


def _pgcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        b = [x * inv % p for x in b]
        a, b = b, _pmod(a, b, p)
    return a


def _xpow(k, m, p):
    """X^k mod m by square and multiply."""
    result, base = [1], _pmod([0, 1], m, p)
    while k:
        if k & 1:
            result = _pmulmod(result, base, m, p)
        base = _pmulmod(base, base, m, p)
        k >>= 1
    return result


def is_irreducible(m, p) -> bool:
    """Rabin: m of degree d is irreducible iff X^(p^d) = X mod m and
    gcd(X^(p^(d/r)) - X, m) = 1 for every prime r dividing d."""
    d = len(m) - 1
    if _trim(_pmod(_xpow(p**d, m, p), m, p)) != _trim(_pmod([0, 1], m, p)):
        return False
    for r in prime_factors(d):
        h = _xpow(p ** (d // r), m, p) + [0, 0]
        h[1] = (h[1] - 1) % p
        g = _pgcd(m, _trim(h), p)
        if len(g) != 1:
            return False
    return True


def first_irreducible(p: int, d: int) -> tuple:
    """The first monic irreducible of degree d, ordering candidates by the
    integer sum(c_i p^i) of their low coefficients."""
    for low in range(p**d):
        m = [(low // p**i) % p for i in range(d)] + [1]
        if m[0] and is_irreducible(m, p):
            return tuple(m)
    raise ValueError(f"no irreducible polynomial of degree {d} over F_{p}")


class GF:
    """F_{p^n} for a given monic irreducible modulus (little-endian)."""

    def __init__(self, p: int, n: int, modulus):
        self.p, self.n = p, n
        self.modulus = [int(c) for c in modulus]
        if len(self.modulus) != n + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree n")
        self.size = p**n
        self.M = self.size - 1
        self._exp = None
        self._log = None

    # -- element conversion --------------------------------------------
    def digits(self, a: int) -> list:
        return [(a // self.p**i) % self.p for i in range(self.n)]

    def pack(self, d) -> int:
        return sum(int(x) % self.p * self.p**i for i, x in enumerate(d))

    # -- arithmetic -----------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return self.pack([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        return self.pack([-x for x in self.digits(a)])

    def mul(self, a: int, b: int) -> int:
        prod = _pmulmod(_trim(self.digits(a)), _trim(self.digits(b)), self.modulus, self.p)
        return self.pack(prod + [0] * (self.n - len(prod)))

    def pow(self, a: int, k: int) -> int:
        result, base = 1, a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.size - 2)

    def frob(self, a: int, i: int) -> int:
        """a^(p^i); for prime fields q = p, so this is the q^i-Frobenius."""
        return self.pow(a, self.p ** (i % self.n))

    def evaluate(self, coeffs, x: int) -> int:
        """f(x) = sum(a_i x^(p^i)) over the prime field F_p = F_q."""
        acc = 0
        for i, a in enumerate(coeffs):
            if a:
                acc = self.add(acc, self.mul(a, self.frob(x, i)))
        return acc

    def basis(self) -> list:
        """The F_p-basis 1, X, ..., X^(n-1) as codes."""
        return [self.p**i for i in range(self.n)]

    # -- tables for whole-field scans (small fields only) -----------------
    def primitive(self) -> int:
        factors = prime_factors(self.M)
        for g in range(2, self.size):
            if all(self.pow(g, self.M // r) != 1 for r in factors):
                return g
        raise ValueError("no primitive element")

    def tables(self):
        if self._exp is None:
            g = self.primitive()
            exp = np.empty(self.M, dtype=np.int64)
            x = 1
            for k in range(self.M):
                exp[k] = x
                x = self.mul(x, g)
            log = np.full(self.size, -1, dtype=np.int64)
            log[exp] = np.arange(self.M, dtype=np.int64)
            if x != 1 or (log[1:] < 0).any():
                raise ValueError("generator is not primitive")
            self._exp, self._log = exp, log
        return self._exp, self._log

    def evaluate_all(self, coeffs) -> np.ndarray:
        """f(g^k) for k = 0..M-1, summed digit by digit."""
        exp, log = self.tables()
        k = np.arange(self.M, dtype=np.int64)
        pw = self.p ** np.arange(self.n, dtype=np.int64)
        acc = np.zeros((self.M, self.n), dtype=np.int64)
        for i, a in enumerate(coeffs):
            if a:
                term = exp[(log[a] + k * pow(self.p, i, self.M)) % self.M]
                acc += (term[:, None] // pw) % self.p
        return (acc % self.p) @ pw

    def slope_fibers(self, coeffs) -> np.ndarray:
        """Fiber sizes of x -> f(x)/x over the nonzero x; index 0 of the result
        counts the kernel, index 1 + s the slope g^s."""
        exp, log = self.tables()
        vals = self.evaluate_all(coeffs)
        k = np.arange(self.M, dtype=np.int64)
        nz = vals != 0
        slopes = (log[vals[nz]] - k[nz]) % self.M
        out = np.zeros(self.M + 1, dtype=np.int64)
        out[0] = int((~nz).sum())
        out[1:] = np.bincount(slopes, minlength=self.M)
        return out

    def is_scattered(self, coeffs) -> bool:
        """No fiber of f(x)/x, the kernel included, exceeds q - 1 elements."""
        return int(self.slope_fibers(coeffs).max()) == self.p - 1

    def is_scattered_pairwise(self, coeffs) -> bool:
        """The definition: y f(z) = z f(y) with y, z nonzero forces z/y in F_q."""
        exp, log = self.tables()
        vals = self.evaluate_all(coeffs)
        k = np.arange(self.M, dtype=np.int64)
        # log(y f(z)) at (log y, log z), or -1 where f(z) = 0
        lhs = np.where(vals[None, :] == 0, -1, (k[:, None] + log[vals][None, :]) % self.M)
        eq = lhs == lhs.T
        dependent = ((k[None, :] - k[:, None]) % (self.M // (self.p - 1))) == 0
        return bool(not (eq & ~dependent).any())


def point_maps_into(F: GF, f, W, g) -> bool:
    """U_f W inside U_g, tested on the F_p-basis: for x in the basis,
    (x, f(x)) W = (u, v) must satisfy v = g(u).  W = (a, b, c, d) acts on
    row vectors: (x, y) -> (x a + y c, x b + y d).  By linearity the basis
    settles the whole subspace."""
    a, b, c, d = W
    for x in F.basis():
        y = F.evaluate(f, x)
        u = F.add(F.mul(x, a), F.mul(y, c))
        v = F.add(F.mul(x, b), F.mul(y, d))
        if F.evaluate(g, u) != v:
            return False
    return True


def mat_inverse(F: GF, W):
    a, b, c, d = W
    det = F.add(F.mul(a, d), F.neg(F.mul(b, c)))
    di = F.inv(det)
    return (F.mul(di, d), F.mul(di, F.neg(b)), F.mul(di, F.neg(c)), F.mul(di, a))


def mat_det(F: GF, W) -> int:
    a, b, c, d = W
    return F.add(F.mul(a, d), F.neg(F.mul(b, c)))
