"""Exact arithmetic in the tower F_p < F_q < F_{q^n}, q = p^e.

A tower is built from (p, e, n): the big field F_{q^n} is realized as
F_p[X]/(m(X)) with m the first irreducible monic polynomial of degree e*n in
a fixed enumeration order, so identical parameters always produce identical
towers.  An element is its integer code: the base-p digit vector of its
power-basis coordinates, packed as sum(d_i * p^i), so a code lies in
[0, p^(en)).  Every library function takes and returns these codes; the
`*_code` methods of FieldTower are the field operations on them, and
`format_code`/`parse_element` convert to and from the wire format.

All subfields live inside the single carrier and are recognized by membership
tests.  For fields with at most `table_bound` elements (below 2^31, so
every entry fits) full exp/log tables are precomputed as numpy int32
arrays.  The bulk scans elsewhere gather from the arrays; the scalar
`*_code` methods read zero-copy memoryviews of them, which return plain
Python ints, so multiplication, negation (-1 = g^((q^n - 1)/2) for odd
p), inversion, powering, Frobenius and discrete logs are a few integer
reads each.  Addition is digitwise (XOR for p = 2) on every
field: a Zech-logarithm table for odd p measured no gain on the sweep
benchmark.  Larger fields multiply through the companion matrix below: a
product is the F_p-matrix of multiplication by a applied to the digits of
b, and a power a^k is column 0 of that matrix's k-th power, which keeps
constructions, composition, ranks and inversion exact; every analysis that
enumerates F_{q^n}^* refuses them up front through
`FieldTower.require_tables`, which raises TooLarge (CLI exit 2).

`make_field` accepts only q^n <= ENUM_BOUND = 2^40, so every number the
library factors is a group order q^t - 1 <= 2^40: the one order test
`FieldTower.has_order` serves the generator of `make_field` and that of
the field certificate.  `_prime_divisors` factors it by plain trial
division; `_is_prime` asks whether m is its own only prime divisor.
Both refuse a number above 2^40 with TooLarge rather than run on.

Linear algebra over the tower is F_p-linear algebra in the power basis,
and its one polynomial primitive is the companion matrix C of the
modulus, the F_p-matrix of y -> X y.  Each tower caches the en matrices
C^k of multiplication by X^k (C^k 1 holds the digits of X^k) and derives
once, when first read, the p-Frobenius Phi, whose column i holds the
digits of X^(p i) = (C^p)^i 1, and the n matrices of x -> x^(q^k), the
powers of Phi^e (`frob_stack`).  Phi + I is the char-2 Artin-Schreier
system, and Berlekamp's rank test on Phi certifies a modulus
(`is_irreducible`).  The F_p-matrices of any stack of products or
q-polynomials are matrix products with the cached ones (`mul_matrices`,
and `qpoly_matrices` with the flattened stack of y -> X^k y^(q^i)), with
no field arithmetic.  The slope census reads one code per F_p^*-class,
the codes whose top nonzero digit is 1; the tower caches their logs
(`class_logs`) and the digit block that evaluates their low levels in one
product (`class_block`).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import OrderedDict

import numpy as np

from .errors import (
    BadElement,
    DegreeTooLarge,
    InternalError,
    NonPrime,
    NotADivisor,
    TooLarge,
)
from ._linalg import CLASS_BLOCK_BOUND, class_block, class_codes, linear_values, rank_mod, solve_mod

DEFAULT_TABLE_BOUND = 1 << 23
# exp/log tables are int32: codes and logs of a tabled field lie below it
TABLE_BOUND_LIMIT = 1 << 31
ENUM_BOUND = 1 << 40
# entries kept per memo of a tower (census, stabilizer and standard pair); a
# sweep round of the benchmark stores at most 23 in one (census)
CACHE_SIZE = 128


@functools.lru_cache(maxsize=1024)
def _prime_divisors(m: int) -> tuple[int, ...]:
    """The distinct primes dividing m, ascending, for 1 <= m <= ENUM_BOUND.

    Trial division by 2, then by the odd d with d^2 <= m, each prime
    divided out as it is found.  Every number the library factors is a
    group order q^t - 1 <= ENUM_BOUND; the costliest, 2^38 - 1, takes
    87 382 steps.  A larger m is refused with TooLarge before any division.
    """
    if m < 1:
        raise ValueError(f"prime divisors of {m}")
    if m > ENUM_BOUND:
        raise TooLarge(f"{m} is above {ENUM_BOUND}, the largest number the library factors")
    found = []
    for d in itertools.chain((2,), itertools.count(3, 2)):
        if d * d > m:
            break
        if m % d == 0:
            found.append(d)
            while m % d == 0:
                m //= d
    if m > 1:
        found.append(m)
    return tuple(found)


def _is_prime(m: int) -> bool:
    """Is m prime?  Exact for m <= ENUM_BOUND; a larger m raises TooLarge."""
    return m > 1 and _prime_divisors(m) == (m,)


def _mat_pow_mod(A, k, p):
    """A^k mod p for a square int64 matrix A, by square and multiply."""
    R = np.eye(len(A), dtype=np.int64)
    while k:
        if k & 1:
            R = R @ A % p
        A = A @ A % p
        k >>= 1
    return R


def _powers_of_one(A, count, p):
    """The rows A^j 1, j < count: for A = C^k the digits of X^(k j)."""
    rows = [np.eye(len(A), dtype=np.int64)[0]]
    for _ in range(count - 1):
        rows.append(A @ rows[-1] % p)
    return np.array(rows)


def _companion(m, p):
    """The companion matrix C of the monic m: the F_p-matrix of y -> X y on
    F_p[X]/(m), so C^k is that of y -> X^k y and C^k 1 holds the digits of X^k."""
    C = np.eye(len(m) - 1, k=-1, dtype=np.int64)
    C[:, -1] = -np.array(m[:-1], dtype=np.int64) % p
    return C


def _p_frobenius(C, p):
    """The F_p-matrix Phi of y -> y^p on F_p[X]/(m), C the companion of m:
    column i holds the digits of X^(p i) = (C^p)^i 1."""
    return _powers_of_one(_mat_pow_mod(C, p, p), len(C), p).T


def is_irreducible(coeffs, p) -> bool:
    """Is the monic m over F_p of degree d >= 1 irreducible?  Berlekamp's
    criterion: iff Phi^d X = X and rank(Phi - I) = d - 1, Phi the p-Frobenius.

    Let m = prod_j g_j^(k_j) over r distinct irreducibles.  By the Chinese
    remainder theorem ker(Phi - I) = {y : y^p = y} is the product of the
    fixed points in each F_p[X]/(g^k).  There a fixed point y is a root of
    Y^p - Y = prod_(c in F_p) (Y - c); two of the y - c differ by a nonzero
    constant, so at most one lies in the maximal ideal (g), the others are
    units, and that one is zero: the fixed points are exactly F_p.  So
    rank(Phi - I) = d - r, which is d - 1 iff m = g^k.  Phi^d X = X says m
    divides X^(p^d) - X, which is squarefree (its derivative is -1), so then
    k = 1.  Conversely R = F_(p^d) for m irreducible, with X^(p^d) = X.
    """
    d = len(coeffs) - 1
    if d < 1:
        return False
    C = _companion(coeffs, p)
    Phi, x = _p_frobenius(C, p), C[:, 0]
    return (np.array_equal(_mat_pow_mod(Phi, d, p) @ x % p, x)
            and rank_mod(Phi - np.eye(d, dtype=np.int64), p) == d - 1)


def first_irreducible(p, degree):
    """First monic irreducible of given degree over F_p in enumeration order.

    Candidates are X^degree + c_{d-1} X^{d-1} + ... + c_0, ordered by the
    integer sum(c_i * p^i); the choice is what makes towers reproducible.
    Above degree 1 a root 0 (c_0 = 0) or 1 (coefficient sum 0 mod p) makes a
    candidate reducible, so it is skipped before Berlekamp's test.
    """
    for v in range(p**degree):
        coeffs = _digits(v, p, degree) + [1]
        if degree > 1 and (coeffs[0] == 0 or sum(coeffs) % p == 0):
            continue
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise InternalError(f"no irreducible polynomial of degree {degree} over F_{p}")


def _digits(code, p, width):
    out = []
    for _ in range(width):
        out.append(code % p)
        code //= p
    return out


def _pack(digits, p):
    code = 0
    for d in reversed(digits):
        code = code * p + int(d) % p
    return code


def _outside_digits(obj, p, what):
    """A digit array read from outside the program, as a list of ints in [0, p).

    A string, a non-integer or boolean digit, or a digit out of range is
    refused with BadElement, not split, truncated or reduced mod p.
    """
    if not isinstance(obj, (list, tuple)):
        raise BadElement(f"{what} must be a list of digits, not {obj!r}")
    if not all(type(d) is int and 0 <= d < p for d in obj):
        raise BadElement(f"{what} {obj!r} needs integer digits in [0, {p})")
    return list(obj)


class _LRU(OrderedDict):
    """A memo that keeps the CACHE_SIZE most recently used entries."""

    def __getitem__(self, key):
        self.move_to_end(key)
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.move_to_end(key)
        if len(self) > CACHE_SIZE:
            self.popitem(last=False)


class FieldTower:
    """The chain F_p < F_q < F_{q^n} with all precomputed machinery; `spec`
    writes its construction values, and towers with equal specs are equal."""

    def __init__(self, p: int, e: int, n: int, modulus: tuple[int, ...], generator: int,
                 seed: int = 0, table_bound=DEFAULT_TABLE_BOUND):
        if table_bound >= TABLE_BOUND_LIMIT:
            raise TooLarge(f"table_bound {table_bound} is not below {TABLE_BOUND_LIMIT}, "
                           f"the limit of int32 tables")
        self.p = p
        self.e = e
        self.n = n
        self.q = p**e
        self.en = e * n
        self.size = p**self.en
        self.mult_order = self.size - 1
        self.modulus = modulus
        self.seed = seed
        self.key = (p, e, n, modulus)
        # x_powers[k] = C^k, the F_p-matrix of y -> X^k y: column i holds the
        # digits of X^(k+i)
        powers = _powers_of_one(_companion(self.modulus, self.p), 2 * self.en - 1, self.p)
        self._x_powers = np.stack([powers[k:k + self.en].T for k in range(self.en)])
        self.digit_weights = [self.p**k for k in range(self.en)]
        self.exp_table = self.log_table = None
        self.exp_view = self.log_view = None
        self.gen_code = generator
        if self.size <= table_bound:
            self._build_tables()
        self._caches: dict[str, _LRU] = {}

    # -- table construction ---------------------------------------------
    def _build_tables(self):
        """exp[k] = g^k by B = isqrt(M) baby steps, then whole blocks.

        The baby steps are the digit vectors `_powers_of_one` steps by the
        F_p-matrix of multiplication by g, packed into codes with one matrix
        product.  Multiplication by g^B is F_p-linear too, so its value table over
        every code is one `linear_values` pass, and block j + 1 of the exp
        table is that table gathered at block j.  The tables are read-only
        int32 arrays, and the scalar methods read memoryviews of them.
        """
        p, M = self.p, self.mult_order
        B = math.isqrt(M)
        times_g = self.mul_matrix(self.gen_code)
        steps = _powers_of_one(times_g, B, p)
        v = times_g @ steps[-1] % p
        exp = np.empty(M, dtype=np.int32)
        exp[:B] = steps @ p ** np.arange(self.en, dtype=np.int64)
        times_gB = linear_values(p, self.mul_matrix(_pack(v, p)))   # v = g^B
        for pos in range(B, M, B):
            k = min(B, M - pos)
            exp[pos:pos + k] = times_gB[exp[pos - B:pos - B + k]]
        del times_gB   # freed before the log table is allocated
        log = np.full(self.size, -1, dtype=np.int32)
        log[exp] = np.arange(M, dtype=np.int32)
        if log[1] != 0:
            raise InternalError("exp/log tables inconsistent")
        exp.flags.writeable = log.flags.writeable = False
        self.exp_table, self.log_table = exp, log
        self.exp_view, self.log_view = memoryview(exp), memoryview(log)
        # frob_exps[k] = q^k mod M: x^(q^k) multiplies the log by it
        self.frob_exps = [pow(self.q, k, M) for k in range(self.n)]

    @property
    def has_tables(self):
        return self.exp_table is not None

    def require_tables(self, what):
        """Refuse an enumeration of F_{q^n}^* on a field without exp/log tables."""
        if not self.has_tables:
            raise TooLarge(f"{what} enumerates F_{{q^n}}^* and needs exp/log tables, "
                           f"which this field of {self.size} elements does not have")

    # -- raw code arithmetic ----------------------------------------------
    def check_codes(self, *codes, what="element code"):
        """Raise BadElement unless every code lies in [0, q^n).

        Public functions that take codes call this where the codes enter:
        the arithmetic below assumes the range, and out of it a negative
        code never leaves add_code's digit loop, -1 reads the last log entry
        (that of the code q^n - 1) and q^n indexes past the tables.
        """
        for c in codes:
            if not 0 <= c < self.size:
                raise BadElement(f"{what} {c} is outside [0, {self.size})")

    def add_code(self, a, b):
        p = self.p
        if p == 2:
            return a ^ b
        out = 0
        mult = 1
        while a or b:
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg_code(self, a):
        p = self.p
        if p == 2 or a == 0:
            return a
        if self.log_view is not None:
            # -1 = g^(M/2) for odd p
            M = self.mult_order
            return self.exp_view[(self.log_view[a] + M // 2) % M]
        return _pack([-d for d in _digits(a, p, self.en)], p)

    def sub_code(self, a, b):
        return self.add_code(a, self.neg_code(b))

    def mul_code(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self.log_view is not None:
            log = self.log_view
            return self.exp_view[(log[a] + log[b]) % self.mult_order]
        return _pack(self.mul_matrix(a) @ self.digit_rows([b]) % self.p, self.p)

    def pow_code(self, a, k):
        M = self.mult_order
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0
        k %= M
        if self.log_view is not None:
            return self.exp_view[self.log_view[a] * k % M]
        # column 0 of the matrix of y -> a^k y holds the digits of a^k
        return _pack(_mat_pow_mod(self.mul_matrix(a), k, self.p)[:, 0], self.p)

    def has_order(self, a, N):
        """Does a, given a^N = 1, have order exactly N?  That is, a^(N/ell) != 1
        for every prime ell dividing N."""
        return all(self.pow_code(a, N // ell) != 1 for ell in _prime_divisors(N))

    def inv_code(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.log_view is not None:
            return self.exp_view[-self.log_view[a] % self.mult_order]
        return self.pow_code(a, self.mult_order - 1)

    def div_code(self, a, b):
        return self.mul_code(a, self.inv_code(b))

    def dlog(self, a):
        """Discrete log base g; -1 convention is never used (0 raises).

        A tabled field reads its log table; any other runs Pohlig-Hellman,
        with no table kept.  For each l^k exactly dividing M = q^n - 1,
        g1 = g^(M/l^k) has order l^k and a1 = a^(M/l^k) = g1^r with
        r = log(a) mod l^k.  Given the digits of r below i, the rest r_i,
        (a1 g1^-r_i)^(l^(k-1-i)) = gamma^(digit i) for gamma = g1^(l^(k-1))
        of order l: a baby-step giant-step solve, with the m = isqrt(l) + 1
        baby steps gamma^j one walk by the F_p-matrix of y -> gamma y,
        shared by the k digits, and giant steps by gamma^-m.  The CRT joins
        the residues.  So the largest prime factors of M set the cost: 276
        baby steps in all at (2,40), 52 at (3,20) and 746 at (1048573,2);
        the most of any field make_field accepts is 127 080, at (7,13), and
        (2,31), where M is prime, takes 46 341.
        """
        if a == 0:
            raise ZeroDivisionError("log of zero")
        if self.log_view is not None:
            return self.log_view[a]
        M, p = self.mult_order, self.p
        weights = np.array(self.digit_weights, dtype=np.int64)
        x, modulus = 0, 1
        for ell in _prime_divisors(M):
            k = 1
            while M % ell ** (k + 1) == 0:
                k += 1
            g1, a1 = (self.pow_code(c, M // ell**k) for c in (self.gen_code, a))
            gamma, m = self.pow_code(g1, ell ** (k - 1)), math.isqrt(ell) + 1
            baby, r = None, 0
            for i in range(k):
                h = self.pow_code(self.mul_code(a1, self.pow_code(g1, -r)), ell ** (k - 1 - i))
                if h == 1:
                    continue
                if baby is None:
                    steps = _powers_of_one(self.mul_matrix(gamma), m, p) @ weights
                    baby = dict(zip(steps.tolist(), range(m)))
                    giant = self.mul_matrix(self.pow_code(gamma, -m))
                v = np.array(self.digit_rows([h]), dtype=np.int64)
                for j in range(m):
                    if (c := int(v @ weights)) in baby:
                        break
                    v = giant @ v % p
                else:
                    raise InternalError("baby-step giant-step failed; generator is not primitive?")
                r += (j * m + baby[c]) % ell * ell**i
            x += modulus * ((r - x) * pow(modulus, -1, ell**k) % ell**k)
            modulus *= ell**k
        return x

    def element_key(self, code):
        """Total order key: g^0 < g^1 < ... < g^(M-1) < 0."""
        if code == 0:
            return self.mult_order
        return self.dlog(code)

    # -- Frobenius -------------------------------------------------------
    @functools.cached_property
    def _phi(self):
        """The F_p-matrix Phi of the p-Frobenius y -> y^p in the power basis."""
        return _p_frobenius(self._x_powers[1], self.p)

    @functools.cached_property
    def frob_stack(self):
        """The n F_p-matrices of x -> x^(q^k) = (Phi^e)^k, k = 0..n-1, stacked."""
        F = np.empty((self.n, self.en, self.en), dtype=np.int64)
        F[0] = np.eye(self.en, dtype=np.int64)
        frob_q = _mat_pow_mod(self._phi, self.e, self.p)
        for k in range(1, self.n):
            F[k] = frob_q @ F[k - 1] % self.p
        return F

    def frob_code(self, a, k=1):
        k %= self.n
        if a == 0 or k == 0:
            return a
        if self.log_view is not None:
            return self.exp_view[self.log_view[a] * self.frob_exps[k] % self.mult_order]
        return _pack(self.frob_stack[k] @ self.digit_rows([a]) % self.p, self.p)

    # -- subfield structure -----------------------------------------------
    def _check_divisor(self, t):
        if t < 1 or self.n % t != 0:
            raise NotADivisor(f"t={t} does not divide n={self.n}")

    def rel_norm_code(self, a, t=1):
        self._check_divisor(t)
        if a == 0:
            return 0
        expo = (self.q**self.n - 1) // (self.q**t - 1)
        return self.pow_code(a, expo)

    def subfield_member_code(self, a, t):
        self._check_divisor(t)
        return self.frob_code(a, t) == a

    def subfield_primitive_code(self, t):
        self._check_divisor(t)
        return self.pow_code(self.gen_code, (self.q**self.n - 1) // (self.q**t - 1))

    def log_q(self, m):
        """The exponent k with q^k = m, in exact integer arithmetic.

        Raises InternalError when m is not a power of q: callers pass sizes
        of F_q-subspaces, so any other value is a broken invariant.
        """
        k, power = 0, 1
        while power < m:
            power *= self.q
            k += 1
        if power != m:
            raise InternalError(f"{m} is not a power of q={self.q}")
        return k

    # -- square roots and quadratics ---------------------------------------
    def sqrt_code(self, a):
        """A square root of a, or None if a is not a square (odd p).

        For p = 2 the root is a^(q^n / 2).  For odd p, Tonelli-Shanks for
        M = q^n - 1 = 2^s Q with Q odd; the tower generator is a non-residue
        by primitivity.  A non-residue a has a^(M/2) = -1, so t = a^Q has
        order 2^s and the first pass returns None; for s = 1 a residue has
        t = 1 and the root a^((M+2)/4).
        """
        if a == 0:
            return 0
        if self.p == 2:
            return self.pow_code(a, self.size // 2)
        M = self.mult_order
        s, Q = 0, M
        while Q % 2 == 0:
            Q //= 2
            s += 1
        m, c, t = s, self.pow_code(self.gen_code, Q), self.pow_code(a, Q)
        r = self.pow_code(a, (Q + 1) // 2)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = self.mul_code(t2, t2)
                i += 1
                if i == m:
                    return None
            b = c
            for _ in range(m - i - 1):
                b = self.mul_code(b, b)
            m, c = i, self.mul_code(b, b)
            t = self.mul_code(t, c)
            r = self.mul_code(r, b)
        return r

    def artin_schreier_solve(self, u):
        """Solve z^2 + z = u in characteristic 2, or None: the F_2-system Phi + I."""
        if self.p != 2:
            raise InternalError("Artin-Schreier solving is a char-2 tool")
        A = (self._phi + np.eye(self.en, dtype=np.int64)) % 2
        sol = solve_mod(A, _digits(u, 2, self.en), 2)
        if sol is None:
            return None
        return _pack(list(sol), 2)

    def solve_quadratic(self, b, c):
        """All roots in the field of x^2 + b x + c = 0, as a sorted code list."""
        if self.p == 2:
            if b == 0:
                return [self.sqrt_code(c)]
            binv2 = self.mul_code(self.inv_code(self.mul_code(b, b)), c)
            z = self.artin_schreier_solve(binv2)
            if z is None:
                return []
            r1 = self.mul_code(b, z)
            r2 = self.add_code(r1, b)
            return sorted({r1, r2})
        disc = self.sub_code(self.mul_code(b, b), self.mul_code(4 % self.p, c))
        s = self.sqrt_code(disc)
        if s is None:
            return []
        inv2 = self.inv_code(2 % self.p)
        r1 = self.mul_code(self.sub_code(s, b), inv2)
        r2 = self.mul_code(self.sub_code(0, self.add_code(b, s)), inv2)
        return sorted({r1, r2})

    @functools.cached_property
    def class_block(self):
        """The digit block of `_linalg.class_values` on this tower.

        It covers the most levels L <= en whose (p^L - 1)/(p - 1) class
        representatives fit in CLASS_BLOCK_BOUND.
        """
        p, levels = self.p, 1
        while levels < self.en and (p ** (levels + 1) - 1) // (p - 1) <= CLASS_BLOCK_BOUND:
            levels += 1
        return class_block(p, levels)

    @functools.cached_property
    def class_logs(self):
        """Discrete logs of the class representatives `_linalg.class_codes(p, en)`,
        one code per F_p^*-class, as a read-only int32 array.

        For p = 2 they are the nonzero codes, and this is a view of the log table.
        """
        self.require_tables("the class representatives' logs")
        if self.p == 2:
            return self.log_table[1:]
        logs = self.log_table[class_codes(self.p, self.en)]
        logs.flags.writeable = False
        return logs

    def digit_rows(self, codes):
        """The en little-endian base-p digits of every code, in one flat list."""
        p = self.p
        return [c // w % p for c in codes for w in self.digit_weights]

    def mul_matrix(self, code):
        """F_p-matrix of y -> code * y in the power basis (see mul_matrices)."""
        return self.mul_matrices([code])[0]

    def mul_matrices(self, codes):
        """The F_p-matrices of y -> c * y for every code c, stacked.

        Multiplication by c = sum_k c_k X^k is sum_k c_k (y -> X^k y), so
        the stack is the digit rows of the codes, built in Python, times the
        en cached matrices of X^k: one matrix product, with no field
        arithmetic and no exp/log table.  Returns an int64 array of shape
        (len(codes), en, en).
        """
        en, p = self.en, self.p
        digits = np.array(self.digit_rows(codes), dtype=np.int64).reshape(-1, en)
        return (digits @ self._x_powers.reshape(en, en * en)).reshape(-1, en, en) % p

    @functools.cached_property
    def qpoly_stack(self):
        """The en^2-entry rows of the F_p-matrices of y -> X^k y^(q^i), at row
        i en + k for i < n and k < en, as one (n en) x en^2 array."""
        mats = self._x_powers[None] @ self.frob_stack[:, None] % self.p   # [i, k]
        return mats.reshape(self.n * self.en, self.en * self.en)

    def qpoly_matrices(self, coeff_rows):
        """The F_p-matrices of the q-polynomials sum_i a_i x^(q^i), stacked.

        Each row of coeff_rows holds the n coefficient codes of one
        polynomial.  With a_i = sum_k a_ik X^k its matrix is
        sum_(i, k) a_ik (y -> X^k y^(q^i)), so the stack is the digit rows
        (a_ik), built in Python, times `qpoly_stack`: one matrix product.
        Returns an int64 array of shape (len(coeff_rows), en, en).
        """
        en = self.en
        digits = np.array([self.digit_rows(row) for row in coeff_rows], dtype=np.int64)
        return (digits.reshape(-1, self.n * en) @ self.qpoly_stack % self.p).reshape(-1, en, en)

    # -- enumeration and sampling --------------------------------------------
    def subfield_elements(self, t):
        """All codes of the subfield F_{q^t}, in g^k order (0 last)."""
        self._check_divisor(t)
        step = (self.q**self.n - 1) // (self.q**t - 1)
        out = [self.pow_code(self.gen_code, step * k) for k in range(self.q**t - 1)]
        out.append(0)
        return out

    def rng(self, salt=0):
        # repr-hash keeps the stream stable across processes (str hashing is not)
        import hashlib

        material = repr((self.seed, salt, self.key)).encode()
        return random.Random(int.from_bytes(hashlib.sha256(material).digest()[:8], "big"))

    # -- serialization -------------------------------------------------------
    def spec(self) -> dict:
        """The JSON field spec of this tower: field_from_json builds it again."""
        return {"p": self.p, "e": self.e, "n": self.n, "modulus": list(self.modulus),
                "generator": _digits(self.gen_code, self.p, self.en), "seed": self.seed}

    def format_code(self, code):
        if code == 0:
            return "0"
        return f"g^{self.dlog(code)}"

    def parse_element(self, obj) -> int:
        """Accepts "g^k"/"0"/"1"/"g" strings, digit arrays (integers in [0, p)),
        ints in [0, p) (F_p scalars).  An int out of range is refused, not
        reduced mod p: a packed code written as an int would otherwise read
        as a different element."""
        if isinstance(obj, bool):
            raise BadElement("booleans are not field elements")
        if isinstance(obj, int):
            if not 0 <= obj < self.p:
                raise BadElement(f"integer element {obj} is outside [0, {self.p})")
            return obj
        if isinstance(obj, (list, tuple)):
            if len(obj) != self.en:
                raise BadElement(f"digit array must have length {self.en}")
            return _pack(_outside_digits(obj, self.p, "digit array"), self.p)
        if isinstance(obj, str):
            s = obj.strip()
            if s == "0":
                return 0
            if s == "1":
                return 1
            if s == "g":
                return self.gen_code
            if s.startswith("g^"):
                try:
                    k = int(s[2:])
                except ValueError as exc:
                    raise BadElement(f"bad exponent in {obj!r}") from exc
                return self.pow_code(self.gen_code, k)
            raise BadElement(f"cannot parse element {obj!r}")
        raise BadElement(f"cannot parse element {obj!r}")

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, n={self.n}, |F|={self.size})"

    # shared memo space for the other modules, keyed by polynomial coefficients
    def cache(self, name):
        """The memo `name` of this tower: an LRU mapping of CACHE_SIZE entries."""
        if name not in self._caches:
            self._caches[name] = _LRU()
        return self._caches[name]


def make_field(p, e, n, seed=0, modulus=None, generator=None,
               table_bound=DEFAULT_TABLE_BOUND) -> FieldTower:
    """Build the tower F_p < F_{p^e} < F_{p^(e*n)} deterministically.

    The modulus is the first irreducible polynomial of degree e*n in the fixed
    enumeration order unless one is supplied; the generator is the first
    element (in code order, starting from the class of X) of multiplicative
    order p^(e*n) - 1.  Both choices are verified, also for supplied values.
    """
    if p < 2:
        raise NonPrime(f"p={p} is not prime")
    if e < 1 or n < 2:
        raise DegreeTooLarge(f"need e >= 1 and n >= 2, got e={e}, n={n}")
    en = e * n
    # p^en >= 2^((bits(p) - 1) * en): a huge degree is refused without forming p^en
    if (p.bit_length() - 1) * en >= ENUM_BOUND.bit_length() or p**en > ENUM_BOUND:
        raise DegreeTooLarge(
            f"field with {p}^{en} elements exceeds the enumeration bound {ENUM_BOUND}")
    if not _is_prime(p):
        raise NonPrime(f"p={p} is not prime")
    if modulus is None:
        modulus = first_irreducible(p, en)
    else:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) == en:
            modulus = modulus + (1,)
        if len(modulus) != en + 1 or modulus[-1] != 1:
            raise BadElement(f"modulus must be monic of degree {en}")
        if not is_irreducible(modulus, p):
            raise BadElement("supplied modulus is reducible")

    probe = FieldTower(p, e, n, modulus, p, seed, table_bound=0)
    M = probe.mult_order
    if generator is None:
        generator = next(c for c in range(p, probe.size) if probe.has_order(c, M))
    else:
        generator = int(generator)
        # 0 would pass the test below, since no power of 0 is 1
        if not 0 < generator < probe.size:
            raise BadElement(f"supplied generator {generator} is outside [1, {probe.size})")
        if not probe.has_order(generator, M):
            raise BadElement("supplied generator is not primitive")
    return FieldTower(p, e, n, modulus, generator, seed, table_bound=table_bound)


def field_from_json(doc) -> FieldTower:
    """The tower of a JSON field spec.  p, e, n, seed and a generator that is
    no digit array must be integers, and a digit array needs exactly e n
    digits: anything else is refused with BadElement, not truncated or parsed."""
    try:
        p, e, n, seed = doc["p"], doc.get("e", 1), doc["n"], doc.get("seed", 0)
        modulus, gen = doc.get("modulus"), doc.get("generator")
    except (KeyError, TypeError) as exc:
        raise BadElement(f"bad field spec: {exc}") from exc
    scalars = {"p": p, "e": e, "n": n, "seed": seed}
    if gen is not None and not isinstance(gen, (list, tuple)):
        scalars["generator"] = gen
    for key, value in scalars.items():
        if type(value) is not int:
            raise BadElement(f"bad field spec: {key} must be an integer, not {value!r}")
    if modulus is not None:
        modulus = _outside_digits(modulus, p, "modulus")
    if isinstance(gen, (list, tuple)):
        if len(gen) != e * n:
            raise BadElement(f"generator digit array must have length {e * n}")
        gen = _pack(_outside_digits(gen, p, "generator"), p)
    return make_field(p, e, n, seed=seed, modulus=modulus, generator=gen)
