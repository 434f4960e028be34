"""Algebra of q-polynomials of q-degree < n over F_{q^n}.

A polynomial sum(a_i x^(q^i)) is held as the length-n tuple of coefficient
codes (see `field_tower`), each checked on construction to lie in [0, q^n);
`evaluate_code` maps a code to a code, and it, `scale` and `transform`
refuse an argument outside that range.  The results of the algebra below
(sums, scalings, transforms, compositions, twists and readbacks) are
computed from codes in range, so they skip the check.  Composition is reduced mod
x^(q^n) - x, so these objects are exactly the F_q-linear endomorphisms of
F_{q^n}.  Rank, kernel and inversion run on the en x en F_p-matrix of the
action in the power basis, which `FieldTower.qpoly_matrices` assembles from
the tower's cached multiplication and Frobenius matrices without evaluating
f; one product with the tower's `qpoly_readback` matrix, built from the
trace-dual basis, turns a matrix back into its q-polynomial.  The same
matrix gives the bulk evaluation at every element:
`_linalg.linear_values` tabulates it in code order by p-adic doubling, one
digit level at a time, so its cost does not grow with the number of terms.
A single value, `evaluate_code`, reads the tower's exp/log memoryviews, one
log per term, on a field with tables.  When the answer is known to have all
its exponents in one residue class s mod t, `solve_on_class` finds the r
with r o u = v from n/t unknowns over F_{q^n} instead: the standard form
and its inverse are found that way, with no F_p-inversion.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotBijective, NotStandard, ZeroPolynomial
from ._linalg import inv_mod_matrix, linear_values, rank_mod
from .field_tower import FieldTower


class LinearizedPoly:
    """sum(a_i x^(q^i)) with exactly n coefficients (codes) over F_{q^n}."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs):
        codes = tuple(int(c) for c in coeffs)
        if len(codes) != tower.n:
            raise ZeroPolynomial(
                f"need exactly n={tower.n} coefficients, got {len(codes)}")
        tower.check_codes(*codes, what="coefficient code")
        self.tower = tower
        self.coeffs = codes

    @classmethod
    def _of(cls, tower, codes):
        """A polynomial from n codes the library computed itself, unchecked:
        field operations on codes in range return codes in range."""
        f = cls.__new__(cls)
        f.tower = tower
        f.coeffs = tuple(codes)
        return f

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, tower):
        return cls(tower, [0] * tower.n)

    @classmethod
    def identity(cls, tower):
        return cls.monomial(tower, 0)

    @classmethod
    def monomial(cls, tower, i, coeff=1):
        c = [0] * tower.n
        c[i % tower.n] = coeff
        return cls(tower, c)

    @classmethod
    def from_json(cls, tower, doc):
        return cls(tower, [tower.parse_element(c) for c in doc["coeffs"]])

    def to_json(self):
        return {"coeffs": [self.tower.format_code(c) for c in self.coeffs]}

    # -- basic structure -----------------------------------------------------
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    @property
    def support(self):
        return tuple(i for i, c in enumerate(self.coeffs) if c)

    def __eq__(self, other):
        return (isinstance(other, LinearizedPoly)
                and self.tower.key == other.tower.key
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.tower.key, self.coeffs))

    def __repr__(self):
        T = self.tower
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mono = "x" if i == 0 else (f"x^q" if i == 1 else f"x^q^{i}")
            cs = T.format_code(c)
            terms.append(mono if c == 1 else f"{cs}*{mono}")
        return " + ".join(terms)

    # -- linear combinations ---------------------------------------------------
    def __add__(self, other):
        T = self.tower
        return LinearizedPoly._of(T, [T.add_code(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        T = self.tower
        return LinearizedPoly._of(T, [T.sub_code(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        T = self.tower
        return LinearizedPoly._of(T, [T.neg_code(a) for a in self.coeffs])

    def scale(self, a):
        """a * f, coefficientwise."""
        T = self.tower
        T.check_codes(a)
        return LinearizedPoly._of(T, [T.mul_code(a, c) for c in self.coeffs])

    def transform(self, a, b):
        """The q-polynomial a * f(b x); coefficient i becomes a*f_i*b^(q^i)."""
        T = self.tower
        T.check_codes(a, b)
        out = []
        for i, c in enumerate(self.coeffs):
            out.append(T.mul_code(a, T.mul_code(c, T.frob_code(b, i))) if c else 0)
        return LinearizedPoly._of(T, out)

    def twist(self, k):
        """Coefficientwise p^k power (the sigma-twist used for semilinear maps)."""
        T = self.tower
        pk = T.p ** (k % T.en)
        return LinearizedPoly._of(T, [T.pow_code(c, pk) for c in self.coeffs])

    # -- evaluation ---------------------------------------------------------
    def evaluate_code(self, x):
        T = self.tower
        T.check_codes(x)
        if x == 0:
            return 0
        acc = 0
        if T.has_tables:
            # the term a_i x^(q^i) is g^(log a_i + q^i log x)
            exp, log, M = T.exp_view, T.log_view, T.mult_order
            lx = log[x]
            for i in self.support:
                acc = T.add_code(acc, exp[(log[self.coeffs[i]] + lx * T.frob_exps[i]) % M])
            return acc
        for i in self.support:
            acc = T.add_code(acc, T.mul_code(self.coeffs[i], T.frob_code(x, i)))
        return acc

    def eval_all_logs(self):
        """Codes of f(g^k) for k = 0..M-1 as a numpy array (table fields only).

        f is F_p-linear, so its value table in code order is the p-adic
        doubling of its F_p-matrix (`linear_values`), whatever its support;
        the exp table gathers it into g^k order.
        """
        T = self.tower
        T.require_tables("bulk evaluation")
        return linear_values(T.p, self.fp_matrix())[T.exp_table]

    # -- composition -----------------------------------------------------------
    def compose(self, other: "LinearizedPoly") -> "LinearizedPoly":
        """self(other(x)) reduced mod x^(q^n) - x."""
        T = self.tower
        n = T.n
        out = [0] * n
        for i in self.support:
            fi = self.coeffs[i]
            for j in other.support:
                k = (i + j) % n
                out[k] = T.add_code(out[k], T.mul_code(fi, T.frob_code(other.coeffs[j], i)))
        return LinearizedPoly._of(T, out)

    def __matmul__(self, other):
        return self.compose(other)

    # -- F_p-matrices ---------------------------------------------------------
    def fp_matrix(self):
        """en x en matrix over F_p of the action on power-basis coordinates."""
        return self.tower.qpoly_matrices([self.coeffs])[0]

    @classmethod
    def from_fp_matrix(cls, tower, A):
        """The q-polynomial acting as the F_p-matrix A on power-basis coordinates.

        With beta the trace-dual basis, y = sum_k Tr(y beta_k) X^k, so the map
        is sum_k A(X^k) Tr(beta_k y) and its x^(p^m) coefficient is
        sum_k A(X^k) beta_k^(p^m).  A must be F_q-linear, as every fp_matrix
        and its inverse are: then only the multiples m = e i survive, and
        a_i = sum_k A(X^k) beta_k^(q^i).  A(X^k) is column k of A, so the
        digits of every a_i are one product with the tower's cached
        `qpoly_readback` matrix, with no field arithmetic.
        """
        T = tower
        vec = np.asarray(A, dtype=np.int64).T.reshape(-1)
        digits = (T.qpoly_readback @ vec % T.p).reshape(T.n, T.en)
        return cls._of(T, (digits @ T.p ** np.arange(T.en, dtype=np.int64)).tolist())

    def rank(self):
        """Rank as an F_q-endomorphism (the F_p rank is e times larger)."""
        r = rank_mod(self.fp_matrix(), self.tower.p)
        if r % self.tower.e:
            raise ZeroPolynomial("F_p-rank not divisible by e; map is not F_q-linear")
        return r // self.tower.e

    def kernel_dim(self):
        return self.tower.n - self.rank()

    def invert(self) -> "LinearizedPoly":
        """Compositional inverse; raises NotBijective if the kernel is nontrivial."""
        cache = self.tower.cache("invert")
        if self.coeffs in cache:
            return cache[self.coeffs]
        inv = inv_mod_matrix(self.fp_matrix(), self.tower.p)
        if inv is None:
            raise NotBijective("polynomial has nontrivial kernel")
        out = LinearizedPoly.from_fp_matrix(self.tower, inv)
        cache[self.coeffs] = out
        cache[out.coeffs] = self
        return out

    def solve_on_class(self, v: "LinearizedPoly", s, t):
        """The r with r o self = v whose exponents are all congruent to s mod t,
        or None when there is none or it is not unique.  t must divide n.

        With k_j = s + j t, the x^(q^m) coefficient of r o self is
        sum_j r_j self_(m - k_j)^(q^(k_j)): n equations, linear over F_(q^n),
        in the n/t unknowns r_j, solved by one Gauss-Jordan elimination on
        element codes.  For bijective self the solution, if any, is unique:
        r o self = 0 forces r = 0.
        """
        T = self.tower
        n = T.n
        ks = [(s + j * t) % n for j in range(n // t)]
        width = len(ks)
        rows = [[T.frob_code(self.coeffs[(m - k) % n], k) for k in ks] + [v.coeffs[m]]
                for m in range(n)]
        for col in range(width):
            piv = next((i for i in range(col, n) if rows[i][col]), None)
            if piv is None:
                return None             # a free unknown
            rows[col], rows[piv] = rows[piv], rows[col]
            # column col is not read again: reduce the columns right of it
            inv = T.inv_code(rows[col][col])
            pivot = [T.mul_code(inv, x) for x in rows[col][col + 1:]]
            rows[col][col + 1:] = pivot
            for i, row in enumerate(rows):
                if row[col] and i != col:
                    c = T.neg_code(row[col])
                    row[col + 1:] = [T.add_code(x, T.mul_code(c, y))
                                     for x, y in zip(row[col + 1:], pivot)]
        if any(row[width] for row in rows[width:]):
            return None                 # inconsistent
        out = [0] * n
        for j, k in enumerate(ks):
            out[k] = rows[j][width]
        return LinearizedPoly._of(T, out)

    # -- exponent combinatorics ---------------------------------------------------
    def delta_profile(self) -> "DeltaProfile":
        if self.is_zero():
            raise ZeroPolynomial("the zero polynomial has no exponent profile")
        n = self.tower.n
        supp = self.support
        deltas = {n}
        for i in supp:
            for j in supp:
                if i != j:
                    deltas.add((i - j) % n)
        return DeltaProfile(frozenset(deltas), math.gcd(*deltas))

    def standard_form_params(self):
        """(s, t) with all exponents congruent to s mod t = t_h; NotStandard if t_h = 1."""
        prof = self.delta_profile()
        if prof.t_h == 1:
            raise NotStandard("exponent gcd is 1")
        # t_h divides every difference of exponents, so they agree mod t_h
        return self.support[0] % prof.t_h, prof.t_h


class DeltaProfile:
    """Set of exponent differences of a q-polynomial, and their gcd."""

    __slots__ = ("delta_set", "t_h")

    def __init__(self, delta_set, t_h):
        self.delta_set = delta_set
        self.t_h = t_h

    def __repr__(self):
        return f"DeltaProfile({sorted(self.delta_set)}, t_h={self.t_h})"

