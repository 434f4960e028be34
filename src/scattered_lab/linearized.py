"""Algebra of q-polynomials of q-degree < n over F_{q^n}.

A polynomial sum(a_i x^(q^i)) is held as the length-n tuple of coefficient
codes (see `field_tower`), each checked on construction to lie in [0, q^n);
`evaluate_code` maps a code to a code, and it, `scale` and `transform`
refuse an argument outside that range.  The results of the algebra below
(sums, scalings, transforms, compositions, twists and solves) are
computed from codes in range, so they skip the check.  Composition is reduced mod
x^(q^n) - x, so these objects are exactly the F_q-linear endomorphisms of
F_{q^n}.  Rank and kernel run on the en x en F_p-matrix of the action in
the power basis, which `FieldTower.qpoly_matrices` assembles from the
tower's cached multiplication and Frobenius matrices without evaluating
f.  The same matrix gives the bulk evaluation at every element:
`_linalg.linear_values` tabulates it in code order by p-adic doubling, one
digit level at a time, so its cost does not grow with the number of terms.
A single value, `evaluate_code`, is field arithmetic on every field: one
Frobenius and one product per term.  The way back to a q-polynomial is
one routine, `solve_on_class`: the r with r o u = v whose exponents all lie
in one residue class s mod t, n/t unknowns over F_{q^n}.  The standard form
and its inverse are solved on the class that the G_f certificate names; a
compositional inverse, and with it an image U_f W, is the same solve on the
class 0 mod 1, whose system is the Dickson matrix of u, nonsingular exactly
when u is bijective.
"""

from __future__ import annotations

import math

from .errors import NotBijective, NotStandard, ZeroPolynomial
from ._linalg import linear_values, rank_mod
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
        acc = 0
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

    # -- F_p-matrices ---------------------------------------------------------
    def fp_matrix(self):
        """en x en matrix over F_p of the action on power-basis coordinates."""
        return self.tower.qpoly_matrices([self.coeffs])[0]

    def rank(self):
        """Rank as an F_q-endomorphism (the F_p rank is e times larger)."""
        r = rank_mod(self.fp_matrix(), self.tower.p)
        if r % self.tower.e:
            raise ZeroPolynomial("F_p-rank not divisible by e; map is not F_q-linear")
        return r // self.tower.e

    def invert(self) -> "LinearizedPoly":
        """Compositional inverse; raises NotBijective if the kernel is nontrivial.

        The inverse is the r with r o self = x, solved on the class 0 mod 1
        (every exponent): n equations in n unknowns whose matrix is the
        Dickson matrix of self, nonsingular exactly when self is bijective
        (Wu and Liu, Finite Fields Appl. 2013).
        """
        out = self.solve_on_class(LinearizedPoly.identity(self.tower), 0, 1)
        if out is None:
            raise NotBijective("polynomial has nontrivial kernel")
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
    def standard_form_params(self):
        """(s, t) with all exponents congruent to s mod t = t_h; NotStandard if t_h = 1.

        t_h = gcd(n, i - i0 for i in the support), i0 the least exponent: the
        gcd of n and every difference of exponents.
        """
        supp = self.support
        if not supp:
            raise ZeroPolynomial("the zero polynomial has no exponent profile")
        t = math.gcd(self.tower.n, *(i - supp[0] for i in supp))
        if t == 1:
            raise NotStandard("exponent gcd is 1")
        return supp[0] % t, t
