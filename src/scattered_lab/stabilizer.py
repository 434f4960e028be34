"""Stabilizer of U_f = {(x, f(x))} in GL(2, q^n), and its diagonalization.

A 2x2 matrix M = (a b; c d) acts on row vectors by (x, y) -> (x, y) M.  It
stabilizes U_f exactly when b x + d f(x) = f(a x + c f(x)) as q-polynomials,
which is F_p-linear in the coordinates of (a, b, c, d): b and d enter
linearly and a, c only through Frobenius powers.  The full solution set is
therefore the kernel of an (n*en) x (4*en) system over F_p; no search over
GL(2, q^n) is ever performed.  Its blocks are F_p-matrices of
q-polynomials, built in three stacked matrix products from the tower's
cached multiplication and Frobenius matrices (`_pair_system`).  With g in
place of f on the right-hand side the same system gives
S(f, g) = {M : U_f M in U_g}, which decides equivalence
(`standard_form.gl_equivalent`).

The solution set is kept as that system and its kernel basis
(`_certify.FpSpace`): its order is p^dim, membership is one matrix-vector
product, and no element is listed unless a caller asks for the list.  For
scattered f the nonzero solutions form the multiplicative group of a matrix
field of order q^t with t | n.  This is certified from the kernel basis and
one multiplicative generator alpha (`_certify.certify_field`): alpha has
order q^t - 1 and alpha b stays in the kernel for every basis matrix b, so
the powers of alpha fill the nonzero part.  Each order test reads the two
eigenvalues of the candidate (`MatrixField.power_is_one`) instead of
multiplying matrices.  The field is simultaneously diagonalized by a matrix P of
eigen-rows of alpha; conjugation by P is F_p-linear, so only the basis
matrices are conjugated, and the Frobenius twist on the diagonal is read
off alpha alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllScalar,
    HallCase,
    InternalError,
    NoTransversals,
    NonSplitQuadratic,
    NotScattered,
)
from ._certify import FpSpace, certify_field
from .field_tower import FieldTower
from .linearized import LinearizedPoly
from .scatter import is_scattered, line_intersection_dim


class Mat2:
    """2x2 matrix over F_{q^n}, row-major, acting on the right of row vectors."""

    __slots__ = ("tower", "a", "b", "c", "d")

    def __init__(self, tower, a, b, c, d):
        tower.check_codes(a, b, c, d, what="matrix entry")
        self.tower = tower
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, tower):
        return cls(tower, 1, 0, 0, 1)

    @classmethod
    def diag(cls, tower, x, y):
        return cls(tower, x, 0, 0, y)

    @classmethod
    def scalar(cls, tower, x):
        return cls(tower, x, 0, 0, x)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        T = self.tower
        return Mat2(
            T,
            T.add_code(T.mul_code(self.a, other.a), T.mul_code(self.b, other.c)),
            T.add_code(T.mul_code(self.a, other.b), T.mul_code(self.b, other.d)),
            T.add_code(T.mul_code(self.c, other.a), T.mul_code(self.d, other.c)),
            T.add_code(T.mul_code(self.c, other.b), T.mul_code(self.d, other.d)),
        )

    def __add__(self, other):
        T = self.tower
        return Mat2(T, T.add_code(self.a, other.a), T.add_code(self.b, other.b),
                    T.add_code(self.c, other.c), T.add_code(self.d, other.d))

    def __sub__(self, other):
        T = self.tower
        return Mat2(T, T.sub_code(self.a, other.a), T.sub_code(self.b, other.b),
                    T.sub_code(self.c, other.c), T.sub_code(self.d, other.d))

    def scale(self, x):
        T = self.tower
        return Mat2(T, *(T.mul_code(x, v) for v in self.entries()))

    def det(self):
        T = self.tower
        return T.sub_code(T.mul_code(self.a, self.d), T.mul_code(self.b, self.c))

    def is_zero(self):
        return self.entries() == (0, 0, 0, 0)

    def is_identity(self):
        return self.entries() == (1, 0, 0, 1)

    def is_scalar(self):
        return self.b == 0 and self.c == 0 and self.a == self.d

    def is_diagonal(self):
        return self.b == 0 and self.c == 0

    def inverse(self):
        T = self.tower
        dt = self.det()
        if dt == 0:
            raise ZeroDivisionError("singular matrix")
        di = T.inv_code(dt)
        return Mat2(T, T.mul_code(di, self.d), T.mul_code(di, T.neg_code(self.b)),
                    T.mul_code(di, T.neg_code(self.c)), T.mul_code(di, self.a))

    def apply(self, point):
        """Row-vector action: (x, y) -> (x a + y c, x b + y d)."""
        T = self.tower
        x, y = point
        return (T.add_code(T.mul_code(x, self.a), T.mul_code(y, self.c)),
                T.add_code(T.mul_code(x, self.b), T.mul_code(y, self.d)))

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.tower.key == other.tower.key
                and self.entries() == other.entries())

    def __hash__(self):
        return hash((self.tower.key, self.entries()))

    def __repr__(self):
        T = self.tower
        fmt = T.format_code
        return f"[{fmt(self.a)} {fmt(self.b)}; {fmt(self.c)} {fmt(self.d)}]"

    def to_json(self, style="g^k"):
        fmt = self.tower.format_code
        return [[fmt(self.a, style), fmt(self.b, style)],
                [fmt(self.c, style), fmt(self.d, style)]]


def normalize_point(tower, point):
    """Projective normalization to (1, m) or (0, 1)."""
    tower.check_codes(*point)
    x, y = point
    if x != 0:
        return (1, tower.div_code(y, x))
    if y == 0:
        raise InternalError("the zero vector spans no point")
    return (0, 1)


@dataclass(eq=False)
class MatrixField(FpSpace):
    """The solution set S(f, g) of a pair system (`_pair_system`).

    For g = f it is G_f with zero adjoined, certified as a field by
    verify_field; for other scattered g (n >= 3) it is {0} or (G_f with zero)
    times any one of its nonzero elements.
    """

    tower: FieldTower
    system: np.ndarray       # F_p-matrix whose kernel is the solution space
    basis: tuple             # F_p-basis of that kernel, as Mat2
    t: int | None = None     # order = q^t once verified
    generator: Mat2 | None = None
    verified: bool = False
    scattered_input: bool = True
    _diag: DiagonalizationResult | None = None

    @staticmethod
    def key(M):
        return M.entries()

    @staticmethod
    def from_key(tower, codes):
        return Mat2(tower, *codes)

    def power_is_one(self, A, k):
        """Is A^k = I?  Read from the eigenvalues of A, for k | q^n - 1.

        If b = c = 0, A^k = diag(a^k, d^k), which is I exactly when
        a^k = d^k = 1.  Otherwise let lambda, mu be the roots of
        x^2 - (a + d) x + det A:
        * lambda != mu in F_(q^n): A is diagonalizable over F_(q^n), so
          A^k = I exactly when lambda^k = mu^k = 1 (0^k = 0 for a singular A);
        * lambda = mu: A is not scalar, so A = lambda I + N with N != 0 and
          N^2 = 0, and A^k = lambda^k I + k lambda^(k-1) N.  For this to be
          I, lambda != 0 (else A^k is 0 or N) and then p | k; but p does
          not divide k, a divisor of q^n - 1;
        * no root in F_(q^n): lambda lies in F_(q^2n) outside F_(q^n) and
          mu = lambda^(q^n) != lambda, so A is diagonalizable over F_(q^2n)
          and A^k = I needs lambda^k = 1.  As k | q^n - 1, that gives
          lambda^(q^n - 1) = 1, i.e. lambda in F_(q^n): impossible.
        The last two cases rest on k | q^n - 1, which every exponent of the
        field certificate satisfies (|Mf| - 1 = q^t - 1 with t | n); any
        other k raises InternalError.  The cost is one quadratic and two
        powers, with no matrix product.
        """
        T = self.tower
        if k < 1 or T.mult_order % k:
            raise InternalError(f"exponent {k} does not divide q^n - 1 = {T.mult_order}")
        if A.b == 0 and A.c == 0:
            eigenvalues = (A.a, A.d)
        else:
            eigenvalues = T.solve_quadratic(T.neg_code(T.add_code(A.a, A.d)), A.det())
            if len(eigenvalues) < 2:
                return False
        return all(T.pow_code(lam, k) == 1 for lam in eigenvalues)


def _pair_system(f: LinearizedPoly, g: LinearizedPoly):
    """The F_p-matrix whose kernel is S(f, g) = {(a,b,c,d) : b x + d f = g(a x + c f)}.

    S(f, g) is the set of M with U_f M contained in U_g; S(f, f) is G_f with
    zero adjoined.  Slot q^k reads b [k = 0] + d f_k = g_k a^(q^k) +
    sum_i g_i f_(k-i)^(q^i) c^(q^i), so the a- and c-blocks carry g's
    coefficients and the d-block carries f's.  Row block k is therefore
    the F_p-matrices of the q-polynomials -g_k x^(q^k) (a), [k = 0] x (b),
    -sum_i g_i f_(k-i)^(q^i) x^(q^i) (c) and f_k x (d): three stacked
    calls of `FieldTower.qpoly_matrices` and `mul_matrices`, which need no
    exp/log tables.
    """
    T = f.tower
    n, en, p = T.n, T.en, T.p
    c_polys = [[T.mul_code(gi, T.frob_code(f.coeffs[(k - i) % n], i)) if gi else 0
                for i, gi in enumerate(g.coeffs)] for k in range(n)]
    A = np.zeros((n, en, 4, en), dtype=np.int64)
    A[:, :, 0] = -T.qpoly_matrices(np.diag(g.coeffs))
    A[0, :, 1] = np.eye(en, dtype=np.int64)
    A[:, :, 2] = -T.qpoly_matrices(c_polys)
    A[:, :, 3] = T.mul_matrices(f.coeffs)
    return A.reshape(n * en, 4 * en) % p


def compute_stabilizer(f: LinearizedPoly, check_scattered=True) -> MatrixField:
    """All M in F_{q^n}^{2x2} with U_f M contained in U_f, as a MatrixField.

    The result holds the stabilizer system and its kernel basis; no element
    is listed.  For scattered f it is the stabilizer field G_f with the zero
    matrix adjoined, certified by verify_field.  For non-scattered f the raw
    solution set is returned with verified=False (the field structure is not
    guaranteed then); with check_scattered=True such input raises
    NotScattered instead.  Scattered input with n = 2 raises HallCase before
    the system is built: the field structure needs n >= 3.
    """
    T = f.tower
    cache = T.cache("stabilizer")
    if f.coeffs in cache:
        got = cache[f.coeffs]
        if check_scattered and not got.scattered_input:
            raise NotScattered("polynomial is not scattered")
        return got
    scattered = is_scattered(f)
    if check_scattered and not scattered:
        raise NotScattered("polynomial is not scattered")
    if scattered and T.n == 2:
        # at n = 2 rank-1 solutions exist and the solution set is no field
        raise HallCase("the stabilizer of a scattered polynomial needs n >= 3")
    field = MatrixField.from_system(T, _pair_system(f, f), scattered_input=scattered)
    if not field.contains(Mat2.identity(T)):
        raise InternalError("identity missing from the stabilizer solution set")
    if scattered:
        verify_field(field)
    cache[f.coeffs] = field
    return field


def verify_field(Mf: MatrixField):
    """Certify that Mf is a commutative matrix field of order q^t, t | n.

    One certificate on the F_p-basis and one generator replaces any walk of
    the elements (see `_certify.certify_field`): |Mf| = q^t with t | n, the
    basis lies in the kernel of Mf.system, I in Mf, the first element alpha
    of full multiplicative order in span order satisfies alpha^(q^t - 1) = I,
    and alpha b lies in Mf for every basis matrix b.  The orders are read
    from eigenvalues (`MatrixField.power_is_one`), so the certificate costs
    one quadratic per tested power and dim(Mf) matrix products.  The powers of alpha
    are then the whole nonzero part, which proves closure under products,
    invertibility and commutativity.  alpha is the reported generator.
    Raises NotAField naming the failing condition.
    """
    t, generator = certify_field(Mf, Mat2.identity(Mf.tower), Mat2.__mul__)
    Mf.t = t
    Mf.generator = generator
    Mf.verified = True
    return t, generator


def conjugates_to_diagonal(Mf: MatrixField, W: Mat2, s: int, t: int) -> bool:
    """Is W Mf W^-1 = D(s, t) = {diag(alpha, alpha^(q^s)) : alpha in F_(q^t)}?

    Conjugation by W is F_p-linear and D(s, t) is an F_p-space of order q^t,
    so a conjugated basis inside D(s, t) puts W Mf W^-1 inside it, and equal
    orders |Mf| = q^t make the two equal.  Costs dim(Mf) pairs of products.
    """
    T = Mf.tower
    if Mf.order != T.q**t:
        return False
    Winv = W.inverse()
    for b in Mf.basis:
        c = W * b * Winv
        if not c.is_diagonal() or T.frob_code(c.a, t) != c.a or T.frob_code(c.a, s) != c.d:
            return False
    return True


@dataclass
class DiagonalizationResult:
    """Simultaneous diagonalization P Mf P^-1 = {diag(x, x^(p^j)) : x in F_{q^t}}."""

    P: Mat2
    t: int
    p_exponent: int          # j with sigma = p^j on the diagonal
    eigen_points: tuple      # normalized projective points, rows of P
    basis_pairs: tuple       # (x, x^sigma) codes of the conjugated basis matrices

    @property
    def s(self):
        """sigma as a q-power; defined whenever sigma lies in Gal(F_{q^t}|F_q)."""
        e = self.P.tower.e
        if self.p_exponent % e:
            raise InternalError("diagonal automorphism is not a q-power")
        return self.p_exponent // e


def diagonalize(Mf: MatrixField) -> DiagonalizationResult:
    """Find P whose rows are common eigenvectors of every element of Mf.

    The characteristic quadratic of a multiplicative generator always splits
    over F_{q^n} (the field is commutative, so its elements are simultaneously
    diagonalizable there); a non-split quadratic therefore raises
    NonSplitQuadratic as an internal-error signal.  Conjugation by P is
    F_p-linear, so P diagonalizes the field once it diagonalizes the basis
    matrices; and every nonzero element is a power of the generator, so the
    twist y = x^(p^j) on the diagonal is checked on the generator alone.  The
    result costs O(dim) products and is cached on Mf.
    """
    if Mf._diag is not None:
        return Mf._diag
    T = Mf.tower
    if not Mf.verified:
        verify_field(Mf)
    if Mf.t == 1:
        raise AllScalar("only scalar multiples of the identity; nothing to diagonalize")
    A = Mf.generator
    if A.is_scalar():
        # a field of scalar matrices is already diagonal with trivial twist
        Mf._diag = DiagonalizationResult(Mat2.identity(T), Mf.t, 0, ((1, 0), (0, 1)),
                                         tuple((b.a, b.d) for b in Mf.basis))
        return Mf._diag
    tr = T.add_code(A.a, A.d)
    roots = T.solve_quadratic(T.neg_code(tr), A.det())
    if len(roots) < 2:
        raise NonSplitQuadratic(
            "characteristic polynomial of the generator does not split; "
            "this contradicts simultaneous diagonalizability")

    def eigen_row(mu):
        if A.c != 0 or T.sub_code(mu, A.a) != 0:
            row = (A.c, T.sub_code(mu, A.a))
        else:
            row = (T.sub_code(mu, A.d), A.b)
        x, y = row
        if x != 0:
            inv = T.inv_code(x)
            return (1, T.mul_code(y, inv))
        return (0, 1)

    rows = [eigen_row(mu) for mu in roots]
    rows.sort(key=lambda r: ((0 if r[0] != 0 else 1),
                             T.element_key(r[0]), T.element_key(r[1])))
    P = Mat2(T, rows[0][0], rows[0][1], rows[1][0], rows[1][1])
    if P.det() == 0:
        raise InternalError("eigen rows are dependent")
    Pinv = P.inverse()
    basis_pairs = []
    for b in Mf.basis:
        c = P * b * Pinv
        if not c.is_diagonal():
            raise InternalError("conjugation failed to diagonalize a basis matrix")
        basis_pairs.append((c.a, c.d))
    Ad = P * A * Pinv
    x0, y0 = Ad.a, Ad.d
    p_exp = None
    for j in range(T.e * Mf.t):
        if T.pow_code(x0, T.p**j) == y0:
            p_exp = j
            break
    if p_exp is None:
        raise InternalError("diagonal entries are not Frobenius-linked")
    # when the F_q-scalars lie in Mf the twist must be a q-power; Mf is an
    # F_p-space, so the F_p-basis omega^i (i < e) of F_q decides it
    omega = T.subfield_primitive_code(1)
    scalars_present = all(Mf.contains(Mat2.scalar(T, T.pow_code(omega, i)))
                          for i in range(T.e))
    if scalars_present and p_exp % T.e:
        raise InternalError("q-scalars present but twist is not in Gal(F_{q^t}|F_q)")
    eigen_points = (normalize_point(T, (P.a, P.b)), normalize_point(T, (P.c, P.d)))
    Mf._diag = DiagonalizationResult(P, Mf.t, p_exp, eigen_points, tuple(basis_pairs))
    return Mf._diag


def transversal_points(f: LinearizedPoly):
    """The two common eigen-directions of G_f; they never lie on L_f.

    A point lies on L_f exactly when its line meets U_f, which the cached
    slope census answers without building the linear set.
    """
    Mf = compute_stabilizer(f)
    if Mf.t == 1:
        raise NoTransversals("stabilizer is the scalar group; no distinguished points")
    X, Y = diagonalize(Mf).eigen_points
    if line_intersection_dim(f, X) or line_intersection_dim(f, Y):
        raise InternalError("transversal point lies on the linear set")
    return X, Y
