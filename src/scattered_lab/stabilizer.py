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
(`standard_form.gl_equivalent`).  Both are solved by
`MatrixField.of_pair`: b and a are read off two row blocks, and only the
(n-2)*en x 2*en Schur complement on (c, d) is eliminated.

The solution set is kept as that system and its kernel basis, as the digit
rows the elimination gives (`MatrixField`): its order is p^dim, and the
library lists no element.  For scattered f the nonzero solutions form a
matrix field of order q^t with t | n, simultaneously diagonalizable:
P G_f P^-1 = D(s, t) = {diag(x, x^(q^s)) : x in F_(q^t)}.  That diagonal
form is the certificate (`verify_field`): P is read from the eigen-rows of
one basis matrix, and since conjugation by P is F_p-linear, only the basis
matrices are conjugated.  The generator is found from the diagonal entries
by scalar powers alone, with no matrix product.
"""

from __future__ import annotations

import functools

import numpy as np

from ._linalg import kernel_mod
from .errors import AllScalar, HallCase, NotAField
from .field_tower import FieldTower
from .linearized import LinearizedPoly
from .scatter import is_scattered


class Mat2:
    """2x2 matrix over F_{q^n}, row-major, acting on the right of row vectors."""

    __slots__ = ("tower", "a", "b", "c", "d")

    def __init__(self, tower, a, b, c, d):
        tower.check_codes(a, b, c, d, what="matrix entry")
        self.tower = tower
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def _of(cls, tower, a, b, c, d):
        """The matrix of four codes the tower's arithmetic or a kernel row
        produced, without the range check of __init__."""
        M = cls.__new__(cls)
        M.tower = tower
        M.a, M.b, M.c, M.d = a, b, c, d
        return M

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
        return Mat2._of(
            T,
            T.add_code(T.mul_code(self.a, other.a), T.mul_code(self.b, other.c)),
            T.add_code(T.mul_code(self.a, other.b), T.mul_code(self.b, other.d)),
            T.add_code(T.mul_code(self.c, other.a), T.mul_code(self.d, other.c)),
            T.add_code(T.mul_code(self.c, other.b), T.mul_code(self.d, other.d)),
        )

    def det(self):
        T = self.tower
        return T.sub_code(T.mul_code(self.a, self.d), T.mul_code(self.b, self.c))

    def is_scalar(self):
        return self.b == 0 and self.c == 0 and self.a == self.d

    def inverse(self):
        T = self.tower
        dt = self.det()
        if dt == 0:
            raise ZeroDivisionError("singular matrix")
        di = T.inv_code(dt)
        return Mat2._of(T, T.mul_code(di, self.d), T.mul_code(di, T.neg_code(self.b)),
                        T.mul_code(di, T.neg_code(self.c)), T.mul_code(di, self.a))

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.tower.key == other.tower.key
                and self.entries() == other.entries())

    def __hash__(self):
        return hash((self.tower.key, self.entries()))

    def __repr__(self):
        T = self.tower
        fmt = T.format_code
        return f"[{fmt(self.a)} {fmt(self.b)}; {fmt(self.c)} {fmt(self.d)}]"

    def to_json(self):
        fmt = self.tower.format_code
        return [[fmt(self.a), fmt(self.b)], [fmt(self.c), fmt(self.d)]]


class MatrixField:
    """The solution set S(f, g) of a pair system (`_pair_system`), kept as
    (system, coords): S(f, g) = span(coords) = ker(system mod p).

    For scattered f = g (n >= 3) it is G_f with zero adjoined, certified as
    a field by verify_field; for other scattered g it is {0} or (G_f with
    zero) times any one of its nonzero elements.  The F_p-coordinates of a matrix
    are the little-endian base-p digits of its entries (a, b, c, d); coords
    holds the kernel basis as those digit rows, and `basis` reads them as
    Mat2.  Elements are numbered in span order: element r is the combination
    of the basis rows whose coefficients are the base-p digits of r, most
    significant first, so element 0 is zero and the last basis row carries
    the lowest digit.  The library never lists the elements; only the test
    oracles do.

    verify_field certifies the space by its diagonal form and keeps it here:
    P Mf P^-1 = D(s, t) = {diag(x, x^(q^s)) : x in F_(q^t)}, 0 <= s < t.
    gcd(s, t) = 1 for scattered f: with d = gcd(s, t), every beta in
    F_(q^d) lies in F_(q^t) and has beta^(q^s) = beta, so diag(beta, beta)
    lies in D(s, t) and beta I in Mf.  Then U_f is F_(q^d)-linear, and the
    fiber of f(x)/x at any x != 0 holds the q^d - 1 elements beta x, so
    d = 1 by scatteredness.
    """

    __slots__ = ("tower", "system", "coords", "t", "s", "P", "generator", "_basis")

    def __init__(self, tower: FieldTower, system: np.ndarray, coords: np.ndarray):
        self.tower = tower
        self.system = system         # F_p-matrix whose kernel is the solution space
        self.coords = coords         # F_p-basis of that kernel, one digit row each
        self.t = self.s = self.P = None   # P Mf P^-1 = D(s, t), |Mf| = q^t, once verified
        self.generator = None        # a Mat2 of order q^t - 1 once verified
        self._basis = None

    @classmethod
    def from_system(cls, tower, system):
        """The space ker(system mod p), with the kernel basis of kernel_mod."""
        return cls(tower, system, kernel_mod(system, tower.p))

    @property
    def basis(self):
        """The rows of coords as Mat2, read on first use."""
        if self._basis is None:
            T = self.tower
            codes = self.coords.reshape(-1, 4, T.en) @ T.digit_weights
            self._basis = tuple(Mat2._of(T, *row) for row in codes.tolist())
        return self._basis

    @property
    def verified(self):
        """Has verify_field certified this space as a field?  Its diagonal
        form is the certificate; it says nothing of whether f is scattered."""
        return self.P is not None

    @property
    def eigen_points(self):
        """The rows of P, already normalized points: `_eigenbasis` normalizes
        its rows, and the identity's are (1, 0) and (0, 1)."""
        return ((self.P.a, self.P.b), (self.P.c, self.P.d))

    @property
    def order(self):
        return self.tower.p ** len(self.coords)

    @property
    def group_order(self):
        return self.order - 1

    def outside(self, rows):
        """For each digit row, does it lie outside ker(system mod p)?  One
        product with the system, as a boolean array."""
        return (self.system @ np.asarray(rows).T % self.tower.p).any(axis=0)

    @classmethod
    def of_pair(cls, f: LinearizedPoly, g: LinearizedPoly):
        """S(f, g) on the pair system `_pair_system(f, g)`, with the kernel basis
        that kernel_mod gives on it, found through its (c, d) Schur complement.

        Row block 0 is the only one that holds b, as the identity, so it reads
        b = -(A_0 a + C_0 c + D_0 d).  Take the least k1 >= 1 with g_k1 != 0:
        the a-block A_k1 of row block k1 is the F_p-matrix of -g_k1 x^(q^k1),
        so -A_k1^-1 is that of x -> (g_k1^-1 x)^(q^(n-k1)), and row block k1
        reads a = L (c, d) with L = -A_k1^-1 (C_k1 D_k1).  The other row
        blocks then leave the Schur complement (C_k D_k) + A_k L, k not in
        {0, k1}, of (n-2) en x 2 en, the only system that is eliminated; its
        kernel is lifted by these two reads.

        The lifted rows are the basis kernel_mod gives on the full system.
        A kernel vector is fixed by its (c, d) part, and a column of the full
        system is free in its RREF exactly when some kernel vector has a 1 in
        it and zeros in every later column.  No a- or b-column is free: with
        c = d = 0, A_k1 a = 0 forces a = 0 and then row block 0 forces b = 0.
        A (c, d)-column is free in the full system exactly when it is free in
        the Schur complement, since both conditions only read (c, d).  The
        basis vector of a free column has a 1 there and a 0 at every other
        free column, which fixes one kernel vector; the lift of the Schur
        basis vector is such a vector.  So `basis`, and with it the reported
        generator and witness, are those of `from_system`.

        When g = g_0 x no a-block past row block 0 is invertible, and the
        full system is eliminated.
        """
        T = f.tower
        n, en, p = T.n, T.en, T.p
        system = _pair_system(f, g)
        k1 = next((k for k in range(1, n) if g.coeffs[k]), None)
        if k1 is None:
            return cls.from_system(T, system)
        blocks = system.reshape(n, en, 4, en)
        a_blocks = blocks[:, :, 0]
        cd = blocks[:, :, 2:].reshape(n, en, 2 * en)
        inverse = [0] * n      # -A_k1^-1 as a q-polynomial
        inverse[n - k1] = T.frob_code(T.inv_code(g.coeffs[k1]), n - k1)
        lift = T.qpoly_matrices([inverse])[0] @ cd[k1] % p
        rest = [k for k in range(1, n) if k != k1]
        schur = (cd[rest] + a_blocks[rest] @ lift) % p
        cd_kernel = kernel_mod(schur.reshape(-1, 2 * en), p)
        coords = np.zeros((len(cd_kernel), 4 * en), dtype=np.int64)
        coords[:, :en] = cd_kernel @ lift.T % p
        coords[:, 2 * en:] = cd_kernel
        # b = -(A_0 a + C_0 c + D_0 d), row block 0 read with b = 0
        coords[:, en:2 * en] = -(coords @ system[:en].T) % p
        return cls(T, system, coords)


def _pair_system(f: LinearizedPoly, g: LinearizedPoly):
    """The F_p-matrix whose kernel is S(f, g) = {(a,b,c,d) : b x + d f = g(a x + c f)}.

    S(f, g) is the set of M with U_f M contained in U_g; S(f, f) is G_f with
    zero adjoined.  Slot q^k reads b [k = 0] + d f_k = g_k a^(q^k) +
    sum_i g_i (f_(k-i) c)^(q^i), so the a- and c-blocks carry g's
    coefficients and the d-block carries f's.  Row block k is therefore
    the F_p-matrices of the q-polynomials -g_k x^(q^k) (a), [k = 0] x (b),
    -sum_i g_i (f_(k-i) x)^(q^i) (c) and f_k x (d).  The a- and d-blocks
    are stacked products of the tower's multiplication and Frobenius
    matrices, from one multiplication stack of f's and g's coefficients
    (f's alone when g = f), and the c-block of row block k is
    sum_i A_i D_(k-i), the a-block i after the d-block k - i: one batched
    product, with no field arithmetic and no exp/log table.
    """
    T = f.tower
    n, en, p = T.n, T.en, T.p
    # one multiplication stack: f's coefficients, then g's unless g has them
    mats = T.mul_matrices(f.coeffs if g.coeffs == f.coeffs else f.coeffs + g.coeffs)
    d_blocks = mats[:n]
    a_blocks = -(mats[-n:] @ T.frob_stack % p)
    A = np.zeros((n, en, 4, en), dtype=np.int64)
    A[:, :, 0] = a_blocks
    A[0, :, 1] = _identity(en)
    A[:, :, 2] = (a_blocks @ d_blocks[_shift_index(n)]).sum(axis=1)
    A[:, :, 3] = d_blocks
    return A.reshape(n * en, 4 * en) % p


@functools.lru_cache(maxsize=None)
def _shift_index(n):
    """shift[k, i] = (k - i) mod n, the d-block that row block k pairs with
    a-block i in `_pair_system`; read-only, built once per n."""
    shift = (np.arange(n)[:, None] - np.arange(n)) % n
    shift.flags.writeable = False
    return shift


@functools.lru_cache(maxsize=None)
def _identity(en):
    """The read-only en x en identity over F_p, built once per en."""
    eye = np.eye(en, dtype=np.int64)
    eye.flags.writeable = False
    return eye


def compute_stabilizer(f: LinearizedPoly) -> MatrixField:
    """S(f, f), all M in F_{q^n}^{2x2} with U_f M contained in U_f, as a
    MatrixField, certified whenever verify_field holds on it.

    The result holds the stabilizer system and its kernel basis; no element
    is listed.  verify_field runs on every space, without the census: for
    scattered f (n >= 3) the space is G_f with the zero matrix adjoined and
    the certificate holds; a non-scattered f keeps it whenever its space is
    a field too, as every f whose only solutions are the scalars of F_q is.
    So `verified` reads "is a field", not "is scattered": a caller that
    needs a scattered f asks `is_scattered` itself.  Only when the
    certificate fails is scatteredness read: a scattered f then re-raises
    NotAField, or raises HallCase at n = 2, where S(f, f) = End(U_f) has
    order q^4 and is no field; a non-scattered f comes back uncertified.
    The memo is read first.
    """
    T = f.tower
    cache = T.cache("stabilizer")
    if f.coeffs in cache:
        return cache[f.coeffs]
    field = MatrixField.of_pair(f, f)
    try:
        verify_field(field)
    except NotAField:
        if is_scattered(f):
            if T.n == 2:
                raise HallCase("the stabilizer of a scattered polynomial needs n >= 3") from None
            raise
    cache[f.coeffs] = field
    return field


def verify_field(Mf: MatrixField):
    """Certify Mf as a matrix field of order q^t, t | n, by its diagonal form.

    Checks |Mf| = q^t with t | n, and that the basis and I lie in the
    kernel of Mf.system, by one product; it is the only identity check on
    G_f, and it also checks the basis that `MatrixField.of_pair` lifted from
    its Schur complement.  P is made of the sorted, normalized
    eigen-rows of the first non-scalar basis matrix (P = I when every basis
    matrix is scalar).  Every basis matrix conjugated by P must be
    diag(x, y) with x in F_(q^t), and y = x^(q^s) for one least s < t on
    the whole basis (`_diagonal_twist`).  Conjugation by P and x -> (x, x^(q^s))
    are F_p-linear, so P Mf P^-1 lies in D(s, t) = {diag(x, x^(q^s)) : x in
    F_(q^t)}, a field of order q^t; Mf has that order, so P Mf P^-1 =
    D(s, t) and Mf is a field.  Only q-powers are searched: for
    Mf = S(f, f), every a I with a in F_q lies in Mf, so a twist
    y = x^(p^j) that held on Mf would give a^(p^j) = a on F_q, that is,
    e | j.  The generator is the first element in span order whose entry x
    has order q^t - 1 (`FieldTower.has_order`); Mf keeps P, s, t and the
    generator.  Raises NotAField naming the failing condition.
    """
    T = Mf.tower
    dim = len(Mf.coords)
    if dim % T.e:
        raise NotAField(f"order {Mf.order} is not a power of q={T.q}")
    t = dim // T.e
    if t and T.n % t:
        raise NotAField(f"t={t} does not divide n={T.n}")
    identity = np.zeros(4 * T.en, dtype=np.int64)
    identity[[0, 3 * T.en]] = 1            # the digit row of I = (1 0; 0 1)
    outside = Mf.outside(np.vstack([Mf.coords, identity]))
    if outside[:-1].any():
        raise NotAField("a basis element lies outside the kernel of the system")
    if outside[-1]:
        raise NotAField("identity missing")
    A = next((b for b in Mf.basis if not b.is_scalar()), None)
    P = Mat2.identity(T) if A is None else _eigenbasis(A)
    s, pairs = _diagonal_twist(Mf.basis, P, t)
    if pairs is None:
        raise NotAField(s)      # s names the failing condition
    N = T.q**t - 1
    # span order gives the last basis element the lowest base-p digit
    xs = [x for x, _ in reversed(pairs)]
    for r in range(1, Mf.order):
        x, rest = 0, r
        for xi in xs:
            rest, d = divmod(rest, T.p)
            if d:
                x = T.add_code(x, T.mul_code(d, xi))
        if x and T.has_order(x, N):
            break
    else:
        raise NotAField("no element of full multiplicative order")
    # element r of the span: the digits of r, most significant first, weight the basis rows
    row = T.digit_rows([r])[:dim][::-1] @ Mf.coords % T.p
    Mf.t, Mf.s, Mf.P = t, s, P
    Mf.generator = Mat2._of(T, *(row.reshape(4, T.en) @ T.digit_weights).tolist())
    return t, Mf.generator


def _eigenbasis(A: Mat2) -> Mat2:
    """The rows of A's two eigenvectors, normalized to (1, m) or (0, 1) and sorted.

    Raises NotAField when A has no two distinct eigenvalues in F_(q^n):
    A is then nilpotent plus scalar or has an irreducible characteristic
    polynomial, and no field of matrices with a common eigenbasis holds it.
    """
    T = A.tower
    roots = T.solve_quadratic(T.neg_code(T.add_code(A.a, A.d)), A.det())
    if len(roots) < 2:
        raise NotAField("a basis matrix has no two distinct eigenvalues in F_(q^n)")
    rows = []
    for mu in roots:
        # the row (c, mu - a) is zero only when c = 0 and mu = a; the row
        # (mu - d, b) is then nonzero, since A is not scalar
        x, y = (A.c, T.sub_code(mu, A.a)) if A.c or mu != A.a else (T.sub_code(mu, A.d), A.b)
        rows.append((1, T.div_code(y, x)) if x else (0, 1))
    rows.sort(key=lambda r: (r[0] == 0, T.element_key(r[0]), T.element_key(r[1])))
    return Mat2(T, *rows[0], *rows[1])


def _conjugated_pairs(basis, W: Mat2):
    """(x, y) with W b W^-1 = diag(x, y) for each b in basis; None if one is not diagonal.

    W b W^-1 = diag(x, y) exactly when W b = diag(x, y) W, that is, when
    row i of W b is lambda_i times row i of W, with (x, y) = (lambda_0,
    lambda_1): one product and no W^-1.  A singular W raises
    ZeroDivisionError, as W.inverse() does.
    """
    T = W.tower
    if W.det() == 0:
        raise ZeroDivisionError("singular matrix")
    pairs = []
    for b in basis:
        Wb = W * b
        lams = []
        for w0, w1, u0, u1 in ((W.a, W.b, Wb.a, Wb.b), (W.c, W.d, Wb.c, Wb.d)):
            # (u0, u1) is a multiple of (w0, w1) iff u0 w1 = u1 w0
            if T.mul_code(u0, w1) != T.mul_code(u1, w0):
                return None
            lams.append(T.div_code(u0, w0) if w0 else T.div_code(u1, w1))
        pairs.append(tuple(lams))
    return tuple(pairs)


def _diagonal_twist(basis, W: Mat2, t: int):
    """(s, pairs): the least s < t with W b W^-1 = diag(x, x^(q^s)) and x in
    F_(q^t) for every b in basis, and the pairs (x, y) of `_conjugated_pairs`;
    (reason, None) when there is none, the reason naming the failing condition.

    Over a space of order q^t the twist is unique mod t: once one holds,
    b -> x is one-to-one (x = 0 forces y = 0 and W b W^-1 = 0), so the
    x-entries span F_(q^t), and two twists that agree on all of F_(q^t) are
    equal mod t.
    """
    T = W.tower
    pairs = _conjugated_pairs(basis, W)
    if pairs is None:
        return "the basis matrices have no common eigenbasis", None
    if any(T.frob_code(x, t) != x for x, _ in pairs):
        return f"a diagonal entry lies outside F_(q^{t})", None
    for s in range(t):
        if all(T.frob_code(x, s) == y for x, y in pairs):
            return s, pairs
    return "the diagonal entries are not linked by one Frobenius twist", None


def conjugates_to_diagonal(Mf: MatrixField, W: Mat2, s: int, t: int) -> bool:
    """Is W Mf W^-1 = D(s, t) = {diag(alpha, alpha^(q^s)) : alpha in F_(q^t)}?

    Conjugation by W is F_p-linear and D(s, t) is an F_p-space of order q^t,
    so a conjugated basis inside D(s, t) puts W Mf W^-1 inside it, and equal
    orders |Mf| = q^t make the two equal.  The basis is tested by the
    diagonal test of `verify_field` (`_diagonal_twist`), whose twist is
    unique mod t, and a singular W raises ZeroDivisionError.
    """
    if Mf.order != Mf.tower.q**t:
        return False
    return _diagonal_twist(Mf.basis, W, t)[0] == s % t


def diagonalize(Mf: MatrixField) -> MatrixField:
    """Mf, which verify_field certified with its diagonal form P Mf P^-1 = D(s, t).

    The rows of P (`MatrixField.eigen_points`) are common eigenvectors of
    every element of Mf.  A field of scalars (t = 1) raises AllScalar, and a
    space that verify_field has not certified raises NotAField.
    """
    if not Mf.verified:
        raise NotAField("the space has no certificate of verify_field")
    if Mf.t == 1:
        raise AllScalar("only scalar multiples of the identity; nothing to diagonalize")
    return Mf
