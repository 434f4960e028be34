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

The solution set is kept as that system and its kernel basis (`MatrixField`):
its order is p^dim, membership is one matrix-vector product, and no element
is listed unless a caller asks for the list.  For scattered f the nonzero
solutions form a matrix field of order q^t with t | n, simultaneously
diagonalizable: P G_f P^-1 = {diag(x, x^(p^j)) : x in F_(q^t)}.  That
diagonal form is the certificate (`verify_field`): P is read from the
eigen-rows of one basis matrix, and since conjugation by P is F_p-linear,
only the basis matrices are conjugated.  The generator is found from the
diagonal entries by scalar powers alone, with no matrix product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._linalg import kernel_mod, span_codes
from .errors import AllScalar, HallCase, InternalError, NoTransversals, NotAField, NotScattered
from .field_tower import FieldTower, _digits, _prime_divisors
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

    def __add__(self, other):
        T = self.tower
        return Mat2._of(T, T.add_code(self.a, other.a), T.add_code(self.b, other.b),
                        T.add_code(self.c, other.c), T.add_code(self.d, other.d))

    def __sub__(self, other):
        T = self.tower
        return Mat2._of(T, T.sub_code(self.a, other.a), T.sub_code(self.b, other.b),
                        T.sub_code(self.c, other.c), T.sub_code(self.d, other.d))

    def scale(self, x):
        T = self.tower
        return Mat2._of(T, *(T.mul_code(x, v) for v in self.entries()))

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
        return Mat2._of(T, T.mul_code(di, self.d), T.mul_code(di, T.neg_code(self.b)),
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

    def to_json(self):
        fmt = self.tower.format_code
        return [[fmt(self.a), fmt(self.b)], [fmt(self.c), fmt(self.d)]]


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
class MatrixField:
    """The solution set S(f, g) of a pair system (`_pair_system`), kept as
    (system, basis): S(f, g) = span(basis) = ker(system mod p).

    For g = f it is G_f with zero adjoined, certified as a field by
    verify_field; for other scattered g (n >= 3) it is {0} or (G_f with zero)
    times any one of its nonzero elements.  The F_p-coordinates of a matrix
    are the little-endian base-p digits of its entries (a, b, c, d).
    Elements are numbered as in `_linalg.span_codes`: element r is the
    combination of the basis whose coefficients are the base-p digits of r,
    so element 0 is zero.  The library never lists the elements; only the
    test oracles do, through `_codes()`.
    """

    tower: FieldTower
    system: np.ndarray       # F_p-matrix whose kernel is the solution space
    basis: tuple             # F_p-basis of that kernel, as Mat2
    t: int | None = None     # order = q^t once verified
    generator: Mat2 | None = None
    verified: bool = False
    scattered_input: bool = True
    _diag: DiagonalizationResult | None = None

    @classmethod
    def from_system(cls, tower, system, **fields):
        """The space ker(system mod p), with the kernel basis of kernel_mod."""
        return cls._of_kernel(tower, system, kernel_mod(system, tower.p), **fields)

    @classmethod
    def _of_kernel(cls, tower, system, kernel, **fields):
        """The space ker(system mod p) with the rows of `kernel` as its basis."""
        en, p = tower.en, tower.p
        codes = kernel.reshape(len(kernel), 4, en) @ p ** np.arange(en, dtype=np.int64)
        basis = tuple(Mat2._of(tower, *row) for row in codes.tolist())
        return cls(tower=tower, system=system % p, basis=basis, **fields)

    @property
    def order(self):
        return self.tower.p ** len(self.basis)

    @property
    def group_order(self):
        return self.order - 1

    def _coords(self, M):
        T = self.tower
        return [d for c in M.entries() for d in _digits(c, T.p, T.en)]

    def contains(self, M) -> bool:
        return not (self.system @ np.array(self._coords(M), dtype=np.int64) % self.tower.p).any()

    @functools.cached_property
    def _basis_coords(self):
        return [self._coords(b) for b in self.basis]

    def _codes(self, rows=None):
        T = self.tower
        return span_codes(self._basis_coords, T.p, T.en, 4, rows).tolist()

    def element(self, r):
        """Element r of the span order, built alone."""
        return Mat2._of(self.tower, *self._codes([r])[0])

    @classmethod
    def of_pair(cls, f: LinearizedPoly, g: LinearizedPoly, **fields):
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
            return cls.from_system(T, system, **fields)
        blocks = system.reshape(n, en, 4, en)
        a_blocks = blocks[:, :, 0]
        cd = blocks[:, :, 2:].reshape(n, en, 2 * en)
        lift = T.mul_matrix(T.inv_code(g.coeffs[k1])) @ cd[k1] % p
        lift = T.frob_power_matrix(n - k1) @ lift % p
        rest = [k for k in range(1, n) if k != k1]
        schur = (cd[rest] + a_blocks[rest] @ lift) % p
        cd_kernel = kernel_mod(schur.reshape(-1, 2 * en), p)
        a = cd_kernel @ lift.T % p
        b = -(a @ a_blocks[0].T + cd_kernel @ cd[0].T) % p
        return cls._of_kernel(T, system, np.hstack([a, b, cd_kernel]), **fields)


def _pair_system(f: LinearizedPoly, g: LinearizedPoly):
    """The F_p-matrix whose kernel is S(f, g) = {(a,b,c,d) : b x + d f = g(a x + c f)}.

    S(f, g) is the set of M with U_f M contained in U_g; S(f, f) is G_f with
    zero adjoined.  Slot q^k reads b [k = 0] + d f_k = g_k a^(q^k) +
    sum_i g_i (f_(k-i) c)^(q^i), so the a- and c-blocks carry g's
    coefficients and the d-block carries f's.  Row block k is therefore
    the F_p-matrices of the q-polynomials -g_k x^(q^k) (a), [k = 0] x (b),
    -sum_i g_i (f_(k-i) x)^(q^i) (c) and f_k x (d).  The a- and d-blocks
    are stacked products of the tower's multiplication and Frobenius
    matrices, and the c-block of row block k is sum_i A_i D_(k-i), the
    a-block i after the d-block k - i: one batched product, with no field
    arithmetic and no exp/log table.
    """
    T = f.tower
    n, en, p = T.n, T.en, T.p
    a_blocks = -(T.mul_matrices(g.coeffs) @ T.frob_stack % p)
    d_blocks = T.mul_matrices(f.coeffs)
    shift = (np.arange(n)[:, None] - np.arange(n)) % n   # shift[k, i] = k - i
    A = np.zeros((n, en, 4, en), dtype=np.int64)
    A[:, :, 0] = a_blocks
    A[0, :, 1] = np.eye(en, dtype=np.int64)
    A[:, :, 2] = (a_blocks @ d_blocks[shift]).sum(axis=1)
    A[:, :, 3] = d_blocks
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
    field = MatrixField.of_pair(f, f, scattered_input=scattered)
    if scattered:
        verify_field(field)
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
    diag(x, y) with x in F_(q^t), and y = x^(p^j) for one least j < e t on
    the whole basis.  Conjugation by P and x -> (x, x^(p^j)) are F_p-linear,
    so P Mf P^-1 lies in D_j = {diag(x, x^(p^j)) : x in F_(q^t)}, a field
    of order q^t; Mf has that order, so P Mf P^-1 = D_j and Mf is a field.
    The generator is the first element in span order whose entry x has
    order q^t - 1, tested by scalar powers of x; the diagonal form is cached
    for `diagonalize`.  Raises NotAField naming the failing condition.
    """
    T = Mf.tower
    dim = len(Mf.basis)
    if dim % T.e:
        raise NotAField(f"order {Mf.order} is not a power of q={T.q}")
    t = dim // T.e
    if t and T.n % t:
        raise NotAField(f"t={t} does not divide n={T.n}")
    coords = np.array(Mf._basis_coords + [Mf._coords(Mat2.identity(T))], dtype=np.int64)
    outside = (Mf.system @ coords.T % T.p).any(axis=0)
    if outside[:-1].any():
        raise NotAField("a basis element lies outside the kernel of the system")
    if outside[-1]:
        raise NotAField("identity missing")
    A = next((b for b in Mf.basis if not b.is_scalar()), None)
    P = Mat2.identity(T) if A is None else _eigenbasis(A)
    pairs = _conjugated_pairs(Mf.basis, P)
    if pairs is None:
        raise NotAField("the basis matrices have no common eigenbasis")
    if any(T.frob_code(x, t) != x for x, _ in pairs):
        raise NotAField(f"a diagonal entry lies outside F_(q^{t})")
    p_exp = next((j for j in range(T.e * t)
                  if all(T.pow_code(x, T.p**j) == y for x, y in pairs)), None)
    if p_exp is None:
        raise NotAField("the diagonal entries are not linked by one Frobenius twist")
    N = T.q**t - 1
    factors = _prime_divisors(N)
    # span order gives the last basis element the lowest base-p digit
    xs = [x for x, _ in reversed(pairs)]
    for r in range(1, Mf.order):
        x, rest = 0, r
        for xi in xs:
            rest, d = divmod(rest, T.p)
            if d:
                x = T.add_code(x, T.mul_code(d, xi))
        if x and all(T.pow_code(x, N // ell) != 1 for ell in factors):
            break
    else:
        raise NotAField("no element of full multiplicative order")
    Mf.t, Mf.generator, Mf.verified = t, Mf.element(r), True
    eigen_points = (normalize_point(T, (P.a, P.b)), normalize_point(T, (P.c, P.d)))
    Mf._diag = DiagonalizationResult(P, t, p_exp, eigen_points, pairs)
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
        if A.c != 0 or mu != A.a:
            rows.append(normalize_point(T, (A.c, T.sub_code(mu, A.a))))
        else:
            rows.append(normalize_point(T, (T.sub_code(mu, A.d), A.b)))
    rows.sort(key=lambda r: (r[0] == 0, T.element_key(r[0]), T.element_key(r[1])))
    return Mat2(T, *rows[0], *rows[1])


def _conjugated_pairs(basis, W: Mat2):
    """(x, y) with W b W^-1 = diag(x, y) for each b in basis; None if one is not diagonal."""
    Winv = W.inverse()
    pairs = []
    for b in basis:
        c = W * b * Winv
        if not c.is_diagonal():
            return None
        pairs.append((c.a, c.d))
    return tuple(pairs)


def conjugates_to_diagonal(Mf: MatrixField, W: Mat2, s: int, t: int) -> bool:
    """Is W Mf W^-1 = D(s, t) = {diag(alpha, alpha^(q^s)) : alpha in F_(q^t)}?

    Conjugation by W is F_p-linear and D(s, t) is an F_p-space of order q^t,
    so a conjugated basis inside D(s, t) puts W Mf W^-1 inside it, and equal
    orders |Mf| = q^t make the two equal.  Costs dim(Mf) pairs of products.
    """
    T = Mf.tower
    if Mf.order != T.q**t:
        return False
    pairs = _conjugated_pairs(Mf.basis, W)
    return pairs is not None and all(T.frob_code(x, t) == x and T.frob_code(x, s) == y
                                     for x, y in pairs)


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
        """sigma = q^s as a q-power: s = j / e, with 0 <= s < t and gcd(s, t) = 1.

        e divides j: every a I with a in F_q stabilizes U_f, so diag(a, a)
        lies in P Mf P^-1 = D_j and a^(p^j) = a for every a in F_q.
        gcd(s, t) = 1 for scattered f: with d = gcd(s, t), every beta in
        F_(q^d) lies in F_(q^t) and has beta^(q^s) = beta, so
        diag(beta, beta) lies in D_j and beta I in Mf.  Then U_f is
        F_(q^d)-linear, and the fiber of f(x)/x at any x != 0 holds the
        q^d - 1 elements beta x, so d = 1 by scatteredness.
        """
        return self.p_exponent // self.P.tower.e


def diagonalize(Mf: MatrixField) -> DiagonalizationResult:
    """The diagonal form P Mf P^-1 that certified Mf, cached by verify_field.

    The rows of P are common eigenvectors of every element of Mf.  A field
    of scalars (t = 1) raises AllScalar.
    """
    if not Mf.verified:
        verify_field(Mf)
    if Mf.t == 1:
        raise AllScalar("only scalar multiples of the identity; nothing to diagonalize")
    return Mf._diag


def transversal_points(f: LinearizedPoly):
    """The two common eigen-directions of G_f, the rows of P in diagonalize.

    Neither lies on L_f, with nothing to check.  Suppose v != 0 in U_f lies
    on the F_(q^n)-line <X> of one row X.  Every M in G_f fixes <X> and U_f,
    so vM lies in <X> meet U_f for every M in G_f with zero.  M -> vM is
    one-to-one: vM = vN gives v (M - N) = 0, and M - N is zero or invertible
    in the field G_f with zero.  So <X> meet U_f has at least q^t > q
    elements, an F_q-dimension above 1, against scatteredness (t > 1).
    """
    Mf = compute_stabilizer(f)
    if Mf.t == 1:
        raise NoTransversals("stabilizer is the scalar group; no distinguished points")
    return diagonalize(Mf).eigen_points
