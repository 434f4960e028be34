"""Independent oracles: deliberately naive algorithms used to pin expected values.

Nothing here shares a code path with the implementations under test; each
oracle computes from first principles (trial division, repeated
multiplication, dictionary fiber counts) so that agreement is meaningful.
The rest are the enumerations that closed forms, certificates and the
table-only census replaced in the library: the scalar-arithmetic scan over
F_{q^n}^* for the (a, b)-normalization of standard forms (the only copy that
still runs on table-less towers), a rank per codeword class and a seeded
sample of them (min_distance_by_sampling, an upper bound that also runs on
table-less towers), a scan over every class of H_f (central_classes_by_scan)
with the listed homology groups it is compared with (homology_groups), a
walk of every spread component, a walk of every power of a field generator
(for G_f and for the right idealizer), a conjugation of every element of
G_f, an image of every element of G_f in the right idealizer, and a second
census and kernel for the stabilizer of each standard form.  The plane
audits have theirs too: the spread audit's component count, meet kernels
and point walk (spread_cover_by_walk), the image of every component under
each probe scalar (kernel_scalar_by_walk), the power walk of each homology
group (cyclic_by_walk), the list check of each homology group
(is_homology_group: each element fixes one row of P and scales the other,
with N distinct kappa, all in mu_N), the sampled
conjugations of the decomposition audit (decomposition_by_sampling) and the
walk of every pair (alpha, y) for the invariant subgroup of the Andre
witness (andre_subgroup_by_walk), with the witness polynomial itself solved
for on all n exponents as the image of U_f under h P^-1, where the library
rescales the standard form's class solve (andre_witness_by_image).
Equivalence has two: the routes that the kernel S(f, g) replaced, canonical
standard forms inside the class (gl_by_standard_forms) and the
diagonal/antidiagonal witness search outside it (non_s_scan), and a brute-force search of all of GL(2, q^n) on small
fields (gl_solutions_by_brute_force).  Compositional inversion, which the
library solves on the class 0 mod 1 (`LinearizedPoly.solve_on_class`), has
two earlier routes.  One is the en x en F_p-matrix, inverted mod p
(inv_mod_matrix) and read back into a q-polynomial by one product with a
per-tower matrix built from the F_p-trace-dual basis of the power basis
(invert_by_fp_matrix, from_fp_matrix, qpoly_readback, trace_dual_basis),
with the same readback by en * n scalar products (from_fp_matrix_by_scalars)
and an image U_f W = U_g by that inverse (image_by_fp_matrix).  The other is
the matrix over F_q, inverted and read back through a Moore system by
elimination on element codes (invert_by_fq_matrix).  U_f W = U_g is decided
with u always inverted over F_p (maps_onto_by_inversion), where the library
proves it for the first basis matrix W of S(f, g) by det W != 0 and W in
the kernel of the pair system, with no composition (`_pair_kernel`).  The
diagonal pairs of every element of a diagonalized G_f are rebuilt from the
conjugated basis (diag_pairs), and the pairs of the basis itself by
W b W^-1 with two matrix products each, where the library reads them off
the rows of W (conjugated_pairs_by_inverse).  The family predictions that
the conjugator certificate decides are listed element by element
(predicted_set_by_listing), the Lunardon-Polverino parameter is found by a
walk of the powers of g (find_lp_delta_by_walk), and the linear set is built
by one power and a sort per slope (linear_set_by_sort).  Two checks that the
certified diagonal form proves, so that the library no longer runs them,
stay here for the differential test: the dimension of U_f on an
F_(q^n)-line, read off the census (line_intersection_dim), and the order of
kappa_0 by a walk of its powers (_homology_factor_order).
The element lists of a kernel-basis space, which the library never builds,
live here too (elements_of, element_set_of, nonzero_of, through span_codes),
with the full RREF that unpacks every slot of `_linalg._packed_rref`
(rref_mod) and the matrix arithmetic that only tests use
(mat_add, mat_scale, mat_apply).  So do the bulk
passes that p-adic doubling (`_linalg.linear_values`) replaced: the
term-by-term evaluation with a digitwise addition of code arrays
(eval_all_logs_by_terms, add_code_arrays), the giant-step matmul build of
the exp table (exp_table_by_giant_steps, its steps by the digit-loop
product) and the per-code products of an affine table a + m c
(affine_values_by_terms).  The table-less product that the companion
matrix replaced is here too: the schoolbook product of two digit vectors,
reduced by long division by the modulus (mul_by_digit_loop), and square
and multiply with it (pow_by_digit_loop).  The spread is a slope set in
the library; locating a point on a component happens only here
(component_of, membership), with fiber representatives from a scalar
walk of F_{q^n}^* (fiber_representatives), so the spread oracles share no
lookup with the library.  The stabilizer chain has the per-element
routes that stacked matrix products replaced: the multiplication matrix
column by column (mul_matrix_by_codes), the F_p-matrix of a q-polynomial
by evaluation (fp_matrix_by_evaluation), the pair system and the
right-composition operator block by block (pair_system_by_blocks,
right_compose_operator_by_blocks), the right idealizer as the kernel of its
own system, a code annihilator and that operator, where the library reads
it off the kernel of the pair system (right_idealizer_by_annihilator),
with the comparison of two spans by their RREFs (same_span), the numpy
eliminations that the packed rows of `_linalg` replaced: an outer-product
update of the nonzero rows (rref_by_outer, kernel_by_outer) and a
broadcast update that reduces the whole matrix after every pivot
(rref_eager), and the test
M^k = I by a chain of products (mat_power, power_is_one_by_chain), where
the library takes scalar powers of one diagonal entry.  The slope census
reads one code per F_p^*-class; the census over every code, gathered from
the full value table (slope_census_by_full_table), stays here, with the
naive scan over every ordered pair of elements (scattered_by_pairs), where
the library's scan takes one element per projective class, and the square
root by halving a table log (sqrt_by_log_table), where the library runs
Tonelli-Shanks on every field, as does the
scan over b that filtered all M exponents with one array per term
(ab_min_by_array_scan, lambda_by_array_scan), where the library solves a
linear congruence per term.  The oracles reuse the library's stabilizer,
diagonalization, standard forms and spread, but none of the replaced logic;
the list of the spread's components, which the library never walks, is
here (spread_components).  The standard form has the route that the solve
on its residue class replaced: u inverted over F_p, h0 = v o u^-1 by
composition, and h0^-1 and the inverse branch of canonicalize by a second
F_p inversion (standard_pair_by_inversion, canonical_by_inversion,
standard_form_by_inversion); the inverse branch of canonical_by_scan is an
F_p inversion too.
"""

import functools
import itertools
import math
import weakref

import numpy as np

from scattered_lab._linalg import _packed_rref, _slot, kernel_mod, rank_mod
from scattered_lab.errors import BadParams, NotAField, NotBijective
from scattered_lab.families import psi_theta
from scattered_lab.field_tower import _digits, _pack, _prime_divisors, make_field
from scattered_lab.linearized import LinearizedPoly
from scattered_lab.mrd import right_idealizer
from scattered_lab.plane import _plane_preconditions, build_spread
from scattered_lab.scatter import SlopeCensus, slope_census
from scattered_lab.stabilizer import Mat2, MatrixField, compute_stabilizer, diagonalize
from scattered_lab.standard_form import (StandardFormResult, _ab_min, _uv_from, image_polynomial,
                                         to_standard_form)


def rref_mod(A, p):
    """Reduced row echelon form of an integer matrix mod p, as (R, pivots):
    R a new int64 array and pivots the list of pivot column indices.  The
    packed rows of `_linalg._packed_rref` are unpacked here in full; the
    library reads only the pivots and the slots it needs."""
    rows, pivots, width = _packed_rref(A, p)
    cols = np.shape(A)[1]
    R = np.array([[_slot(row, c, width, p) for c in range(cols)] for row in rows],
                 dtype=np.int64)
    return R.reshape(len(rows), cols), pivots


def span_codes(basis_vecs, p, width, blocks):
    """Every F_p-combination of the digit vectors basis_vecs, packed into codes.

    Row r is the combination whose coefficients are the base-p digits of r,
    most significant first, i.e. the order of
    itertools.product(range(p), repeat=len(basis_vecs)); with no vectors the
    only row is zero.  Each combination is cut into `blocks` runs of `width`
    little-endian digits and each run is packed into one code, so the result
    is an int64 array of shape (p**len(basis_vecs), blocks).
    """
    dim = len(basis_vecs)
    r = np.arange(p**dim, dtype=np.int64)
    if dim == 0:
        return np.zeros((1, blocks), dtype=np.int64)
    B = np.array(basis_vecs, dtype=np.int64).reshape(dim, blocks * width)
    combos = (r[:, None] // p ** np.arange(dim - 1, -1, -1, dtype=np.int64)) % p
    digits = (combos @ B) % p
    pvec = p ** np.arange(width, dtype=np.int64)
    return digits.reshape(-1, blocks, width) @ pvec


def _keys(V):
    """The key of every element of V in span order: the entries of each
    matrix of a `stabilizer.MatrixField`, the coefficients of each
    q-polynomial spanned by a nonempty F_p-basis of q-polynomials (the
    right idealizer of `mrd.right_idealizer`)."""
    if isinstance(V, MatrixField):
        T = V.tower
        return span_codes(V.coords, T.p, T.en, 4).tolist()
    T = V[0].tower
    return span_codes([poly_vec(w) for w in V], T.p, T.en, T.n).tolist()


def _of_key(V, row):
    if isinstance(V, MatrixField):
        return Mat2._of(V.tower, *row)
    return LinearizedPoly(V[0].tower, row)


def elements_of(V):
    """Every element of the F_p-space V (a `stabilizer.MatrixField` or a
    basis of q-polynomials), zero first, in span order."""
    return tuple(_of_key(V, row) for row in _keys(V))


def element_set_of(V):
    """The keys of every element of V, as a frozenset of code tuples."""
    return frozenset(map(tuple, _keys(V)))


def nonzero_of(V):
    return [_of_key(V, row) for row in _keys(V) if any(row)]


def codeword(f, a, b):
    """The word a x + b f of C_f."""
    return LinearizedPoly.identity(f.tower).scale(a) + f.scale(b)


def poly_vec(f):
    """The F_p-coordinates of a q-polynomial: the digits of each coefficient."""
    T = f.tower
    return [d for c in f.coeffs for d in _digits(c, T.p, T.en)]


def mat_vec(M):
    """The F_p-coordinates of a Mat2: the digits of each entry (a, b, c, d)."""
    T = M.tower
    return [d for c in M.entries() for d in _digits(c, T.p, T.en)]


def mat_add(M, N):
    """M + N, entrywise."""
    T = M.tower
    return Mat2._of(T, *(T.add_code(x, y) for x, y in zip(M.entries(), N.entries())))


def mat_scale(M, x):
    """x M, entrywise."""
    T = M.tower
    return Mat2._of(T, *(T.mul_code(x, v) for v in M.entries()))


def mat_apply(M, point):
    """The row-vector action of M: (x, y) -> (x a + y c, x b + y d)."""
    T = M.tower
    x, y = point
    return (T.add_code(T.mul_code(x, M.a), T.mul_code(y, M.c)),
            T.add_code(T.mul_code(x, M.b), T.mul_code(y, M.d)))


def certificate_of(V):
    """What verify_field keeps on the `stabilizer.MatrixField` V, as plain
    values that compare across towers: verified, t, s, the entries of P and
    of the generator, and the kernel basis coords."""
    P, generator = (None if M is None else M.entries() for M in (V.P, V.generator))
    return (V.verified, V.t, V.s, P, generator, V.coords.tolist())


def in_kernel(V, M):
    """Does the matrix M lie in the `stabilizer.MatrixField` V, i.e. is its
    digit row in the kernel of V.system?"""
    return not (V.system @ np.array(mat_vec(M), dtype=np.int64) % V.tower.p).any()


def poly_divides(d, a, p):
    """Does monic d divide a over F_p (little-endian coefficient lists)?"""
    a = list(a)
    dd = len(d) - 1
    while len(a) - 1 >= dd:
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < dd:
            break
        coef = a[-1]  # d monic
        shift = len(a) - 1 - dd
        for i, di in enumerate(d):
            a[shift + i] = (a[shift + i] - coef * di) % p
    while a and a[-1] == 0:
        a.pop()
    return not a


def irreducible_by_trial_division(coeffs, p):
    """Irreducibility by dividing by every monic polynomial of degree <= deg/2."""
    deg = len(coeffs) - 1
    for d_deg in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d_deg):
            div = list(tail) + [1]
            if poly_divides(div, coeffs, p):
                return False
    return True


def repeated_power(T, code, exponent):
    """x^exponent by literal repeated multiplication (exponent kept small)."""
    acc = 1
    for _ in range(exponent):
        acc = T.mul_code(acc, code)
    return acc


def repeated_q_power(T, code, k):
    """x -> x^q applied k times, each q-th power by repeated multiplication."""
    cur = code
    for _ in range(k):
        cur = repeated_power(T, cur, T.q)
    return cur


def order_by_walk(T, code):
    """Multiplicative order by walking powers until hitting 1."""
    cur = code
    k = 1
    while cur != 1:
        cur = T.mul_code(cur, code)
        k += 1
        if k > T.mult_order:
            raise AssertionError("order walk exceeded group order")
    return k


def mul_by_digit_loop(T, a, b):
    """a * b in F_p[X]/(m): the schoolbook product of the digit vectors,
    reduced by long division by the monic modulus m."""
    p, en, m = T.p, T.en, T.modulus
    prod = [0] * (2 * en - 1)
    for i, x in enumerate(_digits(a, p, en)):
        for j, y in enumerate(_digits(b, p, en)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * en - 2, en - 1, -1):
        c = prod[top]
        for i in range(en + 1):
            prod[top - en + i] = (prod[top - en + i] - c * m[i]) % p
    return _pack(prod[:en], p)


def pow_by_digit_loop(T, a, k):
    """a^k for k >= 0 by square and multiply with mul_by_digit_loop."""
    result = 1
    while k:
        if k & 1:
            result = mul_by_digit_loop(T, result, a)
        a = mul_by_digit_loop(T, a, a)
        k >>= 1
    return result


def mul_matrix_by_codes(T, code):
    """F_p-matrix of y -> code * y, one column per basis product code * X^i,
    each by the digit-loop product."""
    en = T.en
    Mm = np.zeros((en, en), dtype=np.int64)
    for i in range(en):
        Mm[:, i] = _digits(mul_by_digit_loop(T, code, int(T.p**i)), T.p, en)
    return Mm


def fp_matrix_by_evaluation(f):
    """F_p-matrix of f, one column per value f(X^i), evaluated term by term."""
    T = f.tower
    cols = np.zeros((T.en, T.en), dtype=np.int64)
    for i in range(T.en):
        cols[:, i] = _digits(f.evaluate_code(int(T.p**i)), T.p, T.en)
    return cols


def pair_system_by_blocks(f, g):
    """The pair system S(f, g) block by block: one multiplication matrix per
    nonzero product g_i f_(k-i)^(q^i), times the matrix of x^(q^i)."""
    T = f.tower
    n, en, p = T.n, T.en, T.p

    frob = [fp_matrix_by_evaluation(LinearizedPoly.monomial(T, i)) for i in range(n)]
    A = np.zeros((n * en, 4 * en), dtype=np.int64)
    for k in range(n):
        rows = slice(k * en, (k + 1) * en)
        if g.coeffs[k]:
            A[rows, 0:en] = (-mul_matrix_by_codes(T, g.coeffs[k]) @ frob[k]) % p
        if f.coeffs[k]:
            A[rows, 3 * en:4 * en] = mul_matrix_by_codes(T, f.coeffs[k])
        if k == 0:
            A[rows, en:2 * en] = np.eye(en, dtype=np.int64)
        blk = np.zeros((en, en), dtype=np.int64)
        for i in range(n):
            gi, fj = g.coeffs[i], f.coeffs[(k - i) % n]
            if gi and fj:
                w = T.mul_code(gi, T.frob_code(fj, i))
                blk = (blk + mul_matrix_by_codes(T, w) @ frob[i]) % p
        A[rows, 2 * en:3 * en] = (-blk) % p
    return A % p


def right_compose_operator_by_blocks(T, f):
    """Matrix of phi -> f o phi, accumulating f_i x^(q^i) into block (i + j, j)."""
    n, en = T.n, T.en
    Op = np.zeros((n * en, n * en), dtype=np.int64)
    for i in range(n):
        if not f.coeffs[i]:
            continue
        blk = fp_matrix_by_evaluation(LinearizedPoly.monomial(T, i, f.coeffs[i]))
        for j in range(n):
            k = (i + j) % n
            Op[k * en:(k + 1) * en, j * en:(j + 1) * en] = \
                (Op[k * en:(k + 1) * en, j * en:(j + 1) * en] + blk) % T.p
    return Op


def right_idealizer_by_annihilator(f):
    """mrd.right_idealizer as the kernel of its own F_p-system, on coefficient
    vectors (poly_vec), as a kernel basis.

    The rows N of the kernel of the codewords beta x and beta f (beta in the
    power basis) vanish exactly on the vectors of C_f, and phi -> f o phi is
    right_compose_operator_by_blocks, so phi is in I_R(C_f) exactly when
    N phi = 0 and N (f o phi) = 0.  Both eliminations are kernel_by_outer.
    """
    T = f.tower
    rows = []
    for m in range(T.en):
        beta = T.p**m
        rows += [poly_vec(codeword(f, beta, 0)), poly_vec(codeword(f, 0, beta))]
    N = kernel_by_outer(rows, T.p)
    Tf = right_compose_operator_by_blocks(T, f)
    return kernel_by_outer(np.vstack([N, N @ Tf % T.p]), T.p)


def rref_by_outer(A, p):
    """Reduced row echelon form mod p: first nonzero pivot, then an outer
    product update of the rows that are nonzero in the pivot column.  At
    p > 2^31 the products pass int64, and the update runs on Python ints
    (an object array); R is int64 either way."""
    wide = p > 1 << 31
    R = np.array(A, dtype=object if wide else np.int64) % p
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = (R[r] * pow(int(R[r, c]), p - 2, p)) % p
        rows_c = np.flatnonzero(R[:, c])
        rows_c = rows_c[rows_c != r]
        R[rows_c] = (R[rows_c] - np.outer(R[rows_c, c], R[r])) % p
        pivots.append(c)
        r += 1
    return R.astype(np.int64), pivots


def same_span(A, B, p):
    """Do the rows of the 2-d arrays A and B span the same F_p-space?
    Equal RREFs."""
    RA, pa = rref_by_outer(A, p)
    RB, pb = rref_by_outer(B, p)
    return pa == pb and np.array_equal(RA[:len(pa)], RB[:len(pb)])


def rref_eager(A, p):
    """Reduced row echelon form mod p, pivoting by argmax and reducing every
    entry after each pivot's broadcast update."""
    R = np.array(A, dtype=np.int64) % p
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = R[r:, c]
        i = int(col.argmax())
        if col[i] == 0:
            continue
        i += r
        if i != r:
            R[[r, i]] = R[[i, r]]
        sub = R[:, c:]
        row = sub[r]
        row *= pow(int(row[0]), p - 2, p)
        row %= p
        factors = sub[:, :1].copy()
        factors[r] = 0
        sub -= factors * row
        sub %= p
        pivots.append(c)
        r += 1
    return R, pivots


def solve_by_outer(A, b, p):
    """One solution of Ax = b mod p from rref_by_outer of (A | b), or None
    when b's column holds a pivot."""
    A = np.atleast_2d(np.array(A, dtype=np.int64)) % p
    cols = A.shape[1]
    R, pivots = rref_by_outer(np.hstack([A, np.array(b, dtype=np.int64).reshape(-1, 1) % p]), p)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = R[:len(pivots), cols]
    return x


def kernel_by_outer(A, p):
    """Kernel basis of A mod p from rref_by_outer, one free column at a time."""
    A = np.atleast_2d(np.array(A, dtype=np.int64)) % p
    cols = A.shape[1]
    R, pivots = rref_by_outer(A, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-R[r, c]) % p
    return basis


def mat_power(m, k):
    """m^k for k >= 0 by square and multiply of 2x2 matrices."""
    result, base = Mat2.identity(m.tower), m
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def power_is_one_by_chain(m, k):
    """Is m^k = I?  Decided by the chain of products of mat_power."""
    return mat_power(m, k).entries() == (1, 0, 0, 1)


def slope_fibers(T, f):
    """Dictionary census of f(x)/x using only scalar arithmetic."""
    fibers = {}
    kernel = 0
    for code in range(1, T.size):
        v = f.evaluate_code(code)
        if v == 0:
            kernel += 1
            continue
        s = T.div_code(v, code)
        fibers[s] = fibers.get(s, 0) + 1
    return fibers, kernel


def scattered_by_fibers(T, f):
    fibers, kernel = slope_fibers(T, f)
    sizes = list(fibers.values()) + ([kernel] if kernel else [])
    return bool(sizes) and all(s == T.q - 1 for s in sizes)


def scattered_by_pairs(f):
    """The pairwise test z f(y) = y f(z) => y, z F_q-dependent on every
    ordered pair of nonzero elements, in M x M arrays (table fields only),
    where `is_scattered_naive` takes one element per projective class."""
    T = f.tower
    M = T.mult_order
    step = M // (T.q - 1)
    vals = f.eval_all_logs()
    karr = np.arange(M, dtype=np.int64)
    # code of z * f(y) at position (log y, log z)
    fl = np.where(vals > 0, T.log_table[np.maximum(vals, 1)], 0)
    prod = T.exp_table[(fl[:, None] + karr[None, :]) % M]
    prod = np.where((vals == 0)[:, None], 0, prod)
    eq = prod == prod.T
    dep = ((karr[:, None] - karr[None, :]) % M % step) == 0
    return bool(np.all(~eq | dep))


def sqrt_by_log_table(T, a):
    """A square root of a by halving its log (odd p, table fields only), or
    None: the table read that Tonelli-Shanks replaced in `sqrt_code`."""
    if a == 0:
        return 0
    la = int(T.log_table[a])
    return None if la % 2 else int(T.exp_table[la // 2])


def slope_census_by_full_table(f):
    """slope_census(f) over every nonzero code: the full value table in g^k
    order, one slope log per element and one bincount over all M logs."""
    T = f.tower
    M = T.mult_order
    vals = f.eval_all_logs()
    nz = np.flatnonzero(vals)
    slogs = (T.log_table[vals[nz]] - nz) % M
    counts = np.bincount(slogs, minlength=M)
    attained = np.flatnonzero(counts)
    return SlopeCensus(tuple(attained.tolist()), tuple(counts[attained].tolist()), M - nz.size)


def line_intersection_dim(f, point):
    """dim_Fq of U_f intersected with the F_{q^n}-line spanned by the point,
    a pair of codes, read off the slope census: the check that
    `plane.classify_central_collineations` proves instead of running."""
    T = f.tower
    T.check_codes(*point)
    x, y = point
    if x == 0:
        # vertical line: (0, z) in U_f only for z = 0 when f has q-degree < n
        return 0
    slope = T.div_code(y, x)
    census = slope_census(f)
    if slope == 0:
        count = census.kernel_count
    else:
        # slope_logs is sorted: one bisection instead of a scan
        s = T.dlog(slope)
        i = int(np.searchsorted(census.slope_logs, s))
        hit = i < len(census.slope_logs) and census.slope_logs[i] == s
        count = int(census.counts[i]) if hit else 0
    return T.log_q(count + 1)


# (p, e, n) of every field with exp/log tables that the test suite builds,
# plus the towers (2,2,3) and (3,2,4) with e > 1
TABLE_FIELDS = [
    (2, 1, 2), (2, 1, 4), (2, 1, 6), (2, 1, 21), (2, 2, 3), (2, 2, 4), (2, 3, 3),
    (3, 1, 3), (3, 1, 4), (3, 1, 6), (3, 1, 8), (3, 2, 3), (3, 2, 4),
    (5, 1, 2), (5, 1, 3), (5, 1, 4), (5, 1, 5), (5, 1, 6),
    (7, 1, 4), (7, 1, 6), (13, 1, 6),
]


def field_id(key):
    return "{}_{}_{}".format(*key)


# the matrix builders must not need exp/log tables: every table field, and
# one tower built without them
BUILDER_FIELDS = [(key, True) for key in TABLE_FIELDS] + [((3, 2, 3), False)]


def builder_id(case):
    key, tables = case
    return field_id(key) + ("" if tables else "_tableless")


def builder_tower(tower, case):
    key, tables = case
    return tower(*key) if tables else make_field(*key, table_bound=0)


def add_code_arrays(tower, A, B):
    """Digitwise mod-p addition of two int64 code arrays."""
    p = tower.p
    if p == 2:
        return A ^ B
    out = np.zeros_like(A)
    for i in range(tower.en):
        pi = int(p**i)
        out += ((A // pi + B // pi) % p) * pi
    return out


def eval_all_logs_by_terms(f):
    """Codes of f(g^k) for k = 0..M-1: each term a_i x^(q^i) is one exp-table
    gather at log a_i + k q^i, and the terms are added digit by digit."""
    T = f.tower
    M = T.mult_order
    karr = np.arange(M, dtype=np.int64)
    acc = np.zeros(M, dtype=np.int64)
    for i in f.support:
        la = T.dlog(f.coeffs[i])
        term = T.exp_table[(la + karr * pow(T.q, i, M)) % M]
        acc = add_code_arrays(T, acc, term)
    return acc


def exp_table_by_giant_steps(T):
    """g^k for k = 0..M-1 from B = isqrt(M) baby steps, advanced block by
    block with the en x en F_p-matrix of multiplication by g^B (one matmul
    on the digit vectors per block)."""
    M, en, p = T.mult_order, T.en, T.p
    B = max(1, math.isqrt(M))
    baby = np.zeros((en, B), dtype=np.int64)
    c = 1
    for j in range(B):
        baby[:, j] = _digits(c, p, en)
        c = mul_by_digit_loop(T, c, T.gen_code)
    giant = np.zeros((en, en), dtype=np.int64)
    for i in range(en):
        giant[:, i] = _digits(mul_by_digit_loop(T, c, p**i), p, en)
    pvec = np.array([p**i for i in range(en)], dtype=np.int64)
    exp = np.empty(((M // B + 2) * B,), dtype=np.int64)
    cur, pos = baby, 0
    while pos < M:
        exp[pos:pos + B] = pvec @ cur
        cur = (giant @ cur) % p
        pos += B
    return exp[:M]


def affine_values_by_terms(T, a, c):
    """a + m c for every code m < q^n: one log-table product per code and a
    digitwise addition of the constant a."""
    exp, log, M = T.exp_table, T.log_table, T.mult_order
    m = np.arange(T.size, dtype=np.int64)
    mc = np.zeros_like(m) if c == 0 else np.where(m == 0, 0, exp[(log[m] + int(log[c])) % M])
    return add_code_arrays(T, np.full(T.size, a, dtype=np.int64), mc)


def linear_set_by_sort(f):
    """The slopes of linear_set(f): one pow_code per attained slope log of the
    census, sorted by element_key, with the zero slope appended for a kernel."""
    T = f.tower
    census = slope_census(f)
    slopes = [T.pow_code(T.gen_code, s) for s in census.slope_logs]
    slopes.sort(key=T.element_key)
    if census.kernel_count:
        slopes.append(0)
    return tuple(slopes)


def ab_min_by_scan(r):
    """standard_form._ab_min by comparing element keys for every b = g^lb.

    Returns (poly, a, b): the lex-min normalized a r(b x), with a fixing the
    lowest-index nonzero coefficient to 1.
    """
    T = r.tower
    M = T.mult_order
    supp = r.support
    i0 = supp[0]
    qi = [pow(T.q, i, M) for i in range(T.n)]
    best_key, lam = None, 0
    for lb in range(M):
        key = tuple(
            T.element_key(T.mul_code(T.div_code(r.coeffs[i], r.coeffs[i0]),
                                     T.pow_code(T.gen_code, lb * ((qi[i] - qi[i0]) % M))))
            for i in supp[1:])
        if best_key is None or key < best_key:
            best_key, lam = key, lb
    b = T.pow_code(T.gen_code, lam)
    scaled = r.transform(1, b)
    a = T.inv_code(scaled.coeffs[i0])
    return scaled.scale(a), a, b



def lambda_by_array_scan(M, terms):
    """standard_form._min_exponent by filtering every lam < M: one M-array of
    values (rho + lam e) mod M per term, keeping the lam at its minimum."""
    cand = np.arange(M, dtype=np.int64)
    for rho, e in terms:
        vals = (rho + cand * e) % M
        cand = cand[vals == vals.min()]
    return int(cand[0])


def ab_min_by_array_scan(r):
    """standard_form._ab_min with the scan over b as M-array filters
    (lambda_by_array_scan).  Returns (poly, a, b)."""
    T = r.tower
    M = T.mult_order
    supp = r.support
    i0 = supp[0]
    qi = [pow(T.q, i, M) for i in range(T.n)]
    lr = {i: T.dlog(r.coeffs[i]) for i in supp}
    lam = lambda_by_array_scan(M, [((lr[i] - lr[i0]) % M, (qi[i] - qi[i0]) % M)
                                   for i in supp[1:]])
    b = T.pow_code(T.gen_code, lam)
    scaled = r.transform(1, b)
    a = T.inv_code(scaled.coeffs[i0])
    return scaled.scale(a), a, b

def canonical_by_scan(h):
    """canonicalize(h): the lex-least of ab_min_by_scan of h and of h^{-1}."""
    T = h.tower
    polys = [ab_min_by_scan(h)[0]]
    try:
        polys.append(ab_min_by_scan(invert_by_fp_matrix(h))[0])
    except NotBijective:
        pass
    return min(polys, key=lambda c: tuple(T.element_key(x) for x in c.coeffs))


def rank_by_row_reduction(T, f):
    """Rank of the F_p-action computed with a fresh, list-based elimination."""
    p = T.p
    rows = []
    for i in range(T.en):
        img = f.evaluate_code(int(p**i))
        digits = []
        for _ in range(T.en):
            digits.append(img % p)
            img //= p
        rows.append(digits)
    # transpose so columns are images; rank is the same either way
    rank = 0
    cols = T.en
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                fct = rows[i][c]
                rows[i] = [(x - fct * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    assert rank % T.e == 0
    return rank // T.e


def fe_rref(T, rows):
    """Reduced row echelon form of rows of element codes; returns (rows, pivots)."""
    R = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(len(R[0]) if R else 0):
        sel = next((i for i in range(r, len(R)) if R[i][c]), None)
        if sel is None:
            continue
        R[r], R[sel] = R[sel], R[r]
        inv = T.inv_code(R[r][c])
        R[r] = [T.mul_code(x, inv) for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                fct = R[i][c]
                R[i] = [T.sub_code(x, T.mul_code(fct, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == len(R):
            break
    return R, pivots


def fe_solve_square(T, A, B):
    """X with A X = B for a square matrix A of element codes, or None if A is singular."""
    m = len(A)
    R, pivots = fe_rref(T, [list(a) + list(b) for a, b in zip(A, B)])
    if pivots[:m] != list(range(m)):
        return None
    return [row[m:] for row in R]


def invert_by_fq_matrix(f):
    """Compositional inverse of f through its n x n matrix over F_q.

    The route that the F_p-matrix and the trace-dual basis replaced: column j
    holds the F_q-coordinates of f(X^j) in the F_q-basis 1, X, ..., X^(n-1),
    read through the F_p-basis omega^m X^j (omega primitive in F_q); the
    matrix is inverted by elimination on element codes, and the inverse
    polynomial solves the Moore system sum_i a_i (X^j)^(q^i) = image_j.
    Raises NotBijective when the matrix is singular.
    """
    T = f.tower
    p, e, n = T.p, T.e, T.n
    omega = T.subfield_primitive_code(1) if e > 1 else 1
    omega_pows = [T.pow_code(omega, m) for m in range(e)]
    xbar = [int(p**j) for j in range(n)]
    cols = np.array([_digits(T.mul_code(xj, w), p, T.en) for xj in xbar for w in omega_pows]).T
    to_basis = inv_mod_matrix(cols, p)

    def fq_coords(code):
        w = (to_basis @ np.array(_digits(code, p, T.en))) % p
        out = []
        for j in range(n):
            c = 0
            for m in range(e):
                c = T.add_code(c, T.mul_code(int(w[j * e + m]), omega_pows[m]))
            out.append(c)
        return out

    images = [fq_coords(f.evaluate_code(xj)) for xj in xbar]
    matrix = [[images[j][i] for j in range(n)] for i in range(n)]
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = fe_solve_square(T, matrix, identity)
    if inv is None:
        raise NotBijective("the F_q-matrix is singular")
    targets = []
    for j in range(n):
        acc = 0
        for i in range(n):
            acc = T.add_code(acc, T.mul_code(inv[i][j], xbar[i]))
        targets.append([acc])
    moore = [[T.frob_code(xj, i) for i in range(n)] for xj in xbar]
    sol = fe_solve_square(T, moore, targets)
    return LinearizedPoly(T, [row[0] for row in sol])


def _per_tower(build):
    """Memoize build(T) for as long as the tower T lives."""
    memo = weakref.WeakKeyDictionary()

    @functools.wraps(build)
    def cached(T):
        if T not in memo:
            memo[T] = build(T)
        return memo[T]

    return cached


def inv_mod_matrix(A, p):
    """Inverse of a square matrix mod p, or None if singular."""
    A = np.array(A, dtype=np.int64) % p
    m = A.shape[0]
    aug = np.hstack([A, np.eye(m, dtype=np.int64)])
    R, pivots = rref_mod(aug, p)
    if pivots != list(range(m)):
        return None
    return R[:, m:]


@_per_tower
def trace_dual_basis(T):
    """Codes of the F_p-trace-dual basis beta_k of the power basis X^k.

    Tr(X^j beta_k) = [j = k] with Tr the trace of F_{q^n} over F_p, so
    the k-th power-basis coordinate of y is Tr(y beta_k).  beta is the
    inverse of the Gram matrix Tr(X^(j+k)), whose entries are traces of
    powers of the multiplication-by-X matrix; built once per tower.
    """
    en, p = T.en, T.p
    X = T.mul_matrix(p)  # X has the single digit 1 in position 1
    power, traces = np.eye(en, dtype=np.int64), []
    for _ in range(2 * en - 1):
        traces.append(int(np.trace(power)) % p)
        power = (X @ power) % p
    gram = np.array([traces[j:j + en] for j in range(en)], dtype=np.int64)
    inv = inv_mod_matrix(gram, p)
    assert inv is not None, "the trace form is degenerate"
    return tuple(_pack(inv[:, k], p) for k in range(en))


@_per_tower
def qpoly_readback(T):
    """The F_p-matrix R that reads an F_q-linear map's q-polynomial off its matrix.

    For the F_p-matrix A of an F_q-linear map, the digits of its
    coefficients are R @ vec(A^T) mod p, row (i, r) holding digit r of
    a_i and column (k, s) meeting A[s, k]; R[(i, r), (k, s)] is digit r
    of X^s beta_k^(q^i), with beta the trace-dual basis (see
    `from_fp_matrix`).  One `mul_matrices` stack of the n * en codes
    beta_k^(q^i), transposed; built once per tower.
    """
    n, en = T.n, T.en
    conj = [T.frob_code(beta, i) for i in range(n) for beta in trace_dual_basis(T)]
    mats = T.mul_matrices(conj).reshape(n, en, en, en)   # [i, k, r, s]
    return mats.transpose(0, 2, 1, 3).reshape(n * en, en * en)


def from_fp_matrix(T, A):
    """The q-polynomial acting as the F_p-matrix A on power-basis coordinates.

    With beta the trace-dual basis, y = sum_k Tr(y beta_k) X^k, so the map
    is sum_k A(X^k) Tr(beta_k y) and its x^(p^m) coefficient is
    sum_k A(X^k) beta_k^(p^m).  A must be F_q-linear, as every fp_matrix
    and its inverse are: then only the multiples m = e i survive, and
    a_i = sum_k A(X^k) beta_k^(q^i).  A(X^k) is column k of A, so the
    digits of every a_i are one product with `qpoly_readback(T)`.
    """
    vec = np.asarray(A, dtype=np.int64).T.reshape(-1)
    digits = (qpoly_readback(T) @ vec % T.p).reshape(T.n, T.en)
    return LinearizedPoly(T, (digits @ T.p ** np.arange(T.en, dtype=np.int64)).tolist())


def invert_by_fp_matrix(f):
    """Compositional inverse of f by the inverse of its F_p-matrix, read back
    through the trace-dual basis (from_fp_matrix).  Raises NotBijective when
    the matrix is singular."""
    inv = inv_mod_matrix(f.fp_matrix(), f.tower.p)
    if inv is None:
        raise NotBijective("the F_p-matrix is singular")
    return from_fp_matrix(f.tower, inv)


def image_by_fp_matrix(f, W):
    """g with U_f W = U_g as v o u^-1, with (x, f(x)) W = (u(x), v(x)) and u
    inverted over F_p; NotBijective when u has a kernel."""
    u, v = _uv_from(f, W)
    return v.compose(invert_by_fp_matrix(u))


def from_fp_matrix_by_scalars(T, A):
    """The q-polynomial of the F_q-linear F_p-matrix A, term by term:
    a_i = sum_k A(X^k) beta_k^(q^i) with beta the trace-dual basis, each
    term one mul_code and frob_code, summed by add_code."""
    images = [_pack(A[:, k], T.p) for k in range(T.en)]
    coeffs = []
    for i in range(T.n):
        acc = 0
        for img, beta in zip(images, trace_dual_basis(T)):
            if img:
                acc = T.add_code(acc, T.mul_code(img, T.frob_code(beta, i)))
        coeffs.append(acc)
    return LinearizedPoly(T, coeffs)


def maps_onto_by_inversion(f, W, g):
    """U_f W = U_g, with (x, f(x)) W = (u(x), v(x)): u is inverted for every
    W, and then v = g o u is checked."""
    u, v = _uv_from(f, W)
    try:
        invert_by_fp_matrix(u)
    except NotBijective:
        return False
    return v == g.compose(u)


def min_distance_by_ranks(f):
    """Minimum distance of C_f from one rank computation per projective class.

    The classes are (1, b) for every b and (0, 1); rank-0 classes are the
    zero word (f = c x or f = 0) and are skipped.
    """
    T = f.tower
    p, e = T.p, T.e
    Mf = f.fp_matrix()
    eye = np.eye(T.en, dtype=np.int64)
    ranks = [rank_mod((eye + T.mul_matrix(b) @ Mf) % p, p) // e for b in range(T.size)]
    ranks.append(rank_mod(Mf, p) // e)
    return min((r for r in ranks if r > 0), default=T.n + 1)


def min_distance_by_sampling(f, sample_size=2000, seed=0):
    """Upper bound on the minimum distance of C_f from the ranks of seeded
    random classes (1, b) and of the class (0, 1).

    Runs in generic arithmetic, so it also answers on table-less towers,
    where the census (and with it the library's exact distance) refuses.
    """
    T = f.tower
    p, e = T.p, T.e
    Mf = f.fp_matrix()
    eye = np.eye(T.en, dtype=np.int64)
    rng = T.rng(("min_distance", seed))
    ranks = [rank_mod((eye + T.mul_matrix(rng.randrange(T.size)) @ Mf) % p, p) // e
             for _ in range(sample_size)]
    ranks.append(rank_mod(Mf, p) // e)
    return min((r for r in ranks if r > 0), default=T.n + 1)


def _fixed_vector(T, lam):
    """A nonzero row vector v with v lam = v, or None."""
    delta = Mat2._of(T, T.sub_code(lam.a, 1), lam.b, lam.c, T.sub_code(lam.d, 1))   # lam - I
    if not any(delta.entries()):
        return (1, 0)
    if delta.a != 0 or delta.c != 0:
        v = (delta.c, T.neg_code(delta.a))
    else:
        v = (delta.d, T.neg_code(delta.b))
    if v == (0, 0):
        return None
    check = (T.add_code(T.mul_code(v[0], delta.a), T.mul_code(v[1], delta.c)),
             T.add_code(T.mul_code(v[0], delta.b), T.mul_code(v[1], delta.d)))
    return v if check == (0, 0) else None


def central_classes_by_scan(f):
    """(group_X, group_Y, elations) by visiting every class d M of H_f.

    group_X and group_Y hold the homologies found, identity excluded, sorted
    by kappa = trace(mu) - 1 in g^k order (a homology is conjugate to
    diag(1, kappa) or diag(kappa, 1)); for t = 1 every scalar class is
    checked to fix no nonzero vector and both groups are empty.
    """
    T = f.tower
    Mf = compute_stabilizer(f)
    step = T.mult_order // (T.q - 1)
    if Mf.t == 1:
        for dd in range(step):
            lam = Mat2.scalar(T, T.pow_code(T.gen_code, dd))
            if lam != Mat2.identity(T) and _fixed_vector(T, lam) is not None:
                raise AssertionError("a scalar class fixes a direction pointwise")
        return [], [], 0
    pair_of = {m.entries(): pr for m, pr in zip(elements_of(Mf), diag_pairs(Mf))}
    classes = {}
    for m in nonzero_of(Mf):
        classes.setdefault(T.dlog(pair_of[m.entries()][0]) % step, m)
    group_X, group_Y = [], []
    elations = 0
    for m in classes.values():
        x, y = pair_of[m.entries()]
        lx, ly = T.dlog(x), T.dlog(y)
        if lx == ly and not m.is_scalar():
            elations += 1
        for dd in range(step):
            ex = (dd + lx) % step == 0
            ey = (dd + ly) % step == 0
            if not (ex or ey) or (ex and ey and (lx - ly) % T.mult_order == 0):
                continue
            d = T.pow_code(T.gen_code, dd)
            lam = mat_scale(m, d)
            if ex:
                group_X.append(mat_scale(lam, T.inv_code(T.mul_code(d, x))))
            if ey:
                group_Y.append(mat_scale(lam, T.inv_code(T.mul_code(d, y))))

    def kappa_order(mu):
        return T.element_key(T.sub_code(T.add_code(mu.a, mu.d), 1))

    identity = Mat2.identity(T)
    group_X = sorted((m for m in group_X if m != identity), key=kappa_order)
    group_Y = sorted((m for m in group_Y if m != identity), key=kappa_order)
    return group_X, group_Y, elations


_FIBER_REPRESENTATIVES = {}


def fiber_representatives(f):
    """slope code -> log of the first x = g^k whose slope f(x)/x it is.

    A scalar walk of F_{q^n}^* by repeated multiplication with the
    generator and one evaluation of f per element (the zero slope holds the
    punctured kernel), memoized per polynomial.
    """
    T = f.tower
    key = (T.key, f.coeffs)
    if key not in _FIBER_REPRESENTATIVES:
        reps, x = {}, 1
        for k in range(T.mult_order):
            reps.setdefault(T.div_code(f.evaluate_code(x), x), k)
            x = T.mul_code(x, T.gen_code)
        _FIBER_REPRESENTATIVES[key] = reps
    return _FIBER_REPRESENTATIVES[key]


def component_of(spread, point):
    """The component of the spread through a nonzero point.

    Off L_f the point's slope names its line; on L_f the point (x, m x) lies
    on g^j U_f with x / g^j in the fiber of m, that is with j the log of x
    over a fiber representative, modulo (q^n - 1)/(q - 1).
    """
    T = spread.tower
    x, y = point
    if x == 0 and y == 0:
        raise ValueError("the origin lies on every component")
    if x == 0:
        return ("Dinf",)
    m = T.div_code(y, x)
    if m not in spread.lf_slopes:
        return ("D", m)
    x0_log = fiber_representatives(spread.f)[m]
    return ("U", (T.dlog(x) - x0_log) % spread.h_class_count)


def membership(spread, comp, point):
    """Does the point lie on the component?  One evaluation of f at most."""
    T = spread.tower
    x, y = point
    if x == 0 and y == 0:
        return True
    if comp[0] == "Dinf":
        return x == 0
    if comp[0] == "D":
        return x != 0 and T.mul_code(comp[1], x) == y
    h = T.pow_code(T.gen_code, comp[1])
    if x == 0:
        return y == 0
    return spread.f.evaluate_code(T.div_code(x, h)) == T.div_code(y, h)


def _component_image(spread, comp, M):
    """Image component of comp under the right action of M, with verification."""
    T = spread.tower
    if comp[0] == "Dinf":
        pts = [(0, 1)]
    elif comp[0] == "D":
        pts = [(1, comp[1])]
    else:
        h = T.pow_code(T.gen_code, comp[1])
        pts = [(T.mul_code(h, int(T.p**i)),
                T.mul_code(h, spread.f.evaluate_code(int(T.p**i))))
               for i in range(T.en)]
    images = [mat_apply(M, pt) for pt in pts]
    target = component_of(spread, images[0])
    # lines map to lines and translates to translates; a type switch would
    # mean an F_{q^n}-line coincides with some h U_f, impossible for
    # scattered f with n > 2
    line_types = ("D", "Dinf")
    if (comp[0] in line_types) != (target[0] in line_types):
        return None
    for pt in images:
        if not membership(spread, target, pt):
            return None
    return target


def spread_components(spread):
    """Every component descriptor of the spread: ("Dinf",), the ("D", m)
    with m off L_f, then the translates ("U", j)."""
    yield ("Dinf",)
    for m in range(spread.tower.size):
        if m not in spread.lf_slopes:
            yield ("D", m)
    for j in range(spread.h_class_count):
        yield ("U", j)


def spread_walk(f, M):
    """(lines_ok, translates_ok): does M send every line component, and every
    translate h U_f, point by point onto a component of the spread?"""
    spread = build_spread(f)
    ok = {True: True, False: True}
    for comp in spread_components(spread):
        is_line = comp[0] != "U"
        if ok[is_line] and _component_image(spread, comp, M) is None:
            ok[is_line] = False
    return ok[True], ok[False]


def spread_cover_by_walk(spread, point_bound=1 << 20):
    """plane.verify_spread_axioms by walking components, meets and points.

    Counts the components by iterating them, checks that no line component
    carries a slope of L_f, runs one kernel of f(c x) - c f(x) per coset
    class c of F_{q^n}^*/F_q^* (two translates meet nontrivially exactly
    when it is nonzero), and walks every nonzero point through
    component_of and membership when there are at most point_bound of them,
    else 2000 seeded random points.
    """
    T = spread.tower
    f = spread.f
    n_points = T.size**2 - 1
    count = sum(1 for _ in spread_components(spread))
    if count != spread.component_count:
        return {"ok": False, "reason": f"component count {count}"}
    if count * (T.size - 1) != n_points:
        return {"ok": False, "reason": "component sizes do not tile the point set"}
    # line/translate meets: a Desarguesian component never carries a slope of L_f
    for comp in spread_components(spread):
        if comp[0] == "D" and comp[1] in spread.lf_slopes:
            return {"ok": False, "reason": f"component {comp} lies on the linear set"}
    # translate/translate meets, one kernel per coset class c not in F_q^*
    for j in range(1, spread.h_class_count):
        c = T.pow_code(T.gen_code, j)
        twisted = f.transform(1, c) + f.scale(T.neg_code(c))   # f(c x) - c f(x)
        if T.n - twisted.rank() != 0:
            return {"ok": False,
                    "reason": f"translates meet nontrivially at coset g^{j}"}
    pointwise = False
    if n_points <= point_bound:
        pointwise = True
        for x in range(T.size):
            for y in range(T.size):
                if x == 0 and y == 0:
                    continue
                comp = component_of(spread, (x, y))
                if not membership(spread, comp, (x, y)):
                    return {"ok": False, "reason": f"point ({x},{y}) misplaced"}
    else:
        rng = T.rng("spread-cover")
        for _ in range(2000):
            x, y = rng.randrange(T.size), rng.randrange(T.size)
            if x == 0 and y == 0:
                continue
            comp = component_of(spread, (x, y))
            if not membership(spread, comp, (x, y)):
                return {"ok": False, "reason": f"point ({x},{y}) misplaced"}
    return {"ok": True, "components": count,
            "desarguesian": spread.desarguesian_count(),
            "translates": spread.h_class_count,
            "pointwise_cover_walked": pointwise}


def kernel_scalar_by_walk(f):
    """plane.kernel_scalar_audit by mapping every component under each scalar."""
    _plane_preconditions(f)
    T = f.tower
    spread = build_spread(f)
    for a in T.subfield_elements(1)[:-1]:
        lam = Mat2.scalar(T, a)
        for comp in spread_components(spread):
            if _component_image(spread, comp, lam) != comp:
                return False
    probes = [T.gen_code]
    for t in range(2, T.n):
        if T.n % t == 0:
            probes.append(T.subfield_primitive_code(t))
    for a in probes:
        if T.subfield_member_code(a, 1):
            continue
        lam = Mat2.scalar(T, a)
        moved = False
        for comp in spread_components(spread):
            if _component_image(spread, comp, lam) != comp:
                moved = True
                break
        if not moved:
            return False
    return True


def cyclic_by_walk(T, elements):
    """Is the list of matrices a cyclic group?  Walks the powers of the
    first element of full order and compares them with the list."""
    order = len(elements)
    eset = {m.entries() for m in elements}
    factors = _prime_divisors(order) if order > 1 else ()
    identity = Mat2.identity(T)
    for m in elements:
        if m == identity and order > 1:
            continue
        if not any(power_is_one_by_chain(m, order // ell) for ell in factors):
            walk, cur = set(), identity
            for _ in range(order):
                cur = cur * m
                walk.add(cur.entries())
            return cur == identity and walk == eset
    return order == 1


def homology_groups(P, N):
    """(group_X, group_Y) in closed form: P^-1 diag(1, kappa) P and
    P^-1 diag(kappa, 1) P for kappa in mu_N minus 1 in g^k order, then I."""
    T = P.tower
    Pinv = P.inverse()
    root = T.mult_order // N
    kappas = [T.pow_code(T.gen_code, root * k) for k in range(1, N)]
    groups = []
    for slot in (1, 0):
        # P^-1 diag(1, kappa) P = P^-1 diag(1, 0) P + kappa P^-1 diag(0, 1) P
        fixed = Pinv * Mat2.diag(T, slot, 1 - slot) * P
        moved = Pinv * Mat2.diag(T, 1 - slot, slot) * P
        groups.append([mat_add(fixed, mat_scale(moved, k)) for k in kappas] + [Mat2.identity(T)])
    return tuple(groups)


def _homology_kappas(P, group, slot):
    """The kappa with P mu P^-1 = diag(1, kappa) (slot 1) or diag(kappa, 1)
    (slot 0) for each mu in group, or None when some mu is not of that form:
    P mu = D P says that mu fixes the row of P in the other slot and scales
    the row in the given slot by kappa."""
    T = P.tower
    rows = ((P.a, P.b), (P.c, P.d))
    fixed, moved = rows[1 - slot], rows[slot]
    i = 0 if moved[0] else 1
    kappas = []
    for mu in group:
        image = mat_apply(mu, moved)
        kappa = T.div_code(image[i], moved[i])
        if kappa == 0 or mat_apply(mu, fixed) != fixed or image != (
                T.mul_code(kappa, moved[0]), T.mul_code(kappa, moved[1])):
            return None
        kappas.append(kappa)
    return kappas


def _all_roots_of_unity(T, kappas, N):
    """Are kappas N distinct roots of z^N = 1, i.e. all of mu_N?

    A root of z^N = 1 is a kappa with log kappa = 0 mod (q^n - 1)/N.  N
    distinct roots are all of mu_N, a cyclic group of order N, so a group
    with these kappas is cyclic without walking the powers of a generator.
    """
    root = T.mult_order // N
    return len(kappas) == len(set(kappas)) == N and all(T.dlog(k) % root == 0 for k in kappas)


def is_homology_group(P, group, slot, N):
    """Is P mu P^-1 = diag(1, kappa) (slot 1) or diag(kappa, 1) (slot 0) for
    every mu in the listed group, with N distinct kappa, each a root of
    z^N = 1?"""
    kappas = _homology_kappas(P, group, slot)
    return kappas is not None and _all_roots_of_unity(P.tower, kappas, N)


def _homology_factor_order(T, s, t):
    """Order of kappa_0 = omega^(q^s)/omega, omega primitive in F_{q^t}, by a
    walk of its powers: the plane layer reads (q^t - 1)/(q - 1) instead."""
    omega = T.subfield_primitive_code(t)
    return order_by_walk(T, T.div_code(T.frob_code(omega, s), omega))


def andre_witness_by_image(f):
    """g with U_f P^-1 = U_g, P the diagonalizer of G_f, solved on all n
    exponents by image_polynomial: the route the plane layer replaced."""
    P = diagonalize(compute_stabilizer(f)).P
    return image_polynomial(f, P.inverse())


def andre_subgroup_by_walk(g, s, t):
    """Does diag(alpha, alpha^(q^s)) map {(y, g(y)) : y in F_{q^t}} into
    itself for every alpha in F_{q^t}^*?  Walks all (q^t - 1) q^t pairs,
    with g evaluated once on F_{q^t}."""
    T = g.tower
    subfield = T.subfield_elements(t)
    values = {y: g.evaluate_code(y) for y in subfield}
    for al in subfield[:-1]:
        al_s = T.frob_code(al, s)
        for y in subfield:
            # (y, g(y)) diag(alpha, alpha^(q^s)); None: alpha y lies outside F_{q^t}
            if values.get(T.mul_code(al, y)) != T.mul_code(al_s, values[y]):
                return False
    return True


def decomposition_by_sampling(T, Mf, P, s, t, samples=64):
    """Unique factorization d I * diag(1, kappa) of group elements conjugated
    by P, with kappa_0 = omega^(q^s)/omega: the N powers of kappa_0 are
    distinct, and 64 seeded d m conjugate to a diagonal matrix whose ratio
    kappa is one of them."""
    q = T.q
    omega = T.subfield_primitive_code(t)
    kappa_gen = T.div_code(T.frob_code(omega, s), omega)
    kappa_set = set()
    cur = 1
    for _ in range((q**t - 1) // (q - 1)):
        cur = T.mul_code(cur, kappa_gen)
        kappa_set.add(cur)
    if len(kappa_set) != (q**t - 1) // (q - 1):
        return False
    rng = T.rng("fcg")
    elems = nonzero_of(Mf)
    for _ in range(samples):
        m = elems[rng.randrange(len(elems))]
        d = T.pow_code(T.gen_code, rng.randrange(T.mult_order))
        c = P * mat_scale(m, d) * P.inverse()
        if c.b != 0 or c.c != 0:
            return False
        kappa = T.div_code(c.d, c.a)
        if kappa not in kappa_set:
            return False
        # factors are pinned by the first diagonal entry, so they are unique
    return True


def field_by_walk(Mf, exhaustive_bound=200):
    """(t, generator) of a matrix field by walking all powers of a generator.

    Checks 0 and I, the determinant of every nonzero element, that the
    powers of the first element of full order enumerate the nonzero part,
    additive closure on basis pairs and a seeded sample, and every pairwise
    sum, product and commutator when the order is at most exhaustive_bound.
    Raises NotAField; leaves Mf untouched.
    """
    T = Mf.tower
    elements = elements_of(Mf)
    order = len(elements)
    t = 0
    while T.q**t < order:
        t += 1
    if T.q**t != order or (t and T.n % t):
        raise NotAField("order is not q^t with t | n")
    eset = frozenset(m.entries() for m in elements)
    if (0, 0, 0, 0) not in eset or (1, 0, 0, 1) not in eset:
        raise NotAField("zero or identity missing")
    identity = Mat2.identity(T)
    for m in elements:
        if any(m.entries()) and m.det() == 0:
            raise NotAField("singular nonzero element")
    group_order = order - 1
    factors = _prime_divisors(group_order) if group_order > 1 else ()
    generator = None
    for m in elements:
        if not any(m.entries()) or (m == identity and group_order > 1):
            continue
        if not any(power_is_one_by_chain(m, group_order // ell) for ell in factors):
            generator = m
            break
    if generator is None:
        raise NotAField("no element of full multiplicative order")
    walk = set()
    cur = identity
    for _ in range(group_order):
        cur = cur * generator
        walk.add(cur.entries())
    if cur != identity or len(walk) != group_order or not walk <= eset:
        raise NotAField("powers of the generator do not enumerate the nonzero part")
    basis = list(Mf.basis) if Mf.basis else [generator]
    rng = T.rng("verify_field")
    pairs = [(x, y) for i, x in enumerate(basis) for y in basis[i:]]
    pairs += [(elements[rng.randrange(order)], elements[rng.randrange(order)])
              for _ in range(min(64, order * order))]
    if order <= exhaustive_bound:
        pairs = [(x, y) for i, x in enumerate(elements) for y in elements[i:]]
    for x, y in pairs:
        if mat_add(x, y).entries() not in eset:
            raise NotAField("sum escapes the set")
        if order <= exhaustive_bound:
            if (x * y).entries() not in eset or x * y != y * x:
                raise NotAField("product escapes the set or does not commute")
    return t, generator


def conjugated_pairs_by_inverse(basis, W):
    """stabilizer._conjugated_pairs by two Mat2 products per basis matrix:
    (x, y) with W b W^-1 = diag(x, y), None if one is not diagonal; a
    singular W raises ZeroDivisionError from W.inverse()."""
    Winv = W.inverse()
    pairs = []
    for b in basis:
        c = W * b * Winv
        if c.b or c.c:
            return None
        pairs.append((c.a, c.d))
    return tuple(pairs)


def conjugates_to_diagonal_by_inverse(Mf, W, s, t):
    """stabilizer.conjugates_to_diagonal by conjugated_pairs_by_inverse and
    the twist s itself: |Mf| = q^t and every W b W^-1 = diag(x, x^(q^s))
    with x in F_(q^t), each q-power taken as a power of x."""
    T = Mf.tower
    if Mf.order != T.q**t:
        return False
    pairs = conjugated_pairs_by_inverse(Mf.basis, W)
    return pairs is not None and all(
        T.pow_code(x, T.q**t) == x and T.pow_code(x, T.q**s) == y for x, y in pairs)


def diag_pairs(Mf):
    """(x, x^sigma) codes of every element of the diagonalized field Mf, in the
    order of elements_of(Mf): the F_p-combinations, in span order, of the
    basis pairs P b P^-1 = diag(x, y) (conjugated_pairs_by_inverse), P the
    diagonalizer."""
    T = Mf.tower
    basis_pairs = conjugated_pairs_by_inverse(Mf.basis, diagonalize(Mf).P)
    vecs = [_digits(x, T.p, T.en) + _digits(y, T.p, T.en) for x, y in basis_pairs]
    return tuple(map(tuple, span_codes(vecs, T.p, T.en, 2).tolist()))


def diagonalize_by_conjugation(Mf):
    """(P, p_exponent, eigen_points, diag_pairs), conjugating every element.

    P is built from the eigen rows of the walked generator the same way as
    in the library; each element m is conjugated to P m P^-1, checked to be
    diagonal, and its pair checked against the twist read off the generator.
    Only for fields with t > 1 and a non-scalar generator.
    """
    T = Mf.tower
    t, A = field_by_walk(Mf)
    roots = T.solve_quadratic(T.neg_code(T.add_code(A.a, A.d)), A.det())
    assert len(roots) == 2
    rows = []
    for mu in roots:
        if A.c != 0 or T.sub_code(mu, A.a) != 0:
            x, y = A.c, T.sub_code(mu, A.a)
        else:
            x, y = T.sub_code(mu, A.d), A.b
        rows.append((1, T.div_code(y, x)) if x != 0 else (0, 1))
    rows.sort(key=lambda r: ((0 if r[0] != 0 else 1),
                             T.element_key(r[0]), T.element_key(r[1])))
    P = Mat2(T, rows[0][0], rows[0][1], rows[1][0], rows[1][1])
    Pinv = P.inverse()
    pairs = []
    for m in elements_of(Mf):
        c = P * m * Pinv
        assert c.b == 0 and c.c == 0, "conjugation failed to diagonalize an element"
        pairs.append((c.a, c.d))
    Ad = P * A * Pinv
    p_exp = next(j for j in range(T.e * t) if T.pow_code(Ad.a, T.p**j) == Ad.d)
    for x, y in pairs:
        assert T.pow_code(x, T.p**p_exp) == y, "twist is not uniform across the field"
    eigen_points = tuple((1, T.div_code(b, a)) if a != 0 else (0, 1)
                         for a, b in ((P.a, P.b), (P.c, P.d)))
    return P, p_exp, eigen_points, tuple(pairs)


def idealizer_field_by_walk(I, tower, exhaustive_bound=200):
    """(t, generator) of an idealizer given by its basis: one rank per
    element, then a power walk.

    Raises NotAField.
    """
    elements = elements_of(I)
    order = len(elements)
    t = 0
    while tower.q**t < order:
        t += 1
    if tower.q**t != order:
        raise NotAField("idealizer order is not a power of q")
    eset = frozenset(w.coeffs for w in elements)
    x = LinearizedPoly.identity(tower)
    if x.coeffs not in eset:
        raise NotAField("identity map missing from idealizer")
    for w in elements:
        if not w.is_zero() and w.rank() != tower.n:
            raise NotAField("singular nonzero idealizer element")
    group_order = order - 1
    factors = _prime_divisors(group_order) if group_order > 1 else ()

    def poly_pow(w, k):
        acc, base = x, w
        while k:
            if k & 1:
                acc = base.compose(acc)
            base = base.compose(base)
            k >>= 1
        return acc

    generator = None
    for w in elements:
        if w.is_zero() or (w == x and group_order > 1):
            continue
        if all(poly_pow(w, group_order // ell) != x for ell in factors):
            generator = w
            break
    if generator is None:
        raise NotAField("no idealizer element of full multiplicative order")
    walk = set()
    cur = x
    for _ in range(group_order):
        cur = cur.compose(generator)
        walk.add(cur.coeffs)
    if cur != x or len(walk) != group_order or not walk <= eset:
        raise NotAField("generator powers do not enumerate the nonzero idealizer")
    head = elements[:exhaustive_bound]
    for i, a in enumerate(head):
        for b in head[i:]:
            if (a + b).coeffs not in eset:
                raise NotAField("idealizer not closed under addition")
    return t, generator


def composition_order_by_walk(w, bound):
    """The least k <= bound with w composed k times equal to x, or None;
    one composition per step."""
    x = LinearizedPoly.identity(w.tower)
    acc = w
    for k in range(1, bound + 1):
        if acc == x:
            return k
        acc = acc.compose(w)
    return None


def stabilizer_images_by_walk(f):
    """True when M -> a x + c f maps every element of G_f into the right
    idealizer of C_f, injectively and onto."""
    Mf = compute_stabilizer(f)
    iset = element_set_of(right_idealizer(f))
    images = {codeword(f, M.a, M.c).coeffs for M in elements_of(Mf)}
    return len(images) == Mf.order and images == iset


def standard_form_stabilizer_by_census(f, sf):
    """(G_h, W G_f W^-1) for the standard form sf of f with witness W = sf.P:
    the stabilizer of h recomputed from scratch (a second census and
    kernel), and the set of every element of G_f conjugated by W."""
    Gh = compute_stabilizer(sf.h)
    Winv = sf.P.inverse()
    return Gh, frozenset((sf.P * m * Winv).entries() for m in elements_of(compute_stabilizer(f)))


def standard_shape_by_walk(T, eset, s, t):
    """Is the element set exactly {diag(al, al^(q^s)) : al in F_(q^t)}?"""
    return eset == {(al, 0, 0, T.frob_code(al, s)) for al in T.subfield_elements(t)}


def twisted_eigenspace(T, s, sign):
    """All codes with x^{q^s} = sign * x (sign is +1 or -1), via an F_p-kernel."""
    mat = (T.frob_stack[s % T.n] - sign * np.eye(T.en, dtype=np.int64)) % T.p
    return span_codes(kernel_mod(mat, T.p), T.p, T.en, 1)[:, 0].tolist()


def predicted_set_by_listing(inst):
    """The predicted stabilizer of a family instance as a set of entry tuples,
    zero included: {diag(al, al^(q^s)) : al in F_(q^t)} for the instance's
    (s, t), and for the four-term family with odd t the displayed closed form
    {(al, xi theta; xi/theta, al) : al in F_q, xi^(q^s) = -xi}."""
    T = inst.poly.tower
    prm = inst.params
    if inst.family_id == 5 and prm["t"] % 2:
        theta = psi_theta(T, prm["h"], prm["t"], prm["s"])
        return frozenset((al, T.mul_code(xi, theta), T.div_code(xi, theta), al)
                         for al in T.subfield_elements(1)
                         for xi in twisted_eigenspace(T, prm["s"], -1))
    s, t = inst.predicted_s, inst.predicted_t
    return frozenset((al, 0, 0, T.frob_code(al, s)) for al in T.subfield_elements(t))


def find_lp_delta_by_walk(T, index=0):
    """The index-th delta with N_{q^n/q}(delta) not in {0, 1}, by a walk of
    the powers g^k, one norm each; index 0 is families.find_lp_delta, which
    reads k = 1 off the condition (q - 1) not dividing k."""
    seen = 0
    for k in range(T.mult_order):
        d = T.pow_code(T.gen_code, k)
        if T.rel_norm_code(d, 1) not in (0, 1):
            if seen == index:
                return d
            seen += 1
    raise BadParams("no valid delta exists")


def branches(r):
    """[(r, False)], plus (r^-1, True) when r is bijective."""
    out = [(r, False)]
    try:
        out.append((r.invert(), True))
    except NotBijective:
        pass
    return out


def non_s_scan(f, g):
    """A diagonal or antidiagonal W with U_f W = U_g, or None.

    The structural search that once decided GL-equivalence for |G_f| = q - 1:
    f, g and their inverses are (a, b)-normalized by _ab_min, and a match of
    normal forms gives W = [J] D_f ([J] D_g)^-1 with D = diag(b^-1, a) and J
    the antidiagonal swap.  None proves nothing: deeper witnesses are missed.
    """
    T = f.tower
    J = Mat2(T, 0, 1, 1, 0)
    for rf, inv_f in branches(f):
        pf, af, bf = _ab_min(rf)
        for rg, inv_g in branches(g):
            pg, ag, bg = _ab_min(rg)
            if pf.coeffs != pg.coeffs:
                continue
            Df = Mat2.diag(T, T.inv_code(bf), af)
            Dg = Mat2.diag(T, T.inv_code(bg), ag)
            W = (J * Df if inv_f else Df) * (J * Dg if inv_g else Dg).inverse()
            if maps_onto_by_inversion(f, W, g):
                return W
    return None


def gl_by_standard_forms(f, g):
    """(equivalent, W) for f, g in the standard-form class (t > 1).

    The essential uniqueness of standard forms: U_f ~ U_g exactly when the
    canonical standard forms agree, and then W = P_f^-1 P_g.
    """
    rf, rg = to_standard_form(f), to_standard_form(g)
    if rf.h != rg.h:
        return False, None
    return True, rf.P.inverse() * rg.P


def gl_solutions_by_brute_force(f, g):
    """Every M = (a b; c d) over F_(q^n) with U_f M contained in U_g.

    Searches all (a, c) in F_(q^n)^2 at once on full addition and
    multiplication tables built from scalar code arithmetic.  For each pair,
    (b, d) is solved from the points x = 1 and x = gen, whose rows (1, f(1))
    and (gen, f(gen)) are F_(q^n)-independent for scattered f, and the
    candidate is checked on every x.  Returns the solutions as (a, b, c, d).
    """
    T = f.tower
    N = T.size
    add = np.array([[T.add_code(x, y) for y in range(N)] for x in range(N)])
    mul = np.array([[T.mul_code(x, y) for y in range(N)] for x in range(N)])
    neg = np.array([T.neg_code(x) for x in range(N)])
    X = np.arange(N)
    FX = np.array([f.evaluate_code(x) for x in X])
    GX = np.array([g.evaluate_code(x) for x in X])
    A, C = np.repeat(X, N), np.tile(X, N)
    R = GX[add[mul[A[:, None], X], mul[C[:, None], FX]]]
    gen = T.gen_code
    det = int(add[FX[gen], neg[mul[gen, FX[1]]]])
    assert det != 0, "the rows at x = 1 and x = gen are dependent"
    D = mul[add[R[:, gen], neg[mul[gen, R[:, 1]]]], T.inv_code(det)]
    B = add[R[:, 1], neg[mul[D, FX[1]]]]
    ok = (add[mul[B[:, None], X], mul[D[:, None], FX]] == R).all(axis=1)
    return [tuple(int(v) for v in m) for m in zip(A[ok], B[ok], C[ok], D[ok])]


def standard_pair_by_inversion(f):
    """(P, h0, h0^-1) with U_f P^-1 = U_h0, every inverse by F_p elimination."""
    P = diagonalize(compute_stabilizer(f)).P
    Pinv, x = P.inverse(), LinearizedPoly.identity(f.tower)
    u = x.scale(Pinv.a) + f.scale(Pinv.c)
    v = x.scale(Pinv.b) + f.scale(Pinv.d)
    h0 = v.compose(invert_by_fp_matrix(u))
    return P, h0, invert_by_fp_matrix(h0)


def _canonical_witness_by_inversion(h, hinv):
    """(h_c, inverse branch?, a, b): the lex-least _ab_min of h and of hinv."""
    T = h.tower
    found = [(_ab_min(h), False)]
    if hinv is not None:
        found.append((_ab_min(hinv), True))
    (poly, a, b), inverse = min(found, key=lambda c: tuple(T.element_key(x)
                                                           for x in c[0][0].coeffs))
    return poly, inverse, a, b


def canonical_by_inversion(h):
    """canonicalize(h), with the inverse branch by F_p inversion."""
    try:
        hinv = invert_by_fp_matrix(h)
    except NotBijective:
        hinv = None
    return _canonical_witness_by_inversion(h, hinv)[0]


def standard_form_by_inversion(f):
    """to_standard_form(f) on the F_p-inversion route."""
    T = f.tower
    P, h0, h0inv = standard_pair_by_inversion(f)
    h_c, inverse, a, b = _canonical_witness_by_inversion(h0, h0inv)
    Pc = Mat2.diag(T, b, T.inv_code(a)) * (Mat2(T, 0, 1, 1, 0) * P if inverse else P)
    return StandardFormResult(h_c, Pc, *h_c.standard_form_params())
