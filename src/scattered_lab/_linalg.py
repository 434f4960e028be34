"""Small exact linear algebra kernels over the prime field F_p.

Matrices are numpy int64 arrays reduced mod p.  They carry the stabilizer
solution system, the Frobenius and multiplication matrices,
and the F_p-matrix of a q-polynomial, from which its rank and compositional
inverse are read.  The eliminations are Gauss-Jordan elimination with one
broadcast update of every row per pivot, which at these sizes costs less
than selecting the rows to update, reduced mod p lazily (see `rref_mod`);
the systems never exceed a few hundred rows at desk scale, and the reduced
row echelon form is unique, so neither the pivot rule nor the reduction
schedule changes a result.  `linear_values` tabulates an F_p-linear map on
every code of F_p^en by p-adic doubling: it is the bulk evaluation behind
the exp-table build.  `class_values` evaluates a linear map on one code per
F_p^*-class only, which is all the slope census reads.
"""

from __future__ import annotations

import numpy as np

# class representatives of the low levels that `class_values` reads off one
# product with a digit block; the levels above are doubled
CLASS_BLOCK_BOUND = 1 << 10
# `rref_mod` reduces in full before an entry could reach this; int64 holds 2^63
LAZY_BOUND = 1 << 62


def _inv_mod(a, p):
    return pow(int(a), p - 2, p)


def rref_mod(A, p):
    """Reduced row echelon form of an integer matrix mod p.

    Returns (R, pivots) where R is a new int64 array and pivots the list of
    pivot column indices.  Entries are reduced lazily: per pivot only the
    pivot column and the pivot row are reduced, and the whole matrix once at
    the end.  Each update adds less than p^2 in absolute value, so after k
    pivots every |entry| < p + k p^2; the matrix is reduced in full before a
    pivot could take an entry past LAZY_BOUND.  Every pivot choice reads
    reduced values, and the RREF is unique, so R and the pivots are those of
    an elimination reduced after every step.
    """
    R = np.array(A, dtype=np.int64) % p
    rows, cols = R.shape
    pivots = []
    r = 0
    step = p * p
    bound = p   # every |entry| of R lies below it
    for c in range(cols):
        if r == rows:
            break
        factors = R[:, c] % p
        i = int(factors[r:].argmax()) + r   # the max of [0, p) values is nonzero if any is
        pivot = int(factors[i])
        if pivot == 0:
            continue
        if bound + step > LAZY_BOUND:
            R %= p
            bound = p
        if i != r:
            R[[r, i]] = R[[i, r]]
            factors[i] = factors[r]
        factors[r] = 0
        # the columns left of c are zero mod p in row r, so only c onwards
        # changes; one broadcast update then clears column c off the pivot row
        row = R[r, c:]
        row %= p
        row *= _inv_mod(pivot, p)
        row %= p
        R[:, c:] -= factors[:, None] * row
        bound += step
        pivots.append(c)
        r += 1
    R %= p
    return R, pivots


def kernel_mod(A, p):
    """Basis of the right kernel {v : Av = 0 mod p} as rows of an array."""
    R, pivots = rref_mod(np.atleast_2d(A), p)
    cols = R.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -R[:len(pivots), free].T % p
    return basis


def solve_mod(A, b, p):
    """One solution of Ax = b mod p, or None if inconsistent."""
    A = np.atleast_2d(np.array(A, dtype=np.int64)) % p
    b = np.array(b, dtype=np.int64) % p
    aug = np.hstack([A, b.reshape(-1, 1)])
    R, pivots = rref_mod(aug, p)
    cols = A.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = R[r, cols]
    return x


def inv_mod_matrix(A, p):
    """Inverse of a square matrix mod p, or None if singular."""
    A = np.array(A, dtype=np.int64) % p
    m = A.shape[0]
    aug = np.hstack([A, np.eye(m, dtype=np.int64)])
    R, pivots = rref_mod(aug, p)
    if pivots != list(range(m)):
        return None
    return R[:, m:]


def rank_mod(A, p):
    _, pivots = rref_mod(A, p)
    return len(pivots)


def linear_values(p, A):
    """Value of the F_p-linear map c -> A c at every code c < p^en.

    A is a matrix over F_p with en columns acting on little-endian digit
    vectors.  Entry c of the int64 result is the packed code of
    A digits(c), so the table is in code order.  It is built by p-adic
    doubling: the codes with top digit d at level j are the codes below
    p^j, shifted by d A(p^j).  For p = 2 each level is one XOR of packed
    codes.  Otherwise all output digits are doubled together in one
    rows x N array of the narrowest unsigned dtype that holds 2p, and packed
    into the result one digit at a time, so no N x en int64 temporary is
    formed.
    """
    A = np.asarray(A, dtype=np.int64) % p
    rows, en = A.shape
    size = p**en
    if p == 2:
        bits = 1 << np.arange(rows, dtype=np.int64)
        images = bits @ A
        out = np.zeros(size, dtype=np.int64)
        h = 1
        for j in range(en):
            np.bitwise_xor(out[:h], images[j], out=out[h:2 * h])
            h *= 2
        return out
    D = np.empty((rows, size), dtype=np.min_scalar_type(2 * p))
    D[:, 0] = 0
    # shifts[i, d - 1, j] = digit i of d A(p^j)
    shifts = (A[:, None, :] * np.arange(1, p)[None, :, None] % p).astype(D.dtype)
    h = 1
    for j in range(en):
        block = D[:, h:p * h].reshape(rows, p - 1, h)
        np.add(D[:, None, :h], shifts[:, :, j, None], out=block)
        np.remainder(block, p, out=block)
        h *= p
    out = np.zeros(size, dtype=np.int64)
    for digit in D[::-1]:
        out *= p
        out += digit
    return out


def class_codes(p, levels):
    """The codes of F_p^levels whose top nonzero digit is 1, ascending.

    They are p^j + y for j < levels and y < p^j, one code per F_p^*-class
    of nonzero codes: (p^levels - 1)/(p - 1) of them.
    """
    return np.concatenate([np.arange(p**j, 2 * p**j, dtype=np.int64) for j in range(levels)])


def class_block(p, levels):
    """The digit block of `class_values`: column c holds the `levels` digits of
    the c-th class representative of F_p^levels (`class_codes`)."""
    return class_codes(p, levels) // p ** np.arange(levels, dtype=np.int64)[:, None] % p


def class_values(p, A, block):
    """Value of the F_p-linear map c -> A c at every class representative c.

    The representatives are `class_codes(p, en)`, and entry k of the int64
    result is the packed code of A digits(c_k).  For p = 2 they are the
    nonzero codes, so this is the `linear_values` table without its entry
    at 0.  Otherwise the representatives of the first L = len(block) levels
    are one product with the digit block `class_block(p, L)`, packed by a
    second product; both are bounded by the block.  Each level j >= L is p
    shifted copies of level j - 1: p^j + d p^(j-1) + y is p^(j-1) + y
    shifted by A(p^j) + (d - 1) A(p^(j-1)).  Those levels are doubled in one
    rows x N array of the narrowest unsigned dtype that holds 2p and packed
    one digit at a time, as in `linear_values`, so no N x rows int64
    temporary is formed.
    """
    A = np.asarray(A, dtype=np.int64) % p
    rows, en = A.shape
    if p == 2:
        return linear_values(2, A)[1:]
    levels = len(block)
    low = A[:, :levels] @ block % p
    n_low = low.shape[1]
    out = np.empty((p**en - 1) // (p - 1), dtype=np.int64)
    out[:n_low] = p ** np.arange(rows, dtype=np.int64) @ low
    if levels == en:
        return out
    h = p ** (levels - 1)
    # columns [0, h) hold level levels - 1, the last of the block
    D = np.empty((rows, out.size - n_low + h), dtype=np.min_scalar_type(2 * p))
    D[:, :h] = low[:, -h:]
    # shifts[i, d, j] = digit i of A(p^(j+1)) + (d - 1) A(p^j)
    d = np.arange(p)[None, :, None]
    shifts = ((A[:, None, 1:] + (d - 1) * A[:, None, :-1]) % p).astype(D.dtype)
    start = 0
    for j in range(levels, en):
        level = D[:, start + h:start + (p + 1) * h].reshape(rows, p, h)
        np.add(D[:, None, start:start + h], shifts[:, :, j - 1, None], out=level)
        np.remainder(level, p, out=level)
        start += h
        h *= p
    high = out[n_low:]
    high[:] = 0
    for digit in D[::-1, p ** (levels - 1):]:
        high *= p
        high += digit
    return out


def span_codes(basis_vecs, p, width, blocks, rows=None):
    """F_p-combinations of the digit vectors basis_vecs, packed into codes.

    Row r is the combination whose coefficients are the base-p digits of r,
    most significant first, i.e. the order of
    itertools.product(range(p), repeat=len(basis_vecs)); with no vectors the
    only row is zero.  Each combination is cut into `blocks` runs of `width`
    little-endian digits and each run is packed into one code, so the result
    is an int64 array of shape (len(rows), blocks); rows defaults to every
    r < p**len(basis_vecs).
    """
    dim = len(basis_vecs)
    r = np.arange(p**dim, dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64)
    if dim == 0:
        return np.zeros((len(r), blocks), dtype=np.int64)
    B = np.array(basis_vecs, dtype=np.int64).reshape(dim, blocks * width)
    combos = (r[:, None] // p ** np.arange(dim - 1, -1, -1, dtype=np.int64)) % p
    digits = (combos @ B) % p
    pvec = p ** np.arange(width, dtype=np.int64)
    return digits.reshape(-1, blocks, width) @ pvec

