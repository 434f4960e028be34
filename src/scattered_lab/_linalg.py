"""Small exact linear algebra kernels over the prime field F_p.

Matrices are numpy int64 arrays reduced mod p.  They carry the stabilizer
solution system, the Frobenius and multiplication matrices, and the
F_p-matrix of a q-polynomial, from which its rank is read.  The
eliminations are Gauss-Jordan elimination on packed rows: each row is one
Python int with a fixed-width slot per column, so clearing a column off a
row is one integer multiply-add, and the slots are wide enough that no
entry overflows into the next (see `_packed_rref`).  At the sizes the
library eliminates, a few dozen rows and columns, that costs less than the
numpy call overhead of a broadcast update per pivot; on tall or large-p
systems it costs more, and the library builds none.  The reduced row echelon
form is unique, so neither the pivot rule nor the reduction schedule
changes a result, and `kernel_mod`, `rank_mod` and `solve_mod` read only
the pivots and the slots they need.  `linear_values` tabulates an
F_p-affine map on every code of F_p^en by p-adic doubling: it is the bulk
evaluation behind the exp-table build.  `class_values` evaluates a linear
map on one code per F_p^*-class only, which is all the slope census reads;
its levels past one block product are `linear_values` tables offset by the
level's leading column.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import TooLarge

# class representatives of the low levels that `class_values` reads off one
# product with a digit block; the levels above are doubled
CLASS_BLOCK_BOUND = 1 << 10


def _packed_rref(A, p):
    """Gauss-Jordan elimination of A mod p on packed rows.

    Returns (rows, pivots, width): row i of the RREF is the Python int
    rows[i], whose entry in column c is slot c, the bits
    [c width, (c + 1) width), read mod p (`_slot`).  Entries are reduced
    lazily.  Each pivot row is reduced and scaled in full, with the slots
    left of its pivot cleared, since they are 0 mod p; every other row with
    entry f != 0 mod p in the pivot column gets (p - f) times it added,
    which makes that entry p and adds at most (p - 1)^2 to each slot.  So
    after k pivots every slot is below p + k (p - 1)^2, and the width, 1, 2,
    4 or 8 bytes, holds that bound at k = min(rows, cols): no slot overflows
    into the next, and no full reduction is needed.  A bound of 2^64 or more
    is refused with TooLarge; with p <= 2^20, all `make_field` accepts, the
    bound is below 2^64 for k < 2^24.  A column is read only on rows at or
    below the current one until it has a pivot.
    """
    A = np.asarray(A, dtype=np.int64) % p
    nrows, ncols = A.shape
    bound = p - 1 + min(nrows, ncols) * (p - 1) ** 2
    if bound.bit_length() > 64:
        raise TooLarge(f"an elimination mod {p} on {nrows} x {ncols} needs slots "
                       f"wider than 64 bits")
    nbytes = 1 << (-(-bound.bit_length() // 8) - 1).bit_length()
    data = A.astype(f"<u{nbytes}").tobytes()
    width, size = 8 * nbytes, ncols * nbytes
    rows = [int.from_bytes(data[i * size:(i + 1) * size], "little") for i in range(nrows)]
    mask = (1 << width) - 1
    shifts = range(0, ncols * width, width)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        shift = shifts[c]
        for i in range(r, nrows):
            f = (rows[i] >> shift & mask) % p
            if f:
                break
        else:
            continue
        row, rows[i] = rows[i], rows[r]
        inv = pow(f, -1, p)
        pivot_row = 0
        for s in shifts[c:]:
            pivot_row |= (row >> s & mask) * inv % p << s
        rows[r] = pivot_row
        for j, row in enumerate(rows):
            f = (row >> shift & mask) % p
            if f and j != r:
                rows[j] = row + (p - f) * pivot_row
        pivots.append(c)
        r += 1
    return rows, pivots, width


def _slot(row, c, width, p):
    """Entry c of a packed row of `_packed_rref`, reduced mod p."""
    return (row >> c * width & (1 << width) - 1) % p


def kernel_mod(A, p):
    """Basis of the right kernel {v : Av = 0 mod p} as rows of an array.

    The basis vector of a free column c has a 1 there, a 0 at every other
    free column, and minus entry c of pivot row r at the pivot of row r.
    """
    A = np.atleast_2d(A)
    rows, pivots, width = _packed_rref(A, p)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    if pivots and free:
        basis[:, pivots] = [[-_slot(row, c, width, p) % p for row in rows[:len(pivots)]]
                            for c in free]
    return basis


def solve_mod(A, b, p):
    """One solution of Ax = b mod p, or None if inconsistent."""
    A = np.atleast_2d(np.array(A, dtype=np.int64)) % p
    b = np.array(b, dtype=np.int64) % p
    rows, pivots, width = _packed_rref(np.hstack([A, b.reshape(-1, 1)]), p)
    cols = A.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for row, c in zip(rows, pivots):
        x[c] = _slot(row, cols, width, p)
    return x


def rank_mod(A, p):
    return len(_packed_rref(A, p)[1])


def linear_values(p, A, offset=0):
    """Value of the F_p-affine map c -> offset + A c at every code c < p^en.

    A is a matrix over F_p with en columns acting on little-endian digit
    vectors, and offset a digit vector (or 0).  Entry c of the int64 result
    is the packed code of offset + A digits(c), so the table is in code
    order.  It is built by p-adic doubling from the offset at code 0: the
    codes with top digit d at level j are the codes below p^j, shifted by
    d A(p^j).  For p = 2 each level is one XOR of packed codes.  Otherwise
    all output digits are doubled together in one rows x N array of the
    narrowest unsigned dtype that holds 2p, and packed into the result one
    digit at a time, so no N x en int64 temporary is formed.
    """
    A = np.asarray(A, dtype=np.int64) % p
    offset = np.asarray(offset, dtype=np.int64) % p
    rows, en = A.shape
    size = p**en
    if p == 2:
        bits = 1 << np.arange(rows, dtype=np.int64)
        images = bits @ A
        out = np.empty(size, dtype=np.int64)
        out[0] = (bits * offset).sum()
        h = 1
        for j in range(en):
            np.bitwise_xor(out[:h], images[j], out=out[h:2 * h])
            h *= 2
        return out
    D = np.empty((rows, size), dtype=np.min_scalar_type(2 * p))
    D[:, 0] = offset
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


@functools.lru_cache(maxsize=None)
def _weights(p, k):
    """The read-only int64 array of p^i for i < k, which packs k digits into a code."""
    weights = p ** np.arange(k, dtype=np.int64)
    weights.flags.writeable = False
    return weights


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
    are one product with the digit block `class_block(p, L)`, packed by the
    p-power weights; when the block covers all en levels that is the whole
    result.  Level j >= L holds p^j + y for y < p^j, whose values are the
    `linear_values` table of A's first j columns offset by A(p^j).
    """
    if p == 2:
        return linear_values(2, A)[1:]
    levels = len(block)
    low = _weights(p, A.shape[0]) @ (A[:, :levels] @ block % p)
    return np.concatenate([low] + [linear_values(p, A[:, :j], A[:, j])
                                   for j in range(levels, A.shape[1])])
