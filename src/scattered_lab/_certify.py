"""F_p-spaces of maps kept as a kernel, and one certificate that one is a field.

The stabilizer field G_f (2x2 matrices) and the right idealizer of C_f
(q-polynomials under composition) are both solution sets of F_p-linear
systems.  Each is stored as its system and an F_p-basis of the kernel
(`FpSpace`): V = span(basis) = ker(system), |V| = p^dim, and membership is
one matrix-vector product.  The library never lists the elements; only the
test oracles do, through `FpSpace._codes()`.  The field certificate checks:

* |V| = q^t with t | n, and system b = 0 for every basis element b;
* the identity lies in V;
* alpha, the first element in span order with alpha^(N/l) != 1 for every
  prime l | N = |V| - 1, also has alpha^N = 1, so its order is N;
* alpha * b lies in V for every basis element b.

Then alpha V is contained in V, the N powers of alpha are distinct nonzero
elements of V, so V minus 0 is the cyclic group generated by alpha and V is a
field.  Each test x^k = 1 is the subclass's `power_is_one`: a matrix reads
it from its two eigenvalues (one quadratic and two table powers), a
q-polynomial by square and multiply under composition (O(log N)
compositions).  Candidates are built one at a time from their span index,
and few are tried, since a share phi(N)/N of V generates it; the closure
check adds dim(V) products.  A power walk would cost N products.
"""

from __future__ import annotations

import functools

import numpy as np

from ._linalg import kernel_mod, span_codes
from .errors import NotAField
from .field_tower import _digits, _prime_divisors


class FpSpace:
    """An F_p-space of maps kept as (system, basis): V = span(basis) = ker(system).

    Subclasses are dataclasses with the fields `tower`, `system` (an int64
    array whose kernel mod p is V) and `basis` (an F_p-basis of that
    kernel, as maps), and define key(x), the tuple of codes whose
    little-endian base-p digits are the F_p-coordinates of x,
    from_key(tower, codes), its inverse, and power_is_one(x, k), the test
    x^k = 1 for the exponents k | N of the field certificate.  Elements are
    numbered as in `_linalg.span_codes`: element r is the combination of
    the basis whose coefficients are the base-p digits of r, so element 0
    is zero.
    """

    @classmethod
    def from_system(cls, tower, system, **fields):
        """The space ker(system mod p), with the kernel basis of kernel_mod."""
        en, p = tower.en, tower.p
        kernel = kernel_mod(system, p)
        blocks = system.shape[1] // en
        codes = kernel.reshape(len(kernel), blocks, en) @ p ** np.arange(en, dtype=np.int64)
        basis = tuple(cls.from_key(tower, row) for row in codes.tolist())
        return cls(tower=tower, system=system % p, basis=basis, **fields)

    @property
    def order(self):
        return self.tower.p ** len(self.basis)

    @property
    def group_order(self):
        return self.order - 1

    def _coords(self, x):
        T = self.tower
        return [d for c in self.key(x) for d in _digits(c, T.p, T.en)]

    def contains(self, x) -> bool:
        return not (self.system @ np.array(self._coords(x), dtype=np.int64) % self.tower.p).any()

    @functools.cached_property
    def _basis_coords(self):
        return [self._coords(b) for b in self.basis]

    def _codes(self, rows=None):
        T = self.tower
        return span_codes(self._basis_coords, T.p, T.en,
                          self.system.shape[1] // T.en, rows).tolist()

    def element(self, r):
        """Element r of the span order, built alone."""
        return self.from_key(self.tower, self._codes([r])[0])


def certify_field(V: FpSpace, one, mul):
    """Certify that V is a field of order q^t, t | n; returns (t, alpha).

    one: the multiplicative identity; mul(x, y): the product.  The
    generator alpha is the first qualifying element of the span order.
    Raises NotAField naming the first failing condition.
    """
    T = V.tower
    dim = len(V.basis)
    if dim % T.e:
        raise NotAField(f"order {V.order} is not a power of q={T.q}")
    t = dim // T.e
    if t and T.n % t:
        raise NotAField(f"t={t} does not divide n={T.n}")
    if not all(V.contains(b) for b in V.basis):
        raise NotAField("a basis element lies outside the kernel of the system")
    if not V.contains(one):
        raise NotAField("identity missing")
    one_key = V.key(one)
    group_order = V.order - 1
    factors = _prime_divisors(group_order)
    alpha = None
    for r in range(1, V.order):
        m = V.element(r)
        k = V.key(m)
        if not any(k) or (k == one_key and group_order > 1):
            continue
        if not any(V.power_is_one(m, group_order // ell) for ell in factors):
            alpha = m
            break
    if alpha is None:
        raise NotAField("no element of full multiplicative order")
    if not V.power_is_one(alpha, group_order):
        raise NotAField("the generator candidate fails alpha^(|V| - 1) = 1",
                        element=V.key(alpha))
    for b in V.basis:
        if not V.contains(mul(alpha, b)):
            raise NotAField("product escapes the set", pair=(V.key(alpha), V.key(b)))
    return t, alpha
