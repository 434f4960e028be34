"""One certificate that an F_p-space of maps is a field of order q^t.

The stabilizer field G_f (2x2 matrices) and the right idealizer of C_f
(q-polynomials under composition) are both solution sets of F_p-linear
systems, so each is the F_p-span V of a kernel basis, and each is closed
under products by its definition.  Instead of walking every element, the
certificate checks:

* |V| = q^t with t | n, the identity lies in V and the elements are distinct;
* the elements are exactly span(basis), by one vectorized span;
* alpha, the first element in enumeration order with alpha^(N/l) != 1 for
  every prime l | N = |V| - 1, also has alpha^N = 1, so its order is N;
* alpha * b lies in V for every basis element b.

Then alpha V is contained in V, the N powers of alpha are distinct nonzero
elements of V, so V minus 0 is the cyclic group generated by alpha and V is a
field.  The cost is O(log N) products per generator candidate plus dim(V)
products, against the N products of a power walk.
"""

from __future__ import annotations

from ._linalg import span_codes
from .errors import NotAField
from .field_tower import FieldTower, _digits, _factorint


def _power(x, k, one, mul):
    acc, base = one, x
    while k:
        if k & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        k >>= 1
    return acc


def certify_field(tower: FieldTower, elements, eset, basis, key, one, mul):
    """Certify that `elements` is a field of order q^t, t | n; returns (t, alpha).

    elements: the set V, zero included, in enumeration order (the generator
    is the first qualifying element of it); eset: the frozenset of their
    keys; basis: the claimed F_p-basis of V, as elements; key(x): the tuple
    of codes that identifies x and whose digits are its F_p-coordinates;
    one: the multiplicative identity; mul(x, y): the product.  Raises
    NotAField naming the first failing condition.
    """
    T = tower
    order = len(elements)
    t = 0
    while T.q**t < order:
        t += 1
    if T.q**t != order:
        raise NotAField(f"order {order} is not a power of q={T.q}")
    if t and T.n % t:
        raise NotAField(f"t={t} does not divide n={T.n}")
    if len(eset) != order:
        raise NotAField("the elements are not distinct")
    one_key = key(one)
    if one_key not in eset:
        raise NotAField("identity missing")
    vecs = [[d for c in key(b) for d in _digits(c, T.p, T.en)] for b in basis]
    span = span_codes(vecs, T.p, T.en, len(one_key))
    if set(map(tuple, span.tolist())) != eset:
        raise NotAField("the elements are not the F_p-span of the basis")
    group_order = order - 1
    factors = list(_factorint(group_order)) if group_order > 1 else []
    zero_key = (0,) * len(one_key)
    alpha = None
    for m in elements:
        k = key(m)
        if k == zero_key or (k == one_key and group_order > 1):
            continue
        if all(key(_power(m, group_order // ell, one, mul)) != one_key for ell in factors):
            alpha = m
            break
    if alpha is None:
        raise NotAField("no element of full multiplicative order")
    if key(_power(alpha, group_order, one, mul)) != one_key:
        raise NotAField("the generator candidate fails alpha^(|V| - 1) = 1",
                        element=key(alpha))
    for b in basis:
        if key(mul(alpha, b)) not in eset:
            raise NotAField("product escapes the set", pair=(key(alpha), key(b)))
    return t, alpha
