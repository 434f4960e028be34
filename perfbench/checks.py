"""Answer checks, written from the paper's closed forms and the definitions.

Each function takes plain data (numbers, coefficient lists, report
dictionaries) and returns a list of messages, empty when the answer holds.
Nothing here calls the program; checks that need field arithmetic use gf.py.
"""

from __future__ import annotations

import math

from gf import GF, mat_det, mat_inverse, point_maps_into


def stabilizer_order(family: str, q: int, n: int) -> int:
    """|G_f| by family: q^n - 1 for the pseudoregulus; q^2 - 1 for LP at even
    n and q - 1 at odd n; q^2 - 1 for psi and for x^q + x^(q^3) + delta x^(q^5);
    q^(n/2) - 1 for delta x^(q^s) + x^(q^(s+n/2))."""
    if family == "pseudoregulus":
        return q**n - 1
    if family == "lp":
        return q**2 - 1 if n % 2 == 0 else q - 1
    if family in ("psi", "family4"):
        return q**2 - 1
    if family == "family3":
        return q ** (n // 2) - 1
    raise ValueError(f"no closed form for family {family!r}")


def t_of(q: int, n: int, order: int):
    """t with q^t = |G_f| + 1 and t | n, or None."""
    for t in range(1, n + 1):
        if q**t == order + 1:
            return t if n % t == 0 else None
    return None


def check_stabilizer(q, n, order, t, expected_order=None) -> list:
    out = []
    if expected_order is not None and order != expected_order:
        out.append(f"|G_f| = {order}, closed form gives {expected_order}")
    tt = t_of(q, n, order)
    if tt is None:
        out.append(f"|G_f| + 1 = {order + 1} is not q^t with t | n")
    elif t != tt:
        out.append(f"t = {t} but q^t = |G_f| + 1 gives t = {tt}")
    return out


def check_standard_form(t_stab, s, t, support) -> list:
    """Result (i): gcd(s, t) = 1, t = t of G_f, and every exponent of h is s mod t."""
    out = []
    if t != t_stab:
        out.append(f"standard form t = {t}, stabilizer t = {t_stab}")
    if math.gcd(s, t) != 1:
        out.append(f"gcd(s, t) = gcd({s}, {t}) != 1")
    bad = [i for i in support if (i - s) % t]
    if not support or bad:
        out.append(f"exponents {bad or 'none'} of h are not s = {s} mod t = {t}")
    return out


def support_of(coeffs) -> list:
    """Indices of nonzero coefficients; report coefficients are "0" or "g^k"."""
    return [i for i, c in enumerate(coeffs) if c not in (0, "0")]


def check_report(inp: dict, report: dict) -> list:
    """The five-task analyze report of one family instance."""
    q, n, family = inp["q"], inp["n"], inp["family"]
    tasks = report.get("tasks", {})
    expected = stabilizer_order(family, q, n)
    t = t_of(q, n, expected)
    out = []
    scat = tasks.get("scatter", {})
    if scat.get("scattered") is not True or scat.get("linear_set", {}).get("scattered") is not True:
        out.append("not reported scattered")
    if scat.get("linear_set", {}).get("size") != (q**n - 1) // (q - 1):
        out.append("linear set size is not (q^n-1)/(q-1)")
    stab = tasks.get("stabilizer", {})
    out += check_stabilizer(q, n, stab.get("order", -1), stab.get("t"), expected)
    if stab.get("field_order") != expected + 1:
        out.append("stabilizer field order is not |G_f| + 1")
    if "standard-form" in inp["tasks"].split(","):
        sf = tasks.get("standard-form", {})
        out += check_standard_form(t, sf.get("s", 0), sf.get("t", 0),
                                   support_of(sf.get("h", [])))
    mrd = tasks.get("mrd", {})
    if mrd.get("min_distance") != n - 1 or mrd.get("is_mrd") is not True:
        out.append("code is not MRD with minimum distance n - 1")
    if mrd.get("right_idealizer_order") != expected + 1:
        out.append("right idealizer order is not |G_f| + 1")
    pl = tasks.get("plane", {})
    if pl.get("case") != ("ii" if t > 1 else "i"):
        out.append(f"plane case {pl.get('case')!r} with t = {t}")
    if pl.get("homology_group_order") != (q**t - 1) // (q - 1):
        out.append("homology group order is not (q^t-1)/(q-1)")
    if pl.get("elations") != 0:
        out.append("elations reported")
    if pl.get("H_f_order") != (q**n - 1) * (q**t - 1) // (q - 1):
        out.append("H_f order is not (q^n-1)(q^t-1)/(q-1)")
    out += check_andre_witness(q, n, t, pl.get("andre_witness"))
    return out


def check_andre_witness(q, n, t, witness) -> list:
    """Result (iv): "pseudoregulus" exactly when t = n; for 1 < t < n a
    verified invariant subgroup of size q^t.  With t = 1 the program has no
    witness and reports the NotInS error of the plane task."""
    if t == n:
        ok = witness == "pseudoregulus"
    elif t == 1:
        ok = witness == {"error": "NotInS"}
    else:
        ok = (isinstance(witness, dict) and witness.get("verified") is True
              and witness.get("invariant_subgroup_size") == q**t and witness.get("t") == t)
    return [] if ok else [f"André witness {witness!r} does not fit t = {t}, n = {n}"]


def check_spread(q, n, spread: dict) -> list:
    """verify_spread_axioms: ok, q^n + 1 components, (q^n-1)/(q-1) translates."""
    out = []
    translates = (q**n - 1) // (q - 1)
    if spread.get("ok") is not True:
        out.append(f"spread audit failed: {spread.get('reason')}")
    if spread.get("components") != q**n + 1:
        out.append("component count is not q^n + 1")
    if spread.get("translates") != translates:
        out.append("translate count is not (q^n-1)/(q-1)")
    if spread.get("desarguesian") != q**n + 1 - translates:
        out.append("Desarguesian count is not q^n + 1 - (q^n-1)/(q-1)")
    return out


def check_kernel_audit(ok) -> list:
    """Exactly the F_q-scalar maps fix every component."""
    return [] if ok is True else ["kernel audit failed"]


def check_semilinear_audit(audit: dict) -> list:
    """No properly semilinear map fixing a component stabilizes the spread."""
    v = audit.get("violations")
    return [] if v == 0 else [f"{v} semilinear violations"]


def check_verdict(F: GF, coeffs, verdict, expected, pairwise=False) -> list:
    """The scattered verdict against gf.py's fiber count (and, on request,
    the pairwise test from the definition)."""
    out = []
    if verdict != expected:
        out.append(f"verdict {verdict}, fiber count says {expected}")
    if pairwise and verdict != F.is_scattered_pairwise(coeffs):
        out.append(f"verdict {verdict} disagrees with the pairwise test")
    return out


def check_sf_witness(F: GF, f, P, h) -> list:
    """The standard-form witness: U_f P^(-1) = U_h on an F_p-basis."""
    if mat_det(F, P) == 0:
        return ["standard-form witness P is singular"]
    if not point_maps_into(F, f, mat_inverse(F, P), h):
        return ["U_f P^-1 is not U_h"]
    return []


def check_equivalence(F: GF, g, f, equivalent, W) -> list:
    """gl_equivalent(g, f) must say yes with U_g W = U_f, checked pointwise."""
    if equivalent is not True or W is None:
        return [f"image not found equivalent to its source ({equivalent!r})"]
    if mat_det(F, W) == 0:
        return ["equivalence witness W is singular"]
    if not point_maps_into(F, g, W, f):
        return ["U_g W is not U_f"]
    return []
