"""Acceptance suite: the closed-form claims reproduced at desk scale.

Each criterion is an independent callable returning (passed, details); the
CLI selftest subcommand drives this list, printing one line per criterion,
and the corpus's `selftest` record pins those lines.  Time limits are
asserted where the criteria state them, on the monotonic perf_counter clock.
"""

from __future__ import annotations

import random
import time

from . import families as fam
from . import mrd, plane
from .field_tower import make_field
from .linearized import LinearizedPoly
from .scatter import is_scattered, is_scattered_naive
from .stabilizer import Mat2, compute_stabilizer, conjugates_to_diagonal
from .standard_form import canonicalize, to_standard_form

_TOWERS: dict = {}


def tower(p, e, n):
    key = (p, e, n)
    if key not in _TOWERS:
        _TOWERS[key] = make_field(p, e, n)
    return _TOWERS[key]


class CriterionResult:
    __slots__ = ("number", "name", "passed", "elapsed", "details")

    def __init__(self, number: int, name: str, passed: bool, elapsed: float, details: str = ""):
        self.number = number
        self.name = name
        self.passed = passed
        self.elapsed = elapsed
        self.details = details

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.number:2d} ({self.elapsed:6.1f}s) {self.name}" + \
            (f" :: {self.details}" if self.details and not self.passed else "")


def _check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def criterion_1():
    """Pseudoregulus stabilizers at (5,4), s in {1,3}: the predicted field, order 624, < 5 s."""
    T = tower(5, 1, 4)
    t0 = time.perf_counter()
    for s in (1, 3):
        inst = fam.make_pseudoregulus(T, s)
        Mf = compute_stabilizer(inst.poly)
        _check(Mf.group_order == 624, f"order {Mf.group_order} != 624")
        _check(inst.matches(Mf), f"prediction fails at s={s}")
    elapsed = time.perf_counter() - t0
    _check(elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s")
    return "orders 624, G_f = {diag(alpha, alpha^(q^s))} by the basis certificate"


def criterion_2():
    """Lunardon-Polverino dichotomy: 24 over F_25 at n=4; 4 (scalars) at n=5; < 10 s."""
    t0 = time.perf_counter()
    T4 = tower(5, 1, 4)
    lp4 = fam.make_lp(T4, 1, fam.find_lp_delta(T4))
    Mf4 = compute_stabilizer(lp4.poly)
    _check(Mf4.group_order == 24, f"even-n order {Mf4.group_order}")
    _check(lp4.matches(Mf4), "even-n prediction fails")
    T5 = tower(5, 1, 5)
    lp5 = fam.make_lp(T5, 1, fam.find_lp_delta(T5))
    Mf5 = compute_stabilizer(lp5.poly)
    _check(Mf5.group_order == 4, f"odd-n order {Mf5.group_order}")
    _check(lp5.matches(Mf5), "odd-n prediction fails")
    elapsed = time.perf_counter() - t0
    _check(elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s")
    return "|G| = 24 diagonal over F_25 (n=4) and 4 scalar (n=5), as predicted"


def criterion_3():
    """Four-term family at (5,6), t=3, s=1: the closed stabilizer, order 24; < 30 s."""
    t0 = time.perf_counter()
    T = tower(5, 1, 6)
    h = fam.find_psi_h(T, 3)
    inst = fam.make_psi(T, h, 3, 1)
    Mf = compute_stabilizer(inst.poly)
    _check(Mf.group_order == 24, f"order {Mf.group_order}")
    theta = fam.psi_theta(T, h, 3, 1)
    _check(theta == T.add_code(T.frob_code(h, 1), T.frob_code(h, 2)),
           "theta mismatch")
    _check(inst.matches(Mf), "stabilizer prediction fails")
    # specialization h in F_{q^3}: theta^2 = -4 turns (alpha, xi theta; xi/theta,
    # alpha) into the displayed (alpha, -4 eta; eta, alpha) with eta = xi/theta
    rho = min(T.solve_quadratic(0, 1), key=T.element_key)  # rho^2 = -1
    inst_r = fam.make_psi(T, rho, 3, 1)
    theta_r = fam.psi_theta(T, rho, 3, 1)
    _check(T.mul_code(theta_r, theta_r) == T.neg_code(4), "theta_rho^2 != -4")
    _check(inst_r.matches(compute_stabilizer(inst_r.poly)), "subfield specialization fails")
    elapsed = time.perf_counter() - t0
    _check(elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s")
    return "order 24; closed-form stabilizer and the (alpha, -4 eta; eta, alpha) case match"


def criterion_4():
    """P = (1 theta; 1 -theta) conjugates the stabilizer to diag(a, a^q) over F_25."""
    T = tower(5, 1, 6)
    h = fam.find_psi_h(T, 3)
    psi = fam.make_psi(T, h, 3, 1).poly
    theta = fam.psi_theta(T, h, 3, 1)
    P = Mat2(T, 1, theta, 1, T.neg_code(theta))
    _check(conjugates_to_diagonal(compute_stabilizer(psi), P, 1, 2),
           "P G_f P^-1 differs from diag(a, a^q) over F_25")
    return "exact equality with the diagonal model of F_25"


def criterion_5():
    """Closed standard forms: trinomial for 3 h values at (5,6); series at q=13."""
    T = tower(5, 1, 6)
    for idx in range(3):
        h = fam.find_psi_h(T, 3, index=idx)
        psi = fam.make_psi(T, h, 3, 1).poly
        sf = to_standard_form(psi)
        tri = fam.psi_standard_form_closed(T, h, 3, 1, formula="trinomial")
        _check(sf.h == canonicalize(tri), f"trinomial mismatch at h index {idx}")
    T13 = tower(13, 1, 6)
    rho = min(T13.solve_quadratic(0, 1), key=T13.element_key)
    psi = fam.make_psi(T13, rho, 3, 1).poly
    sf = to_standard_form(psi)
    ser = fam.psi_standard_form_closed(T13, rho, 3, 1, formula="series")
    _check(sf.h == canonicalize(ser), "series formula mismatch at q = 13")
    return "trinomial (3 values of h, q=5) and series (q=13, h=rho) both match"


def criterion_6():
    """Catalog-wide standard-form consequences: t_h = t, diagonal G_h of the exact shape."""
    for (p, e, n) in ((5, 1, 4), (5, 1, 5), (5, 1, 6)):
        T = tower(p, e, n)
        for inst in fam.catalog(T):
            Mf = compute_stabilizer(inst.poly)
            if Mf.t == 1:
                continue
            sf = to_standard_form(inst.poly)   # includes the G_h shape assertions
            _check(sf.h.standard_form_params()[1] == sf.t, "t_h != t")
            _check(sf.t == Mf.t, "standard-form degree differs from stabilizer degree")
            _check(conjugates_to_diagonal(compute_stabilizer(sf.h), Mat2.identity(T),
                                          sf.s, sf.t), "G_h shape mismatch")
    return "every catalog instance with t > 1 passes the equivalence consequences"


def criterion_7():
    """MRD checks at (3,4) and (5,4): minimum distance n-1, idealizer = stabilizer order."""
    for (p, e, n) in ((3, 1, 4), (5, 1, 4)):
        T = tower(p, e, n)
        t0 = time.perf_counter()
        for inst in fam.catalog(T):
            d = mrd.min_distance(inst.poly)
            _check(d == n - 1, f"min distance {d} != {n-1} for family {inst.family_id}")
            Mf = compute_stabilizer(inst.poly)
            _check(T.p ** len(mrd.right_idealizer(inst.poly)) == Mf.order,
                   "idealizer/stabilizer order mismatch")
        elapsed = time.perf_counter() - t0
        _check(elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s at ({p},{n})")
    return "min distance n-1 and |I_R| = |G| on all catalog instances"


def criterion_8():
    """Plane structure at (5,6) for the four-term family and at (5,5) for LP; < 60 s."""
    t0 = time.perf_counter()
    T = tower(5, 1, 6)
    h = fam.find_psi_h(T, 3)
    psi = fam.make_psi(T, h, 3, 1).poly
    hr = plane.classify_central_collineations(psi)
    theta = fam.psi_theta(T, h, 3, 1)
    _check(hr.case == "ii", "expected case ii")
    _check({hr.X, hr.Y} == {(1, theta), (1, T.neg_code(theta))}, "centers differ")
    _check(hr.group_order == 6, "homology groups not of order 6")
    _check(hr.H_f_order == 15624 * 24 // 4, "collineation order mismatch")
    T5 = tower(5, 1, 5)
    lp5 = fam.make_lp(T5, 1, fam.find_lp_delta(T5)).poly
    hr5 = plane.classify_central_collineations(lp5)
    _check(hr5.case == "i" and hr5.X is None, "expected no central collineations")
    _check(hr5.H_f_order == 5**5 - 1, "case-i group order")
    elapsed = time.perf_counter() - t0
    _check(elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s")
    return "two cyclic homology groups of order 6 at (5,6); none at (5,5)"


def criterion_9():
    """Andre exclusion: verified invariant subgroups; pseudoregulus marker."""
    T = tower(5, 1, 6)
    psi = fam.make_psi(T, fam.find_psi_h(T, 3), 3, 1).poly
    w = plane.reducibility_witness(psi)
    _check(isinstance(w, plane.ReducibilityWitness), "no witness for psi")
    _check(w.to_json(T)["invariant_subgroup_size"] == 25, "psi witness subgroup size")
    T4 = tower(5, 1, 4)
    lp = fam.make_lp(T4, 1, fam.find_lp_delta(T4)).poly
    w4 = plane.reducibility_witness(lp)
    _check(isinstance(w4, plane.ReducibilityWitness) and w4.t == 2,
           "no witness for LP")
    mark = plane.reducibility_witness(LinearizedPoly.monomial(T4, 1))
    _check(isinstance(mark, plane.PseudoregulusCase), "pseudoregulus marker missing")
    return "invariant subgroups verified; pseudoregulus correctly refused"


def criterion_10():
    """Oracle cross-validation: scatteredness by the projective scan, and min distance."""
    rng = random.Random(33)
    for key in ((3, 1, 3), (3, 1, 4)):
        T = tower(*key)
        for _ in range(50):
            f = LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)])
            _check(is_scattered(f) == is_scattered_naive(f),
                   f"({T.p},{T.n}) disagreement on {f.coeffs}")
    T24 = tower(2, 1, 4)
    for coeffs in [(0, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 1), (0, 0, 1, 0), (1, 1, 1, 1)]:
        f = LinearizedPoly(T24, list(coeffs))
        _check(mrd.min_distance(f) == mrd.min_distance_naive(f),
               f"(2,4) min-distance disagreement on {coeffs}")
    return "100 scatteredness agreements, full-enumeration distance agreement"


def criterion_11():
    """Property suites: algebra axioms and q^t stabilizer orders on random scattered inputs."""
    violations = []
    for (p, e, n) in ((3, 1, 4), (5, 1, 4)):
        T = tower(p, e, n)
        rng = random.Random(1000 * p + n)
        M = T.mult_order
        for _ in range(60):
            a, b, c = (rng.randrange(T.size) for _ in range(3))
            if T.mul_code(a, T.add_code(b, c)) != T.add_code(T.mul_code(a, b), T.mul_code(a, c)):
                violations.append("distributivity")
            if T.frob_code(T.add_code(a, b), 1) != T.add_code(T.frob_code(a, 1), T.frob_code(b, 1)):
                violations.append("Frobenius additivity")
            if T.frob_code(a, T.n) != a:
                violations.append("Frobenius order")
            if a and b:
                for t in range(1, T.n + 1):
                    if T.n % t == 0:
                        lhs = T.rel_norm_code(T.mul_code(a, b), t)
                        rhs = T.mul_code(T.rel_norm_code(a, t), T.rel_norm_code(b, t))
                        if lhs != rhs:
                            violations.append("norm multiplicativity")
        for _ in range(10):
            f = LinearizedPoly(T, [rng.randrange(T.size) for _ in range(n)])
            g = LinearizedPoly(T, [rng.randrange(T.size) for _ in range(n)])
            h = LinearizedPoly(T, [rng.randrange(T.size) for _ in range(n)])
            if f.compose(g).compose(h) != f.compose(g.compose(h)):
                violations.append("compose associativity")
            if f.rank() == n:
                fi = f.invert()
                if f.compose(fi) != LinearizedPoly.identity(T) or fi.compose(f) != LinearizedPoly.identity(T):
                    violations.append("invert round trip")
        found = 0
        attempts = 0
        while found < 20 and attempts < 4000:
            attempts += 1
            f = LinearizedPoly(T, [rng.randrange(T.size) for _ in range(n)])
            if not is_scattered(f):
                continue
            found += 1
            Mf = compute_stabilizer(f)
            if Mf.t is None or T.n % Mf.t or Mf.order != T.q**Mf.t:
                violations.append(f"stabilizer order not q^t at ({p},{n})")
        if found < 20:
            violations.append(f"search found only {found} scattered polynomials at ({p},{n})")
    sp = plane.build_spread(LinearizedPoly.monomial(tower(5, 1, 4), 1))
    count = sp.desarguesian_count() + sp.h_class_count
    if count != sp.component_count:
        violations.append(f"spread component count {count}")
    _check(not violations, "; ".join(sorted(set(violations))))
    return "zero violations across field, polynomial, stabilizer and spread properties"


CRITERIA = [
    (1, "pseudoregulus stabilizer table", criterion_1),
    (2, "Lunardon-Polverino dichotomy", criterion_2),
    (3, "four-term family stabilizer", criterion_3),
    (4, "explicit diagonalization identity", criterion_4),
    (5, "closed standard forms", criterion_5),
    (6, "standard-form theorem consequences", criterion_6),
    (7, "MRD distance and idealizers", criterion_7),
    (8, "plane homology structure", criterion_8),
    (9, "generalized-Andre exclusion witness", criterion_9),
    (10, "oracle cross-validation", criterion_10),
    (11, "property suites", criterion_11),
]

QUICK_SET = {1, 2, 3, 4, 7, 9, 10}


def run_criterion(number, name, fn) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        details = fn() or ""
        return CriterionResult(number, name, True, time.perf_counter() - t0, details)
    except Exception as exc:  # report, never raise: the caller aggregates
        return CriterionResult(number, name, False, time.perf_counter() - t0, str(exc))


def run_all(quick=False):
    results = []
    for number, name, fn in CRITERIA:
        if quick and number not in QUICK_SET:
            continue
        results.append(run_criterion(number, name, fn))
    return results
