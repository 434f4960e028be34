"""Seeded inputs of the four workloads.

Everything here is integer arithmetic on discrete logs or the benchmark's own
field code (gf.py); nothing imports the program.  Coefficients are written
in the program's input syntax: "0", "1", "g^k" (a power of the tower's
generator) or, for random polynomials, packed base-p codes.  The same
workload name and seed always give the same inputs.
"""

from __future__ import annotations

import math
import random

from gf import GF, first_irreducible

ANALYZE_TASKS = "scatter,stabilizer,standard-form,mrd,plane"
# LP at (5,5) has |G_f| = q - 1, for which the standard-form task cannot run
# (it raises NotInS and analyze prints no report), so it runs without it.
ANALYZE_TASKS_NO_SF = "scatter,stabilizer,mrd,plane"

# (q, n, scattered wanted, non-scattered wanted): 20 per field, split by the
# share of scattered polynomials among uniform draws (9000 draws per field,
# classified by gf.py): 13.5 % at (3,4), 28.2 % at (5,4), 0.14 % at (3,5) and
# 34.9 % at (7,4).  Fixed counts keep the cost of a round the same for every
# seed.
SWEEP_RANDOM = [
    (3, 4, 3, 17),
    (5, 4, 6, 14),
    (3, 5, 0, 20),
    (7, 4, 7, 13),
]
SWEEP_IMAGE_FIELDS = [(5, 4), (7, 4), (5, 6)]


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"scattered-lab-bench:{workload}:{seed}")


def _coprime(n: int) -> list[int]:
    return [s for s in range(1, n) if math.gcd(s, n) == 1]


def _gk(k: int, M: int) -> str:
    return f"g^{k % M}"


def pseudoregulus(q: int, n: int, s: int) -> dict:
    """x^(q^s), gcd(s, n) = 1."""
    coeffs = ["0"] * n
    coeffs[s] = "1"
    return {"family": "pseudoregulus", "q": q, "n": n, "s": s, "coeffs": coeffs}


def lp(q: int, n: int, s: int, k: int) -> dict:
    """Lunardon-Polverino x^(q^s) + delta x^(q^(n-s)) with delta = g^k.

    N(delta) = g^(k (q^n-1)/(q-1)) is 1 exactly when q - 1 divides k, so any
    k not divisible by q - 1 gives N(delta) outside {0, 1}."""
    M = q**n - 1
    if k % (q - 1) == 0:
        raise ValueError("delta must have norm different from 1")
    coeffs = ["0"] * n
    coeffs[s] = "1"
    coeffs[n - s] = _gk(k, M)
    return {"family": "lp", "q": q, "n": n, "s": s, "coeffs": coeffs}


def psi(q: int, t: int, s: int, j: int) -> dict:
    """The four-term family on F_(q^2t), h = g^j with N_(q^2t/q^t)(h) = -1:
    x^(q^s) + x^(q^(s(t-1))) + h^(1+q^s) x^(q^(s(t+1))) + h^(1-q^(s(2t-1))) x^(q^(s(2t-1)))."""
    n = 2 * t
    M = q**n - 1
    if (j * (q**t + 1) - M // 2) % M:
        raise ValueError("h must have norm -1 over F_(q^t)")
    terms = [(s, 0), (s * (t - 1), 0), (s * (t + 1), j * (1 + q**s)),
             (s * (2 * t - 1), j * (1 - q ** (s * (2 * t - 1))))]
    coeffs = ["0"] * n
    for e, logc in terms:
        if coeffs[e % n] != "0":
            raise ValueError("exponents collide")
        coeffs[e % n] = _gk(logc, M)
    return {"family": "psi", "q": q, "n": n, "s": s, "coeffs": coeffs}


def psi_h_log(q: int, t: int, index: int) -> int:
    """Log of the index-th h with h^(q^t+1) = -1: j = (q^t-1)/2 + index (q^t-1)."""
    return (q**t - 1) // 2 + index * (q**t - 1)


def _draw_lp(rng: random.Random, q: int, n: int) -> dict:
    while True:
        k = rng.randrange(1, q**n - 1)
        if k % (q - 1):
            return lp(q, n, rng.choice(_coprime(n)), k)


def _draw_pseudoregulus(rng: random.Random, q: int, n: int) -> dict:
    return pseudoregulus(q, n, rng.choice(_coprime(n)))


def _draw_psi(rng: random.Random, q: int) -> dict:
    """psi with t = 3 and h the i-th element of norm -1, i in [0, q^3]."""
    return psi(q, 3, rng.choice(_coprime(6)), psi_h_log(q, 3, rng.randrange(q**3 + 1)))


def report_inputs(seed: int) -> list[dict]:
    rng = rng_for("report", seed)
    out = [
        _draw_psi(rng, 5),
        _draw_pseudoregulus(rng, 5, 5),
        _draw_pseudoregulus(rng, 5, 4),
        _draw_pseudoregulus(rng, 7, 4),
        _draw_lp(rng, 5, 4),
        _draw_lp(rng, 7, 4),
        _draw_lp(rng, 5, 5),
    ]
    for inp in out:
        inp["tasks"] = ANALYZE_TASKS_NO_SF if (inp["family"], inp["q"], inp["n"]) == (
            "lp", 5, 5) else ANALYZE_TASKS
    return out


def field_spec(q: int, n: int) -> dict:
    return {"p": q, "n": n, "modulus": list(first_irreducible(q, n))}


def sweep_inputs(seed: int) -> dict:
    """Random polynomials with a fixed number of scattered ones per field, the
    nearest to the share that uniform draws give (classified by gf.py),
    plus the seed that draws the matrices W for the catalog images."""
    rng = rng_for("sweep", seed)
    randoms = []
    for q, n, want_s, want_u in SWEEP_RANDOM:
        F = GF(q, n, first_irreducible(q, n))
        got = {True: [], False: []}
        seen = set()
        while len(got[True]) < want_s or len(got[False]) < want_u:
            coeffs = tuple(rng.randrange(F.size) for _ in range(n))
            if not any(coeffs) or coeffs in seen:
                continue
            seen.add(coeffs)
            verdict = F.is_scattered(coeffs)
            if len(got[verdict]) < (want_s if verdict else want_u):
                got[verdict].append(coeffs)
        for verdict in (False, True):
            randoms += [{"q": q, "n": n, "coeffs": list(c), "scattered": verdict}
                        for c in got[verdict]]
    fields = sorted({(q, n) for q, n, *_ in SWEEP_RANDOM} | set(SWEEP_IMAGE_FIELDS))
    return {"fields": [field_spec(q, n) for q, n in fields], "random": randoms,
            "image_fields": [list(f) for f in SWEEP_IMAGE_FIELDS],
            "w_seed": rng.randrange(1 << 32)}


def bigfield_inputs(seed: int) -> dict:
    """psi (13,6) with h = rho, rho^2 = -1 (h = g^(M/4) or g^(3M/4)); LP (7,8);
    psi (11,6) with h from the norm -1 class."""
    rng = rng_for("bigfield", seed)
    M13 = 13**6 - 1
    polys = [
        psi(13, 3, rng.choice(_coprime(6)), rng.choice([M13 // 4, 3 * M13 // 4])),
        _draw_lp(rng, 7, 8),
        _draw_psi(rng, 11),
    ]
    return {"fields": [field_spec(p["q"], p["n"]) for p in polys], "polys": polys}


def audit_inputs(seed: int) -> dict:
    rng = rng_for("audit", seed)
    polys = [
        _draw_lp(rng, 5, 4),
        _draw_pseudoregulus(rng, 5, 4),
        _draw_psi(rng, 5),
        _draw_lp(rng, 5, 5),
        _draw_lp(rng, 7, 4),
    ]
    fields = sorted({(p["q"], p["n"]) for p in polys})
    return {"fields": [field_spec(q, n) for q, n in fields], "polys": polys,
            "semilinear_seed": rng.randrange(1 << 16)}


MAKERS = {"report": report_inputs, "sweep": sweep_inputs,
          "bigfield": bigfield_inputs, "audit": audit_inputs}
