"""Seeded job lists for the three benchmark workloads.

A job is one ``hartogs`` CLI config plus the output format and the facts its
checker needs.  The size of every job is fixed by its slot in the workload,
and so are the parameters that set the cost of the larger jobs.  The seed
picks the rest (the parameters of small jobs among values of one kind,
points, matrices, certificates) and the order of the jobs, so that one pass
costs about the same for every seed.

This module uses numpy and the standard library only, never ``hartogs``, so
the configs are made without the code under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# Parameters a of the family z_j + a*z_1*...*z_n, grouped by cost class.
INT_A = (1, 2, 3)
RATIONAL_A = (Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))
# Linear coefficients c_j >= 1 of the scaled tuples c_j*z_j (polydisc radii <= 1),
# for which every shifted subnormality sequence is a product of moment sequences.
SCALED_C = (Fraction(4, 3), Fraction(3, 2), Fraction(5, 3), Fraction(5, 4))


@dataclass
class Job:
    """One CLI run.  expect holds facts the generator fixed by construction,
    which the checker needs and cannot read back from the config."""

    config: dict
    fmt: str = "json"
    expect: dict = field(default_factory=dict)
    seed: int = 0  # the seed passed to cli.run


# --- polynomial tuples as config documents -------------------------------------

def rational(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def tuple_doc(polys: list[dict]) -> dict:
    n = len(polys)
    return {"n": n, "polys": [
        {"terms": [{"alpha": list(alpha), "coeff": rational(c)} for alpha, c in sorted(p.items())]}
        for p in polys]}


def _unit(n: int, j: int, power: int = 1) -> tuple:
    return tuple(power if i == j else 0 for i in range(n))


def family(n: int, a) -> dict:
    """z_j + a*z_1*...*z_n; not admissible when a > 0."""
    polys = []
    for j in range(n):
        p = {_unit(n, j): Fraction(1)}
        if a:
            p[(1,) * n] = p.get((1,) * n, 0) + Fraction(a)
        polys.append(p)
    return tuple_doc(polys)


def scaled(cs) -> dict:
    """c_j*z_j, admissible."""
    n = len(cs)
    return tuple_doc([{_unit(n, j): Fraction(c)} for j, c in enumerate(cs)])


def fibonacci(n: int, c=1) -> dict:
    """z_j + c*z_j^2, admissible; for c = 1 the axis tables are Fibonacci numbers."""
    return tuple_doc([{_unit(n, j): Fraction(1), _unit(n, j, 2): Fraction(c)} for j in range(n)])


def mixed3(rng: random.Random) -> dict:
    """A 3-variable tuple with a quadratic and a cubic mixed term."""
    c = rng.choice(RATIONAL_A)
    return tuple_doc([
        {(1, 0, 0): Fraction(1), (1, 1, 0): c},
        {(0, 1, 0): Fraction(rng.choice(INT_A)), (0, 1, 2): Fraction(1, 2)},
        {(0, 0, 1): Fraction(1), (0, 0, 2): c},
    ])


# --- points --------------------------------------------------------------------

def _complex(x: complex) -> list[float]:
    return [round(x.real, 9), round(x.imag, 9)]


def point_from_quotients(phi: list[complex]) -> list[list[float]]:
    """The point z with quotient coordinates phi: z_n = phi_n, z_j = phi_j*z_{j+1}."""
    z = [0j] * len(phi)
    tail = 1 + 0j
    for j in range(len(phi) - 1, -1, -1):
        tail *= phi[j]
        z[j] = tail
    return [_complex(c) for c in z]


def _polar(rng: random.Random, r: float) -> complex:
    return r * complex(math.cos(t := rng.uniform(0, 2 * math.pi)), math.sin(t))


def kernel_pairs(rng: random.Random, n: int, a, cutoff: int, count: int) -> list:
    """Pairs whose quotient coordinates are small enough for the basis series
    truncated at total degree cutoff to agree with the closed form to 1e-8."""
    rho = 0.25 * 10 ** (-11 / cutoff) / (1 + float(a))
    pairs = []
    for _ in range(count):
        z = point_from_quotients([_polar(rng, math.sqrt(rho) * rng.uniform(0.8, 1.0)) for _ in range(n)])
        w = point_from_quotients([_polar(rng, math.sqrt(rho) * rng.uniform(0.8, 1.0)) for _ in range(n)])
        pairs.append([z, w])
    return pairs


# --- workloads -----------------------------------------------------------------

def _family_a(rng: random.Random, kind: str):
    return rng.choice(INT_A if kind == "int" else RATIONAL_A)


def _slot_a(kind: str, i: int):
    """The parameter of slot i of a kind, for jobs large enough that the seed
    must not change their cost."""
    values = INT_A if kind == "int" else RATIONAL_A
    return values[i % len(values)]


def tables(rng: random.Random) -> list[Job]:
    """General-route tables: kernel closed-vs-series, coeffs and weights on
    non-admissible tuples, windows 12 to 60."""
    jobs = []

    def kernel(n, window, a, m, pairs=2):
        bounds = [window] * n
        jobs.append(Job({"command": "kernel", "poly_tuple": family(n, a), "m": list(m),
                         "window": bounds, "cutoff": window,
                         "pairs": kernel_pairs(rng, n, a, window, pairs)}))

    # The baseline hot spot: a 60x60 table of z_j + z_1*z_2 with m = (1, 1).
    kernel(2, 60, 1, (1, 1))
    kernel(2, 40, _slot_a("int", 1), (1, 1))
    kernel(2, 30, _slot_a("rational", 0), (2, 1))
    for i in range(2):
        kernel(2, 20, _slot_a(("int", "rational")[i], i), (1 + i, 2 + i))
    for i in range(2):
        kernel(3, 10, _slot_a(("int", "rational")[i], i), (1, 1 + i, 1))
    for i in range(4):
        a = _slot_a(("int", "rational")[i % 2], i)
        jobs.append(Job({"command": "coeffs", "poly_tuple": family(3, a), "m": [1, 1 + i % 2, 1],
                         "window": [8, 8, 8]}, fmt=("json", "csv")[i % 2]))
    for i in range(84):
        a = _family_a(rng, ("int", "rational")[i % 2])
        window = 12 + i % 2
        m = [1 + (i // 2) % 3, 1 + (i // 6) % 3]
        jobs.append(Job({"command": "coeffs", "poly_tuple": family(2, a), "m": m,
                         "window": [window, window]}, fmt=("json", "csv")[(i // 18) % 2]))
    # Twelve weights jobs of one size sit just below the seven largest jobs, so
    # that the 90th latency percentile falls among equal jobs, not in a gap.
    for i in range(12):
        jobs.append(Job({"command": "weights", "poly_tuple": family(2, _slot_a("int", i)),
                         "m": [1, 1], "window": [12, 12]}, fmt=("json", "csv")[i % 2]))
    return jobs + smallest_of_each(rng, {"kernel", "coeffs", "weights"})


def certify(rng: random.Random) -> list[Job]:
    """Subnormality certificates over shift boxes plus single-shift checks."""
    jobs = []

    def cert(m, gamma_bound, order):
        jobs.append(Job({"command": "subnormality", "m": list(m), "gamma_bound": list(gamma_bound),
                         "order": order}))

    # The baseline hot spot: m = (3,3,3), every shift up to (3,3,3), order 4.
    cert((3, 3, 3), (3, 3, 3), 4)
    cert((3, 3, 3), (2, 2, 2), 4)
    cert((2, 2), (5, 5), 6)
    for i in range(3):
        cert((3,), (4 + 2 * i,), 6)
    for m in ((2, 3), (3, 2)):
        cert(m, (1, 1), 6)
    for i in range(12):
        cert(((2, 3), (3, 2))[i % 2], (1 + i % 3, 1 + (i // 3) % 3), 4)
    for i in range(9):
        cert((3,), (2 + i % 8,), 4)

    def single(doc, m, gamma, variant=None, verdict=None):
        config = {"command": "subnormality", "poly_tuple": doc, "m": list(m), "gamma": list(gamma),
                  "window": [2, 2], "order": 4}
        if variant:
            config["variant"] = variant
        jobs.append(Job(config, expect={"verdict": verdict} if verdict else {}))

    # The single-shift checks are the middle of the latency distribution: with
    # nine one-variable certificates and the smallest jobs below them and twenty
    # larger certificates above, the median falls inside this group.
    for i in range(45):
        a = _family_a(rng, ("int", "rational")[i % 2])
        m = ((2, 3), (3, 2), (3, 3), (1, 3), (2, 2))[i % 5]
        single(family(2, a), m, (i % 4, (i // 4) % 4))
    for i in range(25):
        cs = (rng.choice(SCALED_C), rng.choice(SCALED_C))
        m = ((1, 2), (2, 3), (3, 3), (2, 1))[i % 4]
        single(scaled(cs), m, ((i // 2) % 4, (i // 8) % 4), variant=("admissible", "general")[i % 2])
    # Genuine negative verdicts: with m = (1, 1) the unshifted sequence of every
    # tuple in the family fails at the mixed first difference k = (1, 1).
    for kind in ("int", "rational"):
        single(family(2, _family_a(rng, kind)), (1, 1), (0, 0), verdict="FAIL")
    return jobs + smallest_of_each(rng, {"subnormality"})


def _admissible(rng: random.Random, i: int) -> dict:
    kind = i % 3
    if kind == 0:
        return family(2, 0)
    if kind == 1:
        return scaled((rng.choice(SCALED_C), rng.choice(SCALED_C)))
    return fibonacci(2)


def _commuting_tuple(nrng: np.random.Generator, n: int, d: int, kind: str, diagonal: bool):
    """Joint eigenvalues lam (d rows of n) and the JSON matrices of the normal
    commuting tuple T_j = Q diag(lam[:, j]) Q*, Q unitary (the identity when
    diagonal).

    kind "inside": |lambda_1| < ... < |lambda_n| < 1 in every row with gaps of
    at least 0.1; "outside": one row has its last two moduli swapped;
    "isometry": as "inside" with |lambda_n| = 1 in every row.
    """
    mods = 0.95 * (np.arange(1, n + 1) + nrng.uniform(-0.2, 0.2, size=(d, n))) / (n + 1)
    if kind == "outside":
        row = nrng.integers(d)
        mods[row, [n - 2, n - 1]] = mods[row, [n - 1, n - 2]]
    if kind == "isometry":
        mods[:, n - 1] = 1.0
    lam = mods * np.exp(1j * nrng.uniform(0, 2 * math.pi, size=(d, n)))
    if diagonal:
        q = np.eye(d)
    else:
        q, _ = np.linalg.qr(nrng.normal(size=(d, d)) + 1j * nrng.normal(size=(d, d)))
    mats = [q @ np.diag(lam[:, j]) @ q.conj().T for j in range(n)]
    return lam, [[[[float(x.real), float(x.imag)] for x in row] for row in m] for m in mats]


def _pick(rng: random.Random, k: int, variant: int, perturb: bool) -> dict:
    """A two-matrix Pick certificate for the targets t*lambda_2 (variant 0) or
    t*lambda_1 (variant 1) at k nodes lambda of the Hartogs triangle, |t| < 1.

    With x = conj(u_i) u_j the kernel (1 - |t|^2 x)/(1 - x) is positive
    semidefinite.  Variant 0 takes a1 = 0 and that kernel for u = lambda_2 as
    a2; variant 1 takes a2 = 1 and that kernel for u = lambda_1/lambda_2 as a1.
    A perturbed target breaks the certificate identity.
    """
    nodes = []
    for _ in range(k):
        r2 = rng.uniform(0.2, 0.9)
        nodes.append((_polar(rng, r2 * rng.uniform(0.1, 0.9)), _polar(rng, r2)))
    t = _polar(rng, rng.uniform(0.2, 0.9))
    u = [p[1] if variant == 0 else p[0] / p[1] for p in nodes]
    kern = [[(1 - abs(t) ** 2 * ui.conjugate() * uj) / (1 - ui.conjugate() * uj) for uj in u] for ui in u]
    zero = [[0j] * k for _ in range(k)]
    ones = [[1 + 0j] * k for _ in range(k)]
    a1, a2 = (zero, kern) if variant == 0 else (kern, ones)
    targets = [t * p[1 - variant] for p in nodes]
    if perturb:
        targets[rng.randrange(k)] += 0.05
    as_json = lambda mat: [[[x.real, x.imag] for x in row] for row in mat]
    return {"command": "pick-verify", "points": [[[p.real, p.imag] for p in node] for node in nodes],
            "targets": [[z.real, z.imag] for z in targets], "a1": as_json(a1), "a2": as_json(a2)}


# One builder per sub-command; job i of a command has a size fixed by i, and
# job 0 is the smallest.

def _dettrace(rng, nrng, i):
    K = ([48, 98, 198, 498, 998] * 2 + [998, 498])[i]
    m = [1 + i % 3, 1 + (i // 3) % 3] if i % 3 != 2 else [1, 1 + i % 2]
    return Job({"command": "dettrace", "poly_tuple": _admissible(rng, i), "m": m, "K": K})


def _radius(rng, nrng, i):
    N = ([100, 250, 500, 1000, 2000] * 2 + [2000, 1000])[i]
    doc = fibonacci(2) if i % 2 else scaled((rng.choice(SCALED_C), rng.choice(SCALED_C)))
    return Job({"command": "radius", "poly_tuple": doc, "m": [1 + i % 2, 1 + (i // 2) % 2],
                "j": 1 + i % 2, "K": (10, 20, 30)[i % 3], "N": N})


def _probes(rng, nrng, i):
    a = _family_a(rng, ("int", "rational")[i % 2])
    return Job({"command": "probes", "poly_tuple": family(2, a), "m": [1 + i % 2, 1 + (i // 2) % 2],
                "window": [3 + i % 4, 3 + i % 4], "theta_trials": 3})


def _weights(rng, nrng, i):
    w = 4 + i % 7
    return Job({"command": "weights", "poly_tuple": _admissible(rng, i),
                "m": [1 + i % 3, 1 + (i // 3) % 3], "window": [w, w]}, fmt=("json", "csv")[i % 2])


def _coeffs(rng, nrng, i):
    if i % 4 == 3:
        doc, bounds = tuple_doc([{_unit(3, j): Fraction(1)} for j in range(3)]), [6, 6, 6]
    else:
        doc, bounds = _admissible(rng, i), [8 + i, 8 + i]
    return Job({"command": "coeffs", "poly_tuple": doc, "m": [1 + (i + j) % 3 for j in range(len(bounds))],
                "window": bounds}, fmt=("json", "csv")[i % 2])


def _hereditary(rng, nrng, i):
    n, d = 2 + i % 2, 3 + i % 3
    kind = "outside" if i % 5 == 4 else "isometry" if i % 7 == 6 else "inside"
    diagonal = i % 4 == 0 and kind != "isometry"
    lam, matrices = _commuting_tuple(nrng, n, d, kind, diagonal)
    return Job({"command": "hereditary", "matrices": matrices, "mode": ("classify", "lift", "ordering")[i % 3]},
               expect={"eigenvalues": lam, "diagonal": diagonal})


def _pick_verify(rng, nrng, i):
    perturb = i % 5 == 4
    return Job(_pick(rng, 2 + i % 4, i % 2, perturb), expect={"verified": not perturb})


def _quadrature(rng, nrng, i):
    config = {"command": "quadrature", "l_max": 3 + i % 4, "k_max": 3 + (i + 1) % 4}
    if i % 2 == 0:
        config["hardy"] = {"n": 2, "alpha": [rng.randint(0, 2), rng.randint(0, 1)]}
    if i % 4 == 1:
        config["bergman"] = {"m": [2 + i % 2, 2], "alpha": [rng.randint(0, 2), rng.randint(0, 2)]}
    return Job(config)


def _validate(rng, nrng, i):
    docs = [family(2, _family_a(rng, "rational")), family(3, _family_a(rng, "int")),
            scaled((rng.choice(SCALED_C),) * 3), fibonacci(2, rng.choice(RATIONAL_A)), mixed3(rng)]
    return Job({"command": "validate", "poly_tuple": docs[i % 5]})


def _domain(rng, nrng, i):
    """Six points, about 30% of them clearly outside the triangle."""
    n = 2 + i % 2
    a = _family_a(rng, "int")
    points = []
    for _ in range(6):
        r = math.sqrt(rng.uniform(0.05, 0.6) / (1 + a))
        if rng.random() < 0.3:
            r = math.sqrt(rng.uniform(1.1, 1.5))
        points.append(point_from_quotients([_polar(rng, r * rng.uniform(0.9, 1.0)) for _ in range(n)]))
    return Job({"command": "domain", "poly_tuple": family(n, a), "points": points})


def _kernel(rng, nrng, i):
    a = _family_a(rng, "int")
    return Job({"command": "kernel", "poly_tuple": family(2, a), "m": [1, 1], "window": [8, 8],
                "cutoff": 8, "pairs": kernel_pairs(rng, 2, a, 8, 1)})


def _subnormality(rng, nrng, i):
    return Job({"command": "subnormality", "m": [3], "gamma_bound": [2], "order": 4})


BUILDERS = {
    "dettrace": _dettrace, "radius": _radius, "probes": _probes, "weights": _weights,
    "coeffs": _coeffs, "hereditary": _hereditary, "pick-verify": _pick_verify,
    "quadrature": _quadrature, "validate": _validate, "domain": _domain,
    "kernel": _kernel, "subnormality": _subnormality,
}
OPERATOR_MIX = {"dettrace": 12, "radius": 12, "probes": 12, "weights": 12, "coeffs": 12,
                "hereditary": 60, "pick-verify": 15, "quadrature": 8, "validate": 15, "domain": 15}


def smallest_of_each(rng: random.Random, skip) -> list[Job]:
    """The smallest job of every sub-command not in skip.  Every workload
    carries them so that every layer does some work, and a time in every layer
    is measured, on every workload; they add about 0.1 s to a pass."""
    nrng = np.random.default_rng(rng.getrandbits(32))
    return [build(rng, nrng, 0) for command, build in BUILDERS.items() if command not in skip]


def operators(rng: random.Random) -> list[Job]:
    """Many millisecond jobs over every other sub-command: product-route and
    deep 1-D recursions, float linear algebra, quadrature, per-job overhead."""
    nrng = np.random.default_rng(rng.getrandbits(32))
    jobs = [BUILDERS[command](rng, nrng, i) for command, count in OPERATOR_MIX.items() for i in range(count)]
    return jobs + smallest_of_each(rng, OPERATOR_MIX)


WORKLOADS = {"tables": tables, "certify": certify, "operators": operators}


def generate(workload: str, seed: int) -> list[Job]:
    """The job list of a workload: the same seed gives the same jobs in the same order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job.seed = seed * 1000 + i
    return jobs
