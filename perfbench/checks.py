"""Independent checks of every job's report, run off the clock.

Each check recomputes what a report claims by a route other than the one
the CLI took, and returns the exit code the job should have given:

* general-route tables against the truncated-series oracle
  (``reciprocal_power_coeffs(..., mode="oracle")``) convolved here, on a
  small sub-box (a cell depends only on cells below it);
* product-route tables against ``hartogs_coeff_closed`` for the Hartogs
  tuple, else against axis series inverted here from (1 - p)^m;
* kernel series against the closed form, within 1e-8 relative;
* subnormality verdicts, witnesses and counts against a naive signed
  difference scan; certificates of the Hartogs tuple must pass;
* determinant traces against a1(K)*a2(K)^2 from the inverted axis series;
* hereditary and Pick reports against the eigenvalues and certificates
  the generator built.

A wrong report raises Mismatch.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction

from hartogs.coeff import hartogs_coeff_closed, reciprocal_power_coeffs

TOL_KERNEL = 1e-8
TOL_FLOAT = 1e-9
TOL_MATRIX = 1e-10  # the CLI's default tolerance for hereditary and Pick verdicts


class Mismatch(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def close(x: float, y: float, rel: float, what: str) -> None:
    expect(abs(x - y) <= rel * max(1.0, abs(y)), f"{what}: {x!r} != {y!r}")


def box(bounds):
    return itertools.product(*(range(b + 1) for b in bounds))


# --- tuples and coefficient tables, computed here -----------------------------

def poly_terms(doc: dict) -> list[dict]:
    polys = []
    for poly in doc["polys"]:
        terms = {}
        for term in poly["terms"]:
            alpha = tuple(term["alpha"])
            terms[alpha] = terms.get(alpha, 0) + Fraction(str(term["coeff"]))
        polys.append({a: c for a, c in terms.items() if c})
    return polys


def _pure(alpha, j) -> bool:
    return all(e == 0 for i, e in enumerate(alpha) if i != j)


def axis_poly(polys, j) -> dict[int, Fraction]:
    return {alpha[j]: c for alpha, c in polys[j].items() if _pure(alpha, j)}


def is_admissible(polys) -> bool:
    return all(_pure(alpha, j) for j, p in enumerate(polys) for alpha in p)


def inverse_power_series(p: dict[int, Fraction], m: int, kmax: int) -> list[Fraction]:
    """Coefficients of (1 - p(t))^(-m) up to degree kmax, by inverting the
    polynomial (1 - p)^m term by term."""
    denom = [Fraction(1)]
    for _ in range(m):
        nxt = [Fraction(0)] * (len(denom) + max(p))
        for i, d in enumerate(denom):
            nxt[i] += d
            for e, c in p.items():
                nxt[i + e] -= d * c
        denom = nxt
    out = [Fraction(1)]
    for k in range(1, kmax + 1):
        out.append(-sum(denom[i] * out[k - i] for i in range(1, min(k, len(denom) - 1) + 1)))
    return out


def product_table(polys, m, bounds) -> dict:
    axes = [inverse_power_series(axis_poly(polys, j), m[j], bounds[j]) for j in range(len(bounds))]
    return {alpha: math.prod((axes[j][a] for j, a in enumerate(alpha)), start=Fraction(1))
            for alpha in box(bounds)}


def oracle_table(polys, m, bounds) -> dict:
    """Product of the oracle tables of 1/(1-P_j)^{m_j}, convolved on the box."""
    out = {(0,) * len(bounds): Fraction(1)}
    for q, mj in zip(polys, m):
        table = reciprocal_power_coeffs(q, mj, tuple(bounds), mode="oracle")
        factor = {alpha: table.value(alpha) for alpha in box(bounds) if table.value(alpha)}
        acc: dict = {}
        for ga, va in out.items():
            for gb, vb in factor.items():
                mono = tuple(x + y for x, y in zip(ga, gb))
                if all(x <= b for x, b in zip(mono, bounds)):
                    acc[mono] = acc.get(mono, 0) + va * vb
        out = acc
    return {alpha: out.get(alpha, Fraction(0)) for alpha in box(bounds)}


def reference_table(polys, m, bounds) -> dict:
    if all(p == {tuple(int(i == j) for i in range(len(polys))): 1} for j, p in enumerate(polys)):
        return {alpha: hartogs_coeff_closed(m, alpha) for alpha in box(bounds)}
    if is_admissible(polys):
        return product_table(polys, m, bounds)
    return oracle_table(polys, m, bounds)


def sub_box(bounds, admissible: bool) -> tuple:
    """The whole box for product-route tables; a small corner for the oracle."""
    if admissible:
        return tuple(bounds)
    return tuple(min(b, 6 if len(bounds) == 2 else 3) for b in bounds)


def check_radii(polys, radii) -> None:
    for j, r in enumerate(radii):
        value = sum(float(c) * r ** (2 * e) for e, c in axis_poly(polys, j).items())
        close(value, 1.0, TOL_FLOAT, f"axis restriction {j + 1} at the polydisc radius")


# --- report parsing ------------------------------------------------------------

def csv_rows(rendered: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(rendered)))
    return rows[0], rows[1:]


def coeff_entries(job, rendered: str) -> dict:
    if job.fmt == "csv":
        header, rows = csv_rows(rendered)
        n = len(header) - 1
        return {tuple(int(x) for x in row[:n]): Fraction(row[n]) for row in rows}
    return {tuple(e["alpha"]): Fraction(e["value"]) for e in json.loads(rendered)["entries"]}


def weight_entries(job, rendered: str) -> dict:
    if job.fmt == "csv":
        header, rows = csv_rows(rendered)
        n = len(header) - 4
        return {(tuple(int(x) for x in row[:n]), int(row[n])):
                (float(row[n + 1]), float(row[n + 2]), Fraction(row[n + 3])) for row in rows}
    return {(tuple(e["alpha"]), e["j"]): (e["omega"], e["sigma"], Fraction(e["hypo_diag"]))
            for e in json.loads(rendered)["weights"]}


# --- per-command checks --------------------------------------------------------

def check_validate(job, report) -> int:
    polys = poly_terms(job.config["poly_tuple"])
    n = len(polys)
    expect(report["valid"] and report["n"] == n, "tuple not reported valid")
    expect(report["admissible"] == is_admissible(polys), "admissibility")
    mixed = [sum(alpha) for j, p in enumerate(polys) for alpha in p if not _pure(alpha, j)]
    expect(report["admissibility_degree"] == (min(mixed) - 1 if mixed else "all"), "admissibility degree")
    linear = [Fraction(c) for c in report["linear_coefficients"]]
    expect(linear == [polys[j][tuple(int(i == j) for i in range(n))] for j in range(n)],
           "linear coefficients")
    check_radii(polys, report["polydisc_radii"])
    return 0


def check_coeffs(job, rendered) -> int:
    config = job.config
    polys = poly_terms(config["poly_tuple"])
    bounds = tuple(config["window"])
    entries = coeff_entries(job, rendered)
    expect(sorted(entries) == list(box(bounds)), "table cells do not cover the window")
    ref = reference_table(polys, config["m"], sub_box(bounds, is_admissible(polys)))
    for alpha, value in ref.items():
        expect(entries[alpha] == value, f"coefficient at {alpha}: {entries[alpha]} != {value}")
    return 0


def check_kernel(job, report) -> int:
    pairs = report["pairs"]
    expect(len(pairs) == len(job.config["pairs"]), "pair count")
    for row in pairs:
        closed, series = complex(*row["closed"]), complex(*row["series"])
        expect(abs(series - closed) <= TOL_KERNEL * abs(closed),
               f"kernel series {series} differs from closed form {closed}")
        close(row["abs_err"], abs(closed - series), TOL_FLOAT, "abs_err")
    return 0


def check_weights(job, rendered) -> int:
    config = job.config
    polys = poly_terms(config["poly_tuple"])
    n = len(polys)
    bounds = tuple(config["window"])
    entries = weight_entries(job, rendered)
    expect(sorted(entries) == sorted((alpha, j) for alpha in box(bounds) for j in range(1, n + 1)),
           "weight rows do not cover the window")
    admissible = is_admissible(polys)
    reach = sub_box(tuple(b + 1 for b in bounds), admissible)
    table = reference_table(polys, config["m"], reach)
    for (alpha, j), (omega, sigma, hypo) in entries.items():
        tail = tuple(int(i >= j - 1) for i in range(n))
        up = tuple(a + t for a, t in zip(alpha, tail))
        step = tuple(a + int(i == j - 1) for i, a in enumerate(alpha))
        if not all(x <= r for x, r in zip(up, reach)):
            continue
        down = tuple(a - t for a, t in zip(alpha, tail))
        below = table[down] / table[alpha] if min(down) >= 0 else 0
        expect(hypo == table[alpha] / table[up] - below, f"hyponormality diagonal at {alpha}, j={j}")
        close(omega, math.sqrt(table[alpha] / table[up]), 1e-12, f"omega at {alpha}, j={j}")
        close(sigma, math.sqrt(table[alpha] / table[step]), 1e-12, f"sigma at {alpha}, j={j}")
    return 0


def check_probes(job, report) -> int:
    bounds = job.config["window"]
    n = len(bounds)
    cells = sum(math.prod(b + 1 - int(i >= j) for i, b in enumerate(bounds)) for j in range(n))
    expect(report["factorization_exact"], "shift factorization not exact")
    expect(report["noncommuting_witness"] is not None, "no noncommuting witness")
    expect(report["polydisc_all_zero"], "polydisc commutators not zero")
    expect(report["cells_checked"] == cells, f"cells_checked {report['cells_checked']} != {cells}")
    expect(report["circularity_trials"] == job.config["theta_trials"], "circularity trials")
    expect(report["circularity_max_deviation"] <= 1e-12, "circularity deviation")
    expect(report["verdict"] is True, "probe verdict")
    return 0


def check_dettrace(job, report) -> int:
    config = job.config
    polys = poly_terms(config["poly_tuple"])
    K = config["K"]
    ratios = []
    for j in range(2):
        axis = inverse_power_series(axis_poly(polys, j), config["m"][j], K + 1)
        ratios.append([axis[k] / axis[k + 1] for k in range(K + 1)])
    a1, a2 = ratios
    partial = a1[K] * a2[K] ** 2
    expect(Fraction(report["partial_trace"]) == partial, "partial trace != a1(K)*a2(K)^2")
    close(report["partial_trace_float"], float(partial), 1e-15, "partial trace float")
    close(report["limit_trace"], float(a1[K]) * float(a2[K]) ** 2, 1e-12, "limit trace")
    increasing = [all(a[k + 1] >= a[k] for k in range(K)) for a in ratios]
    expect(report["increasing"] == increasing and report["positive"] == all(increasing), "monotonicity")
    for entry in report["diagonal"]:
        i, j = entry["alpha"]
        d1 = a1[i] - (a1[i - 1] if i else 0)
        d2 = a2[j] ** 2 - (a2[j - 1] ** 2 if j else 0)
        expect(Fraction(entry["value"]) == d1 * d2, f"determinant diagonal at {(i, j)}")
    expect(len(report["diagonal"]) == (min(K, 6) + 1) ** 2, "diagonal size")
    return 0


def check_radius(job, report) -> int:
    config = job.config
    polys = poly_terms(config["poly_tuple"])
    j, K, N = config["j"] - 1, config["K"], config["N"]
    axis = inverse_power_series(axis_poly(polys, j), config["m"][j], K + N)
    logs = [math.log(v.numerator) - math.log(v.denominator) for v in axis]
    tail = [math.exp(max(logs[k] - logs[k + nn] for k in range(K + 1)) / (2 * nn))
            for nn in range(max(1, N - 9), N + 1)]
    expect(len(report["approximants_tail"]) == len(tail), "approximant count")
    for got, want in zip(report["approximants_tail"], tail):
        close(got, want, 1e-12, "spectral-radius approximant")
    close(report["estimate"], tail[-1], 1e-12, "estimate")
    linear = polys[j][tuple(int(i == j) for i in range(len(polys)))]
    close(report["norm_bound"], 1 / math.sqrt(linear), 1e-12, "norm bound")
    check_radii(polys, report["polydisc_radii"])
    return 0


def _first_negative_difference(values, n, window, order):
    """Lexicographically first (beta, k) with a negative signed difference, and
    the number of (k, beta) pairs scanned."""
    ks = sorted(k for k in box((order,) * n) if 1 <= sum(k) <= order)
    checked = 0
    for k in ks:
        for beta in box(window):
            diff = Fraction(0)
            for i in box(k):
                weight = math.prod(math.comb(kj, ij) for kj, ij in zip(k, i))
                diff += (-1) ** sum(i) * weight * values[tuple(b + x for b, x in zip(beta, i))]
            checked += 1
            if diff < 0:
                return (beta, k), checked
    return None, checked


def check_subnormality(job, report) -> int:
    config = job.config
    order = config.get("order", 4)
    if "poly_tuple" not in config:
        m = config["m"]
        gammas = math.prod(g + 1 for g in config["gamma_bound"])
        expect(report["verdict"] == "PASS" and report["witnesses"] == [],
               "Hartogs-tuple certificate failed")
        expect(report["gammas_checked"] == gammas and report["order"] == order
               and report["window"] == [2] * len(m), "certificate shape")
        return 0
    polys = poly_terms(config["poly_tuple"])
    n = len(polys)
    gamma, window = tuple(config["gamma"]), tuple(config.get("window", (2,) * n))
    scale = Fraction(str(config.get("scale", 1)))
    reach = tuple(w + order for w in window)
    bounds = tuple(gamma[j] + sum(reach[: j + 1]) for j in range(n))
    table = (product_table if is_admissible(polys) else oracle_table)(polys, config["m"], bounds)
    values = {}
    for beta in box(reach):
        shift = itertools.accumulate(beta)
        values[beta] = 1 / table[tuple(g + s for g, s in zip(gamma, shift))] / scale ** sum(beta)
    witness, checked = _first_negative_difference(values, n, window, order)
    verdict = "PASS" if witness is None else "FAIL"
    expect(report["verdict"] == verdict, f"verdict {report['verdict']} != {verdict}")
    expect(verdict == job.expect.get("verdict", verdict), f"expected a {job.expect.get('verdict')}")
    expect(report["checked"] == checked, f"checked {report['checked']} != {checked}")
    witnesses = [] if witness is None else [
        {"gamma": list(gamma), "beta": list(witness[0]), "k": list(witness[1])}]
    expect(report["witnesses"] == witnesses, f"witness {report['witnesses']} != {witnesses}")
    return 0 if witness is None else 1


def check_hereditary(job, report) -> int:
    lam = [list(row) for row in job.expect["eigenvalues"]]
    n = len(lam[0])
    mode = job.config["mode"]
    if mode == "lift":
        lam = [[math.prod(row[j:]) for j in range(n)] for row in lam]
    sq = [[abs(x) ** 2 for x in row] for row in lam]
    if mode == "ordering":
        margins = [min(r[j + 1] - r[j] for r in sq) for j in range(n - 1)] + [min(1 - r[-1] for r in sq)]
        for got, want in zip(report["margins"], margins):
            close(got, want, TOL_FLOAT, "ordering margin")
        holds = all(mu >= -TOL_MATRIX for mu in margins)
        expect(report["chain_holds"] == holds, "chain verdict")
        diagonal = job.expect["diagonal"]
        expect(report["spectrum_checked"] == diagonal, "joint spectrum checked")
        if diagonal:
            inside = all(0 < r[0] and all(r[j] < r[j + 1] for j in range(n - 1)) and r[-1] < 1 for r in sq)
            expect(report["spectrum_in_triangle"] == inside, "joint spectrum in the triangle")
        return 0 if holds else 1
    # For a normal tuple the defect is diagonal in the joint eigenbasis.
    defects = []
    for r in sq:
        d = r[n - 1] - r[n - 2]
        for k in range(2, n):
            d *= r[n - k] - r[n - k - 1]
        defects.append(d * (1 - r[n - 1]))
    norm = max(abs(d) for d in defects)
    low = min(defects)
    if norm <= TOL_MATRIX * max(1.0, max(max(r) for r in sq)):
        kind = "isometry"
    elif low >= -TOL_MATRIX * max(1.0, norm):
        kind = "contraction"
    else:
        kind = "neither"
    expect(report["classification"] == kind, f"classification {report['classification']} != {kind}")
    close(report["min_eigenvalue"], low, TOL_FLOAT, "defect minimum eigenvalue")
    close(report["defect_norm"], norm, TOL_FLOAT, "defect norm")
    return 1 if kind == "neither" else 0


def check_pick(job, report) -> int:
    verified = job.expect["verified"]
    expect(report["verified"] == verified, f"certificate verdict {report['verified']} != {verified}")
    return 0 if verified else 1


def check_quadrature(job, report) -> int:
    config = job.config
    rows = report["beta_integrals"]
    pairs = [(l, k) for l in range(config["l_max"] + 1) for k in range(config["k_max"] + 1)]
    expect([(r["l"], r["k"]) for r in rows] == pairs, "quadrature rows")
    for r in rows:
        closed = math.pi / ((r["k"] + 1) * math.comb(r["l"] + r["k"] + 1, r["k"] + 1))
        close(r["closed"], closed, 1e-12, "closed beta integral")
        close(r["numeric"], closed, TOL_FLOAT, "quadrature beta integral")
    if "hardy" in config:
        close(report["hardy_norm"], 1.0, 1e-6, "Hardy norm of a basis function")
    if "bergman" in config:
        close(report["bergman_norm"], 1.0, 1e-6, "Bergman norm of a basis function")
    return 0


def check_domain(job, report) -> int:
    polys = poly_terms(job.config["poly_tuple"])
    points = report["points"]
    expect([e["point"] for e in points] == job.config["points"], "points")
    for entry in points:
        z = [complex(*c) for c in entry["point"]]
        mods = [abs(c) ** 2 for c in z]
        u = [mods[j] / mods[j + 1] for j in range(len(z) - 1)] + [mods[-1]]
        inside = all(sum(float(c) * math.prod(u[i] ** a for i, a in enumerate(alpha))
                         for alpha, c in p.items()) < 1 for p in polys)
        expect(entry["inside"] == inside, f"membership of {entry['point']}")
    return 0


# Commands whose check reads the rendered report in either format.
RENDERED = {"coeffs": check_coeffs, "weights": check_weights}
PARSED = {
    "validate": check_validate, "kernel": check_kernel, "probes": check_probes,
    "dettrace": check_dettrace, "radius": check_radius, "subnormality": check_subnormality,
    "hereditary": check_hereditary, "pick-verify": check_pick, "quadrature": check_quadrature,
    "domain": check_domain,
}


def check(job, code: int, rendered: str) -> None:
    """Raise Mismatch unless the report is right and the exit code is the one
    the independent route gives (1 only for a negative verdict)."""
    command = job.config["command"]
    if command in RENDERED:
        want = RENDERED[command](job, rendered)
    else:
        report = json.loads(rendered)
        expect(report["command"] == command and report["seed"] == job.seed, "report header")
        want = PARSED[command](job, report)
    expect(code == want, f"exit code {code}, expected {want}")
