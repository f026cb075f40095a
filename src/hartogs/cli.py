"""Batch CLI dispatching the library operations from a single JSON config.

One run executes exactly one sub-command and writes one deterministic report
(JSON, or CSV for tabular commands).  Exit codes: 0 success, 1 mathematically
negative verdict (failed monotonicity, failed certificate, "neither"
classification), 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from fractions import Fraction
from typing import Sequence

from . import geometry, hereditary, kernel, shiftops, subnormality
from .coeff import coeff_function
from .errors import HartogsError, InvalidConfig, UnknownCommand
from .polytuple import PolyTuple, admissibility_degree, box, format_rational, parse_and_validate

CSV_COMMANDS = {"coeffs", "kernel", "weights", "domain", "quadrature"}


def _require(config: dict, key: str):
    if key not in config:
        raise InvalidConfig(f"config is missing required field {key!r}")
    return config[key]


def _parse_tuple(config: dict) -> PolyTuple:
    return parse_and_validate(_require(config, "poly_tuple"))


def _parse_m(config: dict, n: int) -> tuple[int, ...]:
    m = _require(config, "m")
    if not isinstance(m, list) or len(m) != n or not all(isinstance(x, int) and x >= 1 for x in m):
        raise InvalidConfig(f"'m' must be a list of {n} integers >= 1")
    return tuple(m)


def _parse_bounds(config: dict, n: int, key: str = "window") -> tuple[int, ...]:
    w = _require(config, key)
    if not isinstance(w, list) or len(w) != n or not all(isinstance(x, int) and x >= 0 for x in w):
        raise InvalidConfig(f"{key!r} must be a list of {n} nonnegative integers")
    return tuple(w)


def _parse_point(entry) -> tuple[complex, ...]:
    try:
        return tuple(complex(float(re), float(im)) for re, im in entry)
    except (TypeError, ValueError):
        raise InvalidConfig(f"point {entry!r} must be a list of [re, im] pairs") from None


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


# --- command implementations ----------------------------------------------------


def _cmd_validate(config: dict, rng) -> tuple[bool | None, dict, None]:
    P = _parse_tuple(config)
    adm = admissibility_degree(P)
    report = {
        "valid": True,
        "n": P.n,
        "admissible": adm.admissible,
        "admissibility_degree": "all" if adm.all_degrees else adm.degree,
        "linear_coefficients": [format_rational(a) for a in P.linear_coefficients],
        "polydisc_radii": geometry.polydisc_radii(P),
    }
    return None, report, None


def _cmd_coeffs(config: dict, rng):
    P = _parse_tuple(config)
    m = _parse_m(config, P.n)
    bounds = _parse_bounds(config, P.n)
    method = config.get("method", "auto")
    if method not in ("auto", "product", "convolution"):
        raise InvalidConfig(f"'method' must be 'auto', 'product' or 'convolution', got {method!r}")
    if method == "product" and not admissibility_degree(P).admissible:
        raise InvalidConfig("'method' 'product' needs each P_j to depend on z_j alone")
    table = coeff_function(P, m, bounds, method=method)
    header = [f"alpha_{j + 1}" for j in range(P.n)] + ["value"]
    rows = [[*alpha, format_rational(table.value(alpha))] for alpha in box(bounds)]
    report = {"bounds": list(bounds), "entries": [
        {"alpha": list(alpha), "value": format_rational(table.value(alpha))}
        for alpha in box(bounds)]}
    return None, report, (header, rows)


def _cmd_domain(config: dict, rng):
    P = _parse_tuple(config)
    points = [_parse_point(p) for p in _require(config, "points")]
    header = ["point", "inside"]
    rows, entries = [], []
    for p in points:
        inside = geometry.triangle_contains(P, p)
        rows.append([json.dumps([_complex_pair(z) for z in p]), int(inside)])
        entries.append({"point": [_complex_pair(z) for z in p], "inside": inside})
    return None, {"points": entries}, (header, rows)


def _cmd_kernel(config: dict, rng):
    P = _parse_tuple(config)
    m = _parse_m(config, P.n)
    bounds = _parse_bounds(config, P.n)
    cutoff = config.get("cutoff", min(bounds))
    if not isinstance(cutoff, int) or cutoff < 0 or any(cutoff > b for b in bounds):
        raise InvalidConfig("'cutoff' must be an integer within the window bounds")
    ctx = kernel.make_context(P, m, bounds)
    header = ["z", "w", "closed_re", "closed_im", "series_re", "series_im", "abs_err"]
    rows, entries = [], []
    for pair in _require(config, "pairs"):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InvalidConfig("'pairs' entries must be [z, w]")
        z, w = _parse_point(pair[0]), _parse_point(pair[1])
        closed = kernel.kernel_eval(ctx, z, w)
        series = kernel.kernel_series_eval(ctx, z, w, cutoff)
        err = abs(closed - series)
        rows.append([json.dumps([_complex_pair(c) for c in z]),
                     json.dumps([_complex_pair(c) for c in w]),
                     closed.real, closed.imag, series.real, series.imag, err])
        entries.append({"z": [_complex_pair(c) for c in z], "w": [_complex_pair(c) for c in w],
                        "closed": _complex_pair(closed), "series": _complex_pair(series),
                        "abs_err": err})
    return None, {"cutoff": cutoff, "pairs": entries}, (header, rows)


def _cmd_weights(config: dict, rng):
    P = _parse_tuple(config)
    m = _parse_m(config, P.n)
    window = shiftops.build_window(_parse_bounds(config, P.n))
    wt = shiftops.op_weights(P, m, window)
    diagonals = [shiftops.hyponormality_diagonal(P, m, j, window) for j in range(P.n)]
    header = [f"alpha_{i + 1}" for i in range(P.n)] + ["j", "omega", "sigma", "hypo_diag"]
    rows, entries = [], []
    for alpha in window.cells:
        for j in range(P.n):
            omega = math.sqrt(float(wt.mult_weight_sq(j, alpha)))
            sigma = math.sqrt(float(wt.shift_weight_sq(j, alpha)))
            hypo = diagonals[j][alpha]
            rows.append([*alpha, j + 1, omega, sigma, format_rational(hypo)])
            entries.append({"alpha": list(alpha), "j": j + 1, "omega": omega,
                            "sigma": sigma, "hypo_diag": format_rational(hypo)})
    return None, {"window": list(window.bounds), "weights": entries}, (header, rows)


def _cmd_probes(config: dict, rng):
    P = _parse_tuple(config)
    m = _parse_m(config, P.n)
    window = shiftops.build_window(_parse_bounds(config, P.n))
    probe = shiftops.factorization_and_commutation_probe(P, m, window)
    trials = config.get("theta_trials", 5)
    max_dev = 0.0
    for _ in range(trials):
        theta = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(P.n)]
        max_dev = max(max_dev, shiftops.circularity_check(P, m, window, theta))
    circular_ok = max_dev <= config.get("circularity_tolerance", 1e-12)
    verdict = probe.ok and circular_ok
    report = {
        "factorization_exact": probe.factorization_exact,
        "noncommuting_witness": list(probe.noncommuting_witness)
        if probe.noncommuting_witness is not None else None,
        "polydisc_all_zero": probe.polydisc_all_zero,
        "cells_checked": probe.cells_checked,
        "circularity_trials": trials,
        "circularity_max_deviation": max_dev,
        "verdict": verdict,
    }
    return verdict, report, None


def _cmd_dettrace(config: dict, rng):
    P = _parse_tuple(config)
    m = _parse_m(config, P.n)
    K = _require(config, "K")
    if not isinstance(K, int) or K < 1:
        raise InvalidConfig("'K' must be a positive integer")
    rep = shiftops.det_commutator_and_trace(P, m, K)
    report = {
        "K": K,
        "increasing": list(rep.increasing),
        "positive": rep.positive,
        "partial_trace": format_rational(rep.partial_trace),
        "partial_trace_float": float(rep.partial_trace),
        "limit_trace": rep.limit_trace,
        "diagonal": [{"alpha": list(a), "value": format_rational(v)}
                     for a, v in sorted(rep.diagonal.items())],
    }
    return None, report, None


def _cmd_radius(config: dict, rng):
    P = _parse_tuple(config)
    m = _parse_m(config, P.n)
    j = config.get("j", 1)
    if not isinstance(j, int) or not 1 <= j <= P.n:
        raise InvalidConfig(f"'j' must be in 1..{P.n}")
    K = config.get("K", 30)
    N = config.get("N", 400)
    rep = shiftops.spectral_radius_estimate(P, m, j - 1, K, N)
    report = {
        "j": j,
        "polydisc_radii": geometry.polydisc_radii(P),
        "estimate": rep.estimate,
        "norm_bound": rep.norm_bound,
        "approximants_tail": rep.approximants[-10:],
    }
    return None, report, None


def _cmd_subnormality(config: dict, rng):
    order = config.get("order", 4)
    if "poly_tuple" in config:
        P = _parse_tuple(config)
        m = _parse_m(config, P.n)
        gamma = tuple(_parse_bounds(config, P.n, key="gamma"))
        window = tuple(_parse_bounds(config, P.n)) if "window" in config else (2,) * P.n
        scale = Fraction(str(config.get("scale", 1)))
        seq = subnormality.moment_sequence(
            P, m, gamma, variant=config.get("variant", "general"),
            window=window, margin=order, scale=scale)
        rep = subnormality.complete_monotonicity_check(seq, order)
        witnesses = [] if rep.passed else [
            {"gamma": list(gamma), "beta": list(rep.witness[0]), "k": list(rep.witness[1])}]
        report = {"verdict": "PASS" if rep.passed else "FAIL", "order": order,
                  "window": list(window), "witnesses": witnesses, "checked": rep.checked}
        return rep.passed, report, None
    m = _require(config, "m")
    if not isinstance(m, list) or not all(isinstance(x, int) and x >= 1 for x in m):
        raise InvalidConfig("'m' must be a list of integers >= 1")
    n = len(m)
    gamma_bound = tuple(_parse_bounds(config, n, key="gamma_bound"))
    window = tuple(_parse_bounds(config, n)) if "window" in config else (2,) * n
    rep = subnormality.hartogs_certify(tuple(m), gamma_bound, order, window)
    report = {
        "verdict": "PASS" if rep.passed else "FAIL",
        "order": rep.order,
        "window": list(rep.window),
        "gammas_checked": rep.gammas_checked,
        "witnesses": [{"gamma": list(g), "beta": list(w[0]), "k": list(w[1])}
                      for g, w in rep.failures],
    }
    return rep.passed, report, None


def _cmd_hereditary(config: dict, rng):
    tol = config.get("tolerance", 1e-10)
    T = hereditary.tuple_from_json(_require(config, "matrices"),
                                   tolerance=config.get("commutation_tolerance", 1e-12))
    mode = config.get("mode", "classify")
    if mode == "lift":
        T = hereditary.toral_lift(T)
    if mode in ("classify", "lift"):
        rep = hereditary.triangle_defect_classify(T, tol=tol)
        report = {
            "mode": mode,
            "classification": rep.kind,
            "min_eigenvalue": rep.min_eigenvalue,
            "defect_norm": rep.defect_norm,
        }
        return rep.kind != "neither", report, None
    if mode == "ordering":
        rep = hereditary.ordering_check(T, tol=tol)
        report = {
            "mode": mode,
            "chain_holds": rep.chain_holds,
            "margins": list(rep.margins),
            "spectrum_checked": rep.spectrum_checked,
            "spectrum_in_triangle": rep.spectrum_in_triangle,
        }
        return rep.chain_holds, report, None
    raise InvalidConfig(f"unknown hereditary mode {mode!r}")


def _cmd_pick_verify(config: dict, rng):
    points = [_parse_point(p) for p in _require(config, "points")]
    targets = [complex(re, im) for re, im in _require(config, "targets")]
    a1 = hereditary.matrix_from_json(_require(config, "a1"))
    a2 = hereditary.matrix_from_json(_require(config, "a2"))
    ok = hereditary.pick_verify(points, targets, a1, a2,
                                tol=config.get("tolerance", 1e-10))
    return ok, {"verified": ok}, None


def _cmd_quadrature(config: dict, rng):
    l_max = config.get("l_max", 5)
    k_max = config.get("k_max", 5)
    nodes = config.get("radial_nodes", 32)
    header = ["l", "k", "numeric", "closed", "abs_err"]
    rows, entries = [], []
    for l in range(l_max + 1):
        for k in range(k_max + 1):
            numeric, closed = kernel.beta_integral_check(l, k, radial_nodes=nodes)
            rows.append([l, k, numeric, closed, abs(numeric - closed)])
            entries.append({"l": l, "k": k, "numeric": numeric, "closed": closed,
                            "abs_err": abs(numeric - closed)})
    report: dict = {"beta_integrals": entries}
    if "hardy" in config:
        spec = config["hardy"]
        value = kernel.hardy_norm_check(int(spec["n"]), tuple(spec["alpha"]))
        report["hardy_norm"] = value
    if "bergman" in config:
        spec = config["bergman"]
        value = kernel.bergman_norm_check(tuple(spec["m"]), tuple(spec["alpha"]))
        report["bergman_norm"] = value
    return None, report, (header, rows)


_COMMANDS = {
    "validate": _cmd_validate,
    "coeffs": _cmd_coeffs,
    "domain": _cmd_domain,
    "kernel": _cmd_kernel,
    "weights": _cmd_weights,
    "probes": _cmd_probes,
    "dettrace": _cmd_dettrace,
    "radius": _cmd_radius,
    "subnormality": _cmd_subnormality,
    "hereditary": _cmd_hereditary,
    "pick-verify": _cmd_pick_verify,
    "quadrature": _cmd_quadrature,
}


def run(config: dict, seed: int = 0, fmt: str = "json") -> tuple[int, str]:
    """Execute one command; returns (exit_code, rendered report)."""
    if not isinstance(config, dict):
        raise InvalidConfig("config must be a JSON object")
    command = config.get("command")
    if command not in _COMMANDS:
        raise UnknownCommand(f"unknown command {command!r}")
    if fmt not in ("json", "csv"):
        raise InvalidConfig(f"format must be 'json' or 'csv', got {fmt!r}")
    if fmt == "csv" and command not in CSV_COMMANDS:
        raise InvalidConfig(f"command {command!r} has no CSV form")
    rng = random.Random(seed)
    verdict, report, table = _COMMANDS[command](config, rng)
    report = {"command": command, "seed": seed, **report}
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header, rows = table
        writer.writerow(header)
        writer.writerows(rows)
        rendered = buf.getvalue()
    else:
        rendered = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return (0 if verdict in (None, True) else 1), rendered


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hartogs",
        description="Operator-theory computations on generalized Hartogs triangles.")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", default="json", choices=["json", "csv"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        code, rendered = run(config, seed=args.seed, fmt=args.format)
    except HartogsError as exc:
        rendered = json.dumps({"error": type(exc).__name__, "message": str(exc)},
                              sort_keys=True, indent=2) + "\n"
        code = 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
