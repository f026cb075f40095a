"""Batch CLI dispatching the library operations from a single JSON config.

One run executes exactly one sub-command and writes one deterministic report
(JSON, or CSV for tabular commands).  Each command declares its config fields
in one table, next to its implementation, and returns its JSON entries with
its CSV rows as a generator over them, so only a CSV run builds the rows.
coeffs and weights, the large tables, instead hand over their cells as text
columns (_Table), from which each JSON line, with its keys in sorted order,
and each CSV line is one join of column texts and constant separators, with
no Python-level call per row.  They format each exact column in one
format_rationals call, a few C-level maps over the cells; weights maps its
float columns as well and turns each distinct weight into text once.
A command imports the modules it runs inside its function, so a run loads
only those: numpy only for radius, quadrature, hereditary and pick-verify.
Each command gets the run's seed, and only probes, the one command that draws
random numbers, builds a generator from it.  A config field's check puts its
error message into text only when the value fails it.
One C JSON encoder, built once at import, renders every other JSON line and
every JSON cell of a CSV row.  Exit codes: 0 success, 1
mathematically negative verdict (failed monotonicity, failed certificate,
"neither" classification), 2 input error, 3 internal error (a defect of the
program, never a verdict).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import operator
import random
import sys
import traceback
from collections.abc import Iterator, Sequence

from .errors import HartogsError, InvalidConfig, MalformedInput, UnknownCommand
from .polytuple import (_to_float, admissibility_degree, format_rational, format_rationals,
                        parse_and_validate, parse_rational)

CSV_COMMANDS = {"coeffs", "kernel", "weights", "domain", "quadrature"}

# --- config fields ------------------------------------------------------------
# A field is a pair (check, default).  check(value, parsed, where) returns the
# parsed value or raises InvalidConfig; parsed holds the fields read before it
# in table order, and a callable default or bound is computed from them.  A
# field whose default is _REQUIRED must be given.  where is the field's name
# or, for entry i of a list, the pair (the list's where, i); it and the rest
# of a message are put into text only when a check fails.

_REQUIRED = object()


def _parse(config: dict, table: dict, prefix: str = "") -> dict:
    parsed: dict = {}
    for name, (check, default) in table.items():
        if name in config:
            value = check(config[name], parsed, prefix + name)
        elif (value := _at(default, parsed)) is _REQUIRED:
            raise InvalidConfig(f"config is missing required field {prefix + name!r}")
        parsed[name] = value
    return parsed


def _at(spec, parsed):
    return spec(parsed) if callable(spec) else spec


def _invalid(where, what: str, value) -> InvalidConfig:
    return InvalidConfig(f"{_name(where)!r} must be {what}, got {value!r:.80}")


def _name(where) -> str:
    return where if type(where) is str else f"{_name(where[0])}[{where[1]}]"


def _n(parsed) -> int:
    return parsed["poly_tuple"].n


def _is_pairs(value, size=None) -> bool:
    """A list of size [re, im] pairs of finite numbers (of any size when size is None)."""
    try:
        numbers = [x for re, im in value for x in (re, im)]
        return (isinstance(value, list) and size in (None, len(value))
                and set(map(type, numbers)) <= {int, float} and all(map(math.isfinite, numbers)))
    except (TypeError, ValueError, OverflowError):  # not pairs, or an int beyond the float range
        return False


def _int(lo: int, hi=math.inf, default=_REQUIRED):
    def check(value, parsed, where):
        top = _at(hi, parsed)
        if not (type(value) is int and lo <= value <= top):
            raise _invalid(where, f"an integer in [{lo}, {top}]", value)
        return value
    return check, default


def _ints(lo: int, length=None, default=_REQUIRED, least=0):
    def check(value, parsed, where):
        size = _at(length, parsed)
        if not (isinstance(value, list) and size in (None, len(value)) and len(value) >= least
                and all(type(x) is int and x >= lo for x in value)):
            count = f"{size} " if size is not None else f"{least} or more " if least else ""
            raise _invalid(where, f"a list of {count}integers >= {lo}", value)
        return tuple(value)
    return check, default


def _number(default):
    """A finite number >= 0, such as a tolerance."""
    def check(value, parsed, where):
        if not (type(value) in (int, float) and 0 <= value <= sys.float_info.max):
            raise _invalid(where, "a finite number >= 0", value)
        return value
    return check, default


def _rational(default):
    """A rational > 0, an int or a "p/q" string (parse_rational rejects floats)."""
    def check(value, parsed, where):
        if (q := parse_rational(value, _name(where))) <= 0:
            raise _invalid(where, "> 0", value)
        return q
    return check, default


def _choice(*options):
    """One of the options; the first is the default."""
    def check(value, parsed, where):
        if value not in options:
            raise _invalid(where, f"one of {', '.join(map(repr, options))}", value)
        return value
    return check, options[0]


def _point(length):
    """A point of length coordinates, each an [re, im] pair."""
    def check(value, parsed, where):
        size = _at(length, parsed)
        if not _is_pairs(value, size):
            count = "" if size is None else f"{size} "
            raise _invalid(where, f"a list of {count}[re, im] pairs of finite numbers", value)
        return tuple(complex(float(re), float(im)) for re, im in value)
    return check, _REQUIRED


def _matrix():
    """A rectangular matrix of [re, im] pairs, as a complex array."""
    def check(value, parsed, where):
        width = len(value[0]) if isinstance(value, list) and value and type(value[0]) is list else 0
        if not (width and all(type(row) is list and len(row) == width for row in value)
                and _is_pairs(list(itertools.chain.from_iterable(value)))):
            raise _invalid(where, "a rectangular matrix of [re, im] pairs of finite numbers", value)
        from . import hereditary
        return hereditary.matrix_from_json(value)
    return check, _REQUIRED


def _list(kind, length=None):
    """A list of values of one kind, of the given length or of any length."""
    def check(value, parsed, where):
        if not (isinstance(value, list) and length in (None, len(value))):
            raise _invalid(where, f"a list of {'' if length is None else f'{length} '}entries", value)
        return [kind[0](v, parsed, (where, i)) for i, v in enumerate(value)]
    return check, _REQUIRED


def _object(**table):
    """A nested object with its own table; absent means None."""
    def check(value, parsed, where):
        if not isinstance(value, dict):
            raise _invalid(where, "an object", value)
        return _parse(value, table, _name(where) + ".")
    return check, None


_COMMANDS: dict = {}


def _command(name: str, **table):
    """Register a command with its config table: field -> (check, default)."""
    def register(function):
        _COMMANDS[name] = function, table
        return function
    return register


def _tuple(value, parsed, where):
    return parse_and_validate(value)


_P, _M, _WINDOW = (_tuple, _REQUIRED), _ints(1, _n), _ints(0, _n)


# --- command implementations ----------------------------------------------------


@_command("validate", poly_tuple=_P)
def _cmd_validate(c: dict, seed) -> tuple[bool | None, dict, None]:
    from . import geometry
    P = c["poly_tuple"]
    adm = admissibility_degree(P)
    return None, {"valid": True, "n": P.n, "admissible": adm.admissible,
                  "admissibility_degree": "all" if adm.admissible else adm.degree,
                  "linear_coefficients": [format_rational(a) for a in P.linear_coefficients],
                  "polydisc_radii": geometry.polydisc_radii(P)}, None


@_command("coeffs", poly_tuple=_P, m=_M, window=_WINDOW)
def _cmd_coeffs(c: dict, seed):
    from .coeff import coeff_function
    bounds = c["window"]
    columns = coeff_function(c["poly_tuple"], c["m"], bounds).columns(bounds)
    rows = _Table(bounds, [{"value": format_rationals(*columns)}], quoted={"value"})
    return None, {"bounds": list(bounds), "entries": rows}, rows


@_command("domain", poly_tuple=_P, points=_list(_point(_n)))
def _cmd_domain(c: dict, seed):
    from . import geometry
    entries = [{"point": [[z.real, z.imag] for z in p],
                "inside": geometry.triangle_contains(c["poly_tuple"], p)} for p in c["points"]]
    rows = ([_encode(e["point"]), int(e["inside"])] for e in entries)
    return None, {"points": entries}, (["point", "inside"], rows)


@_command("kernel", poly_tuple=_P, m=_M, window=_WINDOW,
          cutoff=_int(0, lambda c: min(c["window"]), default=lambda c: min(c["window"])),
          pairs=_list(_list(_point(_n), 2)))
def _cmd_kernel(c: dict, seed):
    from . import kernel
    ctx = kernel.make_context(c["poly_tuple"], c["m"], c["window"])
    entries = []
    for z, w in c["pairs"]:
        closed = kernel.kernel_eval(ctx, z, w)
        series = kernel.kernel_series_eval(ctx, z, w, c["cutoff"])
        if not math.isfinite(abs_err := abs(closed - series)):  # a value or the difference overflowed
            raise MalformedInput(f"the kernel at z={z}, w={w} overflows the float range")
        entries.append({"z": [[x.real, x.imag] for x in z], "w": [[x.real, x.imag] for x in w],
                        "closed": [closed.real, closed.imag], "series": [series.real, series.imag],
                        "abs_err": abs_err})
    header = ["z", "w", "closed_re", "closed_im", "series_re", "series_im", "abs_err"]
    rows = ([_encode(e["z"]), _encode(e["w"]), *e["closed"], *e["series"], e["abs_err"]]
            for e in entries)
    return None, {"cutoff": c["cutoff"], "pairs": entries}, (header, rows)


@_command("weights", poly_tuple=_P, m=_M, window=_WINDOW)
def _cmd_weights(c: dict, seed):
    from . import shiftops
    P, m = c["poly_tuple"], c["m"]
    window = shiftops.build_window(c["window"])
    wt = shiftops.op_weights(P, m, window)
    n, walk, B = P.n, wt.walk(), wt.B
    # Per j, int columns of the scaled table; their int true division rounds as float(Fraction) does.
    squares, hypos = [], []
    for j, ((step, scale), shift) in enumerate(zip(wt.mult_steps, wt.shift_steps)):
        w_num, w_den = wt.quotients(walk, step, scale)  # omega^2 at alpha
        squares += ((w_num, w_den, "a squared weight omega^2"),
                    (*wt.quotients(walk, *shift), "a squared weight sigma^2"))  # sigma^2 at alpha
        # hypo_diag = omega^2(alpha) - omega^2(alpha - tail_j) = p/q - scale B[off - step] / B[off]
        hypos.append(([p * B[off] - scale * B[off - step] * q for p, q, off in zip(w_num, w_den, walk)],
                      [q * B[off] for q, off in zip(w_den, walk)]))
    # Every float first.  On an overflow, or a 0.0 (no quotient is 0), replay the rows
    # up to the weight without a float value as the per-row build ran them, so a
    # hypo_diag of an earlier row too long to print fails first.
    try:
        roots = [list(map(math.sqrt, map(operator.truediv, num, den))) for num, den, _ in squares]
    except OverflowError:
        roots = None
    if roots is None or any(0.0 in column for column in roots):
        for cell, j in itertools.product(range(len(walk)), range(n)):
            for num, den, what in squares[2 * j:2 * j + 2]:
                _to_float(num[cell], what, den[cell])
            format_rational(hypos[j][0][cell], hypos[j][1][cell])
    # Each distinct weight turned into text once, by the float.__repr__ that the
    # C encoder and csv.writer call.  Equal floats have one text but for +-0.0,
    # and no weight is -0.0: each is the square root of a positive quotient.
    distinct = set(itertools.chain.from_iterable(roots))
    text = dict(zip(distinct, map(repr, distinct))).__getitem__
    rows = _Table(window.bounds, [{"j": str(j + 1), "omega": list(map(text, roots[2 * j])),
                                   "sigma": list(map(text, roots[2 * j + 1])),
                                   "hypo_diag": format_rationals(*hypo)} for j, hypo in enumerate(hypos)],
                  quoted={"hypo_diag"})
    return None, {"window": list(window.bounds), "weights": rows}, rows


@_command("probes", poly_tuple=_P, m=_M, window=_WINDOW, theta_trials=_int(0, default=5),
          circularity_tolerance=_number(1e-12))
def _cmd_probes(c: dict, seed):
    from . import shiftops
    P, m = c["poly_tuple"], c["m"]
    # A noncommuting witness needs a step along each of the last two axes.
    if min(c["window"][-2:]) < 1:
        raise _invalid("window", "integers >= 0 whose last two are >= 1", list(c["window"]))
    rng = random.Random(seed)
    thetas = [[rng.uniform(0.0, 2.0 * math.pi) for _ in range(P.n)] for _ in range(c["theta_trials"])]
    probe = shiftops.factorization_and_commutation_probe(P, m, shiftops.build_window(c["window"]), thetas)
    max_dev = probe.circularity_max_deviation
    verdict = probe.ok and max_dev <= c["circularity_tolerance"]
    witness = probe.noncommuting_witness
    report = {"factorization_exact": probe.factorization_exact,
              "noncommuting_witness": None if witness is None else list(witness),
              "polydisc_all_zero": probe.polydisc_all_zero, "cells_checked": probe.cells_checked,
              "circularity_trials": c["theta_trials"], "circularity_max_deviation": max_dev,
              "verdict": verdict}
    return verdict, report, None


@_command("dettrace", poly_tuple=_P, m=_M, K=_int(1))
def _cmd_dettrace(c: dict, seed):
    from . import shiftops
    rep = shiftops.det_commutator_and_trace(c["poly_tuple"], c["m"], c["K"])
    report = {"K": c["K"], "increasing": list(rep.increasing), "positive": rep.positive,
              "partial_trace": format_rational(rep.partial_trace),
              "partial_trace_float": _to_float(rep.partial_trace, "the partial trace"),
              "limit_trace": rep.limit_trace,
              "diagonal": [{"alpha": list(a), "value": format_rational(v)}
                           for a, v in sorted(rep.diagonal.items())]}
    return None, report, None


@_command("radius", poly_tuple=_P, m=_M, j=_int(1, _n, default=1), K=_int(0, default=30),
          N=_int(1, default=400))
def _cmd_radius(c: dict, seed):
    from . import geometry, shiftops
    P = c["poly_tuple"]
    radii = geometry.polydisc_radii(P)
    rep = shiftops.spectral_radius_estimate(P, c["m"], c["j"] - 1, c["K"], c["N"])
    return None, {"j": c["j"], "polydisc_radii": radii, "estimate": rep.estimate,
                  "norm_bound": rep.norm_bound, "approximants_tail": rep.approximants[-10:]}, None


# Without poly_tuple, subnormality certifies the Hartogs tuple for every shift
# up to gamma_bound; with it, it checks the single shift gamma.
@_command("subnormality", poly_tuple=(_tuple, None),
          m=_ints(1, lambda c: c["poly_tuple"].n if c["poly_tuple"] else None, least=1),
          gamma=_ints(0, lambda c: len(c["m"]), default=lambda c: _REQUIRED if c["poly_tuple"] else None),
          gamma_bound=_ints(0, lambda c: len(c["m"]),
                            default=lambda c: None if c["poly_tuple"] else _REQUIRED),
          window=_ints(0, lambda c: len(c["m"]), default=lambda c: (2,) * len(c["m"])),
          order=_int(1, default=4), scale=_rational(1))
def _cmd_subnormality(c: dict, seed):
    from . import subnormality
    order, window = c["order"], c["window"]
    if c["poly_tuple"] is not None:
        rep = subnormality.shift_check(c["poly_tuple"], c["m"], c["gamma"], window, order, c["scale"])
        witnesses = [] if rep.passed else [
            {"gamma": list(c["gamma"]), "beta": list(rep.witness[0]), "k": list(rep.witness[1])}]
        report = {"verdict": "PASS" if rep.passed else "FAIL", "order": order,
                  "window": list(window), "witnesses": witnesses, "checked": rep.checked}
        return rep.passed, report, None
    rep = subnormality.hartogs_certify(c["m"], c["gamma_bound"], order, window)
    report = {"verdict": "PASS" if rep.passed else "FAIL", "order": rep.order,
              "window": list(rep.window), "gammas_checked": rep.gammas_checked,
              "witnesses": [{"gamma": list(g), "beta": list(w[0]), "k": list(w[1])}
                            for g, w in rep.failures]}
    return rep.passed, report, None


@_command("hereditary", matrices=_list(_matrix()), tolerance=_number(1e-10),
          commutation_tolerance=_number(1e-12), mode=_choice("classify", "lift", "ordering"))
def _cmd_hereditary(c: dict, seed):
    from . import hereditary
    T = hereditary.MatrixTuple(tuple(c["matrices"]), tolerance=c["commutation_tolerance"])
    mode = c["mode"]
    if mode == "ordering":
        rep = hereditary.ordering_check(T, tol=c["tolerance"])
        report = {"mode": mode, "chain_holds": rep.chain_holds, "margins": list(rep.margins),
                  "spectrum_checked": rep.spectrum_checked,
                  "spectrum_in_triangle": rep.spectrum_in_triangle}
        return rep.chain_holds, report, None
    if mode == "lift":
        T = hereditary.toral_lift(T)
    rep = hereditary.triangle_defect_classify(T, tol=c["tolerance"])
    report = {"mode": mode, "classification": rep.kind, "min_eigenvalue": rep.min_eigenvalue,
              "defect_norm": rep.defect_norm}
    return rep.kind != "neither", report, None


@_command("pick-verify", points=_list(_point(None)), targets=_point(lambda c: len(c["points"])),
          a1=_matrix(), a2=_matrix(), tolerance=_number(1e-10))
def _cmd_pick_verify(c: dict, seed):
    from . import hereditary
    ok = hereditary.pick_verify(c["points"], c["targets"], c["a1"], c["a2"], tol=c["tolerance"])
    return ok, {"verified": ok}, None


@_command("quadrature", l_max=_int(0, default=5), k_max=_int(0, default=5),
          radial_nodes=_int(1, default=32),
          hardy=_object(n=_int(1), alpha=_ints(0, lambda s: s["n"])),
          bergman=_object(m=_ints(1, least=1), alpha=_ints(0, lambda s: len(s["m"]))))
def _cmd_quadrature(c: dict, seed):
    from . import kernel
    entries = []
    for l in range(c["l_max"] + 1):
        for k in range(c["k_max"] + 1):
            numeric, closed = kernel.beta_integral_check(l, k, radial_nodes=c["radial_nodes"])
            entries.append({"l": l, "k": k, "numeric": numeric, "closed": closed,
                            "abs_err": abs(numeric - closed)})
    report: dict = {"beta_integrals": entries}
    if c["hardy"] is not None:
        report["hardy_norm"] = kernel.hardy_norm_check(c["hardy"]["n"], c["hardy"]["alpha"])
    if c["bergman"] is not None:
        report["bergman_norm"] = kernel.bergman_norm_check(c["bergman"]["m"], c["bergman"]["alpha"],
                                                           radial_nodes=c["radial_nodes"])
    return None, report, (["l", "k", "numeric", "closed", "abs_err"], (list(e.values()) for e in entries))


def run(config: dict, seed: int = 0, fmt: str = "json") -> tuple[int, str]:
    """Execute one command; returns (exit_code, rendered report)."""
    if not isinstance(config, dict):
        raise InvalidConfig("config must be a JSON object")
    command = config.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise UnknownCommand(f"unknown command {command!r}")
    if fmt not in ("json", "csv"):
        raise InvalidConfig(f"format must be 'json' or 'csv', got {fmt!r}")
    if fmt == "csv" and command not in CSV_COMMANDS:
        raise InvalidConfig(f"command {command!r} has no CSV form")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InvalidConfig(f"seed must be an integer, got {seed!r:.80}")
    function, fields = _COMMANDS[command]
    verdict, report, table = function(_parse(config, fields), seed)
    report = {"command": command, "seed": seed, **report}
    if fmt == "csv":
        if type(table) is _Table:  # no cell holds a comma, a quote or a line break to quote
            rendered = table.csv()
        else:
            header, rows = table
            buf = io.StringIO()  # point cells are JSON text with commas, which csv quotes
            csv.writer(buf, lineterminator="\n").writerows(itertools.chain([header], rows))
            rendered = buf.getvalue()
    else:
        rendered = _render(report)
    return (0 if verdict in (None, True) else 1), rendered


# The C encoder with the arguments JSONEncoder(sort_keys=True, allow_nan=False)
# passes it, built once rather than per call.  Without a markers dict no state
# outlives a failed encode; a cycle still raises (RecursionError), and so do a
# NaN or an infinity (ValueError) and a value that is not JSON (TypeError).
_chunks = json.encoder.c_make_encoder(None, json.JSONEncoder().default,
                                      json.encoder.encode_basestring_ascii,
                                      None, ": ", ", ", True, False, False)


def _encode(value) -> str:
    """value as compact strict JSON with sorted keys."""
    return "".join(_chunks(value, 0))


class _Table:
    """A coeffs or weights table as text columns.  Its rows run over the box
    0 <= alpha <= bounds in row-major order, one per group at each alpha
    (weights has a group per j).  A group maps each key after alpha, in CSV
    order, to a column (one text per alpha) or to one text for all its rows.
    A text is an int's str, a float's repr (as the C encoder and csv.writer
    write it) or a format_rational string, which JSON quotes (its key is in
    quoted).  None holds a comma, a quote, a backslash or a line break, so
    no text needs JSON escaping or CSV quoting."""

    def __init__(self, bounds, groups: list[dict], quoted: set):
        self.bounds, self.groups, self.quoted = bounds, groups, quoted

    def _lines(self, alpha: tuple[str, str, str], fields) -> Iterator[str]:
        """Each line one join: the text of its alpha, whose entries alpha =
        (start, sep, close) surround, then the columns and constant texts that
        fields(group) yields for its group."""
        start, sep, close = alpha
        axes = [[(sep if i else "") + str(a) for a in range(b + 1)] for i, b in enumerate(self.bounds)]
        labels = list(map("".join, itertools.product([start], *axes, [close])))
        lines = []
        for group in self.groups:
            parts = [labels]
            for part in fields(group):
                if type(part) is str and type(parts[-1]) is str:  # adjacent constants as one text
                    parts[-1] += part
                else:
                    parts.append(part)
            lines.append(map("".join, zip(*(itertools.repeat(p) if type(p) is str else p for p in parts))))
        # The rows of one alpha, group by group; one group needs no interleaving.
        return lines[0] if len(lines) == 1 else itertools.chain.from_iterable(zip(*lines))

    def json(self) -> str:
        """The JSON lines, joined as _render joins list elements, or ValueError
        for a non-finite float; every key of a group sorts after alpha."""
        def fields(group):
            for key in sorted(group):
                quote = '"' if key in self.quoted else ""
                yield from (f', "{key}": {quote}', group[key], quote)
            yield "}"
        text = ",\n    ".join(self._lines(('{"alpha": [', ", ", "]"), fields))
        # repr writes a non-finite float as nan, inf or -inf, which no other text and no key holds.
        if "nan" in text or "inf" in text:
            raise ValueError("Out of range float values are not JSON compliant")
        return text

    def csv(self) -> str:
        def fields(group):
            for column in group.values():
                yield from (",", column)
            yield "\n"
        header = [f"alpha_{i + 1}" for i in range(len(self.bounds))] + list(self.groups[0])
        return ",".join(header) + "\n" + "".join(self._lines(("", ",", ""), fields))


def _render(report: dict) -> str:
    """A non-empty report as strict JSON with sorted keys: one line per top-level
    key and, for a non-empty list value or a _Table, one compact line per
    element, each rendered by the one C encoder or by the _Table.  A
    report of scalars and lists of scalars renders as with indent=2."""
    lines = []
    for key, value in sorted(report.items()):
        if type(value) is _Table or isinstance(value, list) and value:
            elements = value.json() if type(value) is _Table else ",\n    ".join(map(_encode, value))
            lines.append(f"  {_encode(key)}: [\n    {elements}\n  ]")
        else:
            lines.append(f"  {_encode(key)}: {_encode(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _error(name: str, message: str) -> str:
    return _render({"error": name, "message": message})


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
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON, UTF-8 or int literal
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        code, rendered = run(config, seed=args.seed, fmt=args.format)
    except HartogsError as exc:
        code, rendered = 2, _error(type(exc).__name__, str(exc))
    except Exception as exc:  # a defect, so never exit 1, which means a negative verdict
        traceback.print_exc()
        code, rendered = 3, _error("InternalError", f"{type(exc).__name__}: {exc}")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:  # exit 1 would read as a negative verdict
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
