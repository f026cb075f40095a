import cmath
import csv
import importlib
import io
import json
import math
import operator
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hartogs import cli, coeff, geometry, shiftops, subnormality
from hartogs.errors import HartogsError, InvalidConfig, UnknownCommand
from hartogs.polytuple import (_to_float, add_index, box, format_rational, from_polys, hartogs_tuple,
                               parse_and_validate, serialize, sub_index, tail_index, unit_index)

P0 = serialize(hartogs_tuple(2))
P1 = serialize(hartogs_tuple(2, 1))
FIB = serialize(from_polys([{(1, 0): 1, (2, 0): 1}, {(0, 1): 1, (0, 2): 1}]))
SCALED = serialize(from_polys([{(1, 0): F(4, 3), (2, 0): F(1, 5)}, {(0, 1): F(3, 2)}]))
MIXED = serialize(from_polys([{(1, 0): F(4, 3), (1, 1): F(2, 5)}, {(0, 1): 1, (1, 1): F(1, 3)}]))


def run_json(config, seed=0):
    code, rendered = cli.run(config, seed=seed)
    return code, json.loads(rendered)


def test_validate_reports_admissibility():
    code, report = run_json({"command": "validate", "poly_tuple": P0})
    assert code == 0
    assert report["admissible"] and report["admissibility_degree"] == "all"
    code, report = run_json({"command": "validate", "poly_tuple": P1})
    assert report["admissibility_degree"] == 1


def test_coeffs_csv_matches_binomials():
    code, rendered = cli.run({"command": "coeffs", "poly_tuple": P0,
                              "m": [2, 3], "window": [2, 2]}, fmt="csv")
    assert code == 0
    lines = rendered.strip().splitlines()
    assert lines[0] == "alpha_1,alpha_2,value"
    table = {tuple(map(int, line.split(",")[:2])): line.split(",")[2] for line in lines[1:]}
    assert table[(1, 2)] == "12"
    assert table[(0, 0)] == "1"


def test_domain_membership():
    code, report = run_json({"command": "domain", "poly_tuple": P0,
                             "points": [[[0.2, 0], [0.5, 0]], [[0.5, 0], [0.2, 0]]]})
    assert code == 0
    assert [p["inside"] for p in report["points"]] == [True, False]


def test_kernel_rows():
    config = {"command": "kernel", "poly_tuple": P0, "m": [1, 1], "window": [25, 25],
              "cutoff": 25, "pairs": [[[[0, 0], [0.5, 0]], [[0, 0], [0.5, 0]]]]}
    code, report = run_json(config)
    assert code == 0
    row = report["pairs"][0]
    assert row["closed"][0] == pytest.approx(16 / 3)
    assert row["abs_err"] < 1e-7


def test_weights_csv_shape():
    code, rendered = cli.run({"command": "weights", "poly_tuple": P0,
                              "m": [1, 2], "window": [1, 1]}, fmt="csv")
    lines = rendered.strip().splitlines()
    assert lines[0] == "alpha_1,alpha_2,j,omega,sigma,hypo_diag"
    assert len(lines) == 1 + 4 * 2


def test_probes_verdict():
    code, report = run_json({"command": "probes", "poly_tuple": P1,
                             "m": [1, 1], "window": [3, 3], "theta_trials": 3})
    assert code == 0 and report["verdict"]
    assert report["circularity_max_deviation"] <= 1e-12


def test_dettrace_report():
    code, report = run_json({"command": "dettrace", "poly_tuple": P0,
                             "m": [2, 2], "K": 98})
    assert code == 0
    assert report["positive"]
    assert report["partial_trace"] == "970299/1000000"


def test_radius_report():
    code, report = run_json({"command": "radius", "poly_tuple": P0,
                             "m": [1, 1], "j": 1, "K": 10, "N": 40})
    assert code == 0
    assert report["estimate"] == 1.0
    assert report["polydisc_radii"][0] == pytest.approx(1.0, abs=1e-9)


def test_subnormality_pass_and_fail():
    code, report = run_json({"command": "subnormality", "m": [2, 2],
                             "gamma_bound": [1, 1], "order": 2, "window": [1, 1]})
    assert code == 0 and report["verdict"] == "PASS"
    # scale 1/2 turns the constant sequence into the growing 2^|beta|
    code, report = run_json({"command": "subnormality", "poly_tuple": P0,
                             "m": [1, 1], "gamma": [0, 0], "window": [1, 1],
                             "order": 2, "scale": "1/2"})
    assert code == 1 and report["verdict"] == "FAIL"
    assert report["witnesses"]


def test_one_shift_subnormality_builds_no_fraction_table(monkeypatch):
    # The one-shift check reads 1/A from one integer table; at no point is a
    # whole coefficient table turned into Fractions.
    configs = [{"command": "subnormality", "poly_tuple": P1, "m": m, "gamma": gamma, "scale": scale}
               for m, gamma, scale in [([1, 1], [0, 0], 1), ([2, 1], [1, 2], "3/2")]]
    expected = [cli.run(config) for config in configs]
    assert [code for code, _ in expected] == [1, 0]

    def refuse(*args):
        raise AssertionError("a whole coefficient table was reduced to Fractions")

    calls = []
    first_witnesses = subnormality._first_witnesses

    def counting(*args):
        calls.append(args)
        return first_witnesses(*args)

    monkeypatch.setattr(coeff, "_reduced", refuse)
    monkeypatch.setattr(subnormality, "_first_witnesses", counting)
    for config, want in zip(configs, expected):
        calls.clear()
        assert cli.run(config) == want
        assert len(calls) == 1


REDUCTION_FREE_JOBS = {
    "coeffs-json": ({"command": "coeffs", "poly_tuple": SCALED, "m": [2, 3], "window": [4, 3]}, "json"),
    "coeffs-csv": ({"command": "coeffs", "poly_tuple": SCALED, "m": [2, 3], "window": [4, 3]}, "csv"),
    "kernel": ({"command": "kernel", "poly_tuple": SCALED, "m": [2, 1], "window": [6, 5], "cutoff": 4,
                "pairs": [[[[0.1, 0], [0.4, 0]], [[0.05, 0.05], [0, 0.3]]]]}, "json"),
    "weights-json": ({"command": "weights", "poly_tuple": SCALED, "m": [2, 3], "window": [3, 2]}, "json"),
    "weights-csv": ({"command": "weights", "poly_tuple": SCALED, "m": [2, 3], "window": [3, 2]}, "csv"),
    "probes": ({"command": "probes", "poly_tuple": SCALED, "m": [1, 2], "window": [3, 3]}, "json"),
    "probes-mixed": ({"command": "probes", "poly_tuple": MIXED, "m": [2, 1], "window": [2, 3]}, "json"),
}


@pytest.mark.parametrize("config, fmt", REDUCTION_FREE_JOBS.values(), ids=REDUCTION_FREE_JOBS)
def test_coeffs_and_kernel_build_no_fraction_table(monkeypatch, config, fmt):
    # coeffs formats each cell from (B(alpha), d^|alpha|) and the kernel series
    # divides the same pair into a float; weights and probes take each squared
    # weight from one integer quotient of the scaled table, also of the table
    # of the polydisc counterpart of MIXED.  SCALED has d = 30 and MIXED d = 15,
    # so none is trivial.  None reduces a whole table to Fractions.
    expected = cli.run(config, fmt=fmt)
    assert expected[0] == 0

    def refuse(*args):
        raise AssertionError("a whole coefficient table was reduced to Fractions")

    monkeypatch.setattr(coeff, "_reduced", refuse)
    assert cli.run(config, fmt=fmt) == expected


SQUARE_FREE_JOBS = {
    "scaled": {"command": "probes", "poly_tuple": SCALED, "m": [1, 2], "window": [3, 3]},
    "mixed": {"command": "probes", "poly_tuple": MIXED, "m": [2, 1], "window": [2, 3]},
    "hartogs-3": {"command": "probes", "poly_tuple": serialize(hartogs_tuple(3, F(1, 2))), "m": [1, 2, 1],
                  "window": [0, 2, 1], "theta_trials": 2},
    "weights-scaled": {"command": "weights", "poly_tuple": SCALED, "m": [2, 1], "window": [3, 2]},
    "weights-hartogs-3": {"command": "weights", "poly_tuple": serialize(hartogs_tuple(3, F(1, 2))),
                          "m": [1, 2, 1], "window": [1, 2, 1]},
}


@pytest.mark.parametrize("config", SQUARE_FREE_JOBS.values(), ids=SQUARE_FREE_JOBS)
def test_probes_and_weights_build_no_fraction_squares(monkeypatch, config):
    # The probe scans compare integer cross-products of the scaled table, and
    # the weights report reads one integer quotient per column, so the exact
    # views mult_sq and shift_sq, one Fraction per weight, are never built,
    # for the tuple or for its polydisc counterpart.
    expected = cli.run(config)
    assert expected[0] == 0

    def refuse(self):
        raise AssertionError("a report built the Fraction squares of a weight table")

    monkeypatch.setattr(shiftops.WeightTable, "mult_sq", property(refuse))
    monkeypatch.setattr(shiftops.WeightTable, "shift_sq", property(refuse))
    assert cli.run(config) == expected


def test_hereditary_classify_and_lift():
    identity2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    jordan = [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]
    code, report = run_json({"command": "hereditary",
                             "matrices": [jordan, identity2], "mode": "classify"})
    assert code == 0 and report["classification"] == "isometry"
    code, report = run_json({"command": "hereditary", "mode": "lift",
                             "matrices": [[[[0.5, 0]]], [[[0.8, 0]]]]})
    assert code == 0 and report["classification"] == "contraction"
    code, report = run_json({"command": "hereditary", "mode": "ordering",
                             "matrices": [[[[0.5, 0]]], [[[0.1, 0]]]]})
    assert code == 1 and not report["chain_holds"]


def test_hereditary_unknown_mode_exits_2(tmp_path):
    config = {"command": "hereditary", "mode": "bogus", "matrices": [[[[0.5, 0]]], [[[0.8, 0]]]]}
    assert _main_exit(tmp_path, config) == (2, {
        "error": "InvalidConfig", "message": "'mode' must be one of 'classify', 'lift', 'ordering', got 'bogus'"})


@pytest.mark.parametrize("mode", ["classify", "lift"])
def test_hereditary_classification_of_one_matrix_exits_2(tmp_path, mode):
    config = {"command": "hereditary", "mode": mode, "matrices": [[[[0.5, 0]]]]}
    assert _main_exit(tmp_path, config) == (
        2, {"error": "WrongDimension", "message": "classification needs at least two matrices"})


def test_pick_verify_exit_codes():
    base = {"command": "pick-verify", "points": [[[0, 0], [0.5, 0]]],
            "a1": [[[0, 0]]], "a2": [[[4 / 3, 0]]]}
    code, report = run_json({**base, "targets": [[0, 0]]})
    assert code == 0 and report["verified"]
    code, report = run_json({**base, "targets": [[1, 0]]})
    assert code == 1 and not report["verified"]


def test_quadrature_rows():
    code, report = run_json({"command": "quadrature", "l_max": 1, "k_max": 1,
                             "hardy": {"n": 2, "alpha": [1, 0]},
                             "bergman": {"m": [2, 2], "alpha": [1, 1]}})
    assert code == 0
    assert all(row["abs_err"] < 1e-9 for row in report["beta_integrals"])
    assert report["hardy_norm"] == pytest.approx(1.0, abs=1e-6)
    assert report["bergman_norm"] == pytest.approx(1.0, abs=1e-3)


def test_quadrature_radial_nodes_reach_the_bergman_check():
    # One Gauss-Legendre node at u = 1/2 gives the disc integral of u^2 as
    # pi/4 instead of pi/3, so the normalized Bergman norm reads 3/4.
    code, report = run_json({"command": "quadrature", "l_max": 0, "k_max": 0, "radial_nodes": 1,
                             "bergman": {"m": [2, 2], "alpha": [2, 0]}})
    assert code == 0
    assert report["bergman_norm"] == pytest.approx(0.75, abs=1e-12)


def test_unknown_command_and_bad_config():
    with pytest.raises(UnknownCommand):
        cli.run({"command": "nope"})
    with pytest.raises(InvalidConfig):
        cli.run({"command": "coeffs", "poly_tuple": P0, "m": [1], "window": [1, 1]})
    with pytest.raises(InvalidConfig):
        cli.run({"command": "probes", "poly_tuple": P0, "m": [1, 1], "window": [2, 2]},
                fmt="csv")


def test_reports_are_deterministic():
    config = {"command": "probes", "poly_tuple": P1, "m": [1, 1],
              "window": [2, 2], "theta_trials": 4}
    assert cli.run(config, seed=9) == cli.run(config, seed=9)
    code, rendered = cli.run({"command": "coeffs", "poly_tuple": P1,
                              "m": [1, 1], "window": [3, 3]}, fmt="csv")
    code2, rendered2 = cli.run({"command": "coeffs", "poly_tuple": P1,
                                "m": [1, 1], "window": [3, 3]}, fmt="csv")
    assert rendered == rendered2


def test_main_end_to_end(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"command": "validate", "poly_tuple": P0}))
    out = tmp_path / "report.json"
    code = cli.main(["--config", str(config), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["valid"]


def test_main_input_error_exit_2(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"command": "validate",
                                  "poly_tuple": {"n": 1, "polys": [{"terms": [
                                      {"alpha": [1], "coeff": "-1"}]}]}}))
    code = cli.main(["--config", str(config), "--out", str(tmp_path / "r.json")])
    assert code == 2
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["error"] == "NegativeCoefficient"


def test_main_missing_config_exit_2(tmp_path):
    assert cli.main(["--config", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("content", [
    b'{"command": "validate", "n": ' + b"1" * 5000 + b"}",
    b'{"command": "validate", "note": "\xff"}',
    b"[" * 100_000 + b"]" * 100_000,
], ids=["int-literal-too-long", "not-utf8", "nested-too-deep"])
def test_main_unreadable_config_exit_2(tmp_path, capsys, content):
    config = tmp_path / "run.json"
    config.write_bytes(content)
    assert cli.main(["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "cannot read config" in err and "Traceback" not in err


def test_main_exact_value_too_long_to_print_exit_2(tmp_path, capsys):
    # The partial trace of z_j + z_j^2 at K=25000 has numerator and denominator
    # of more than 4300 digits, the longest int Python converts to a string.
    code, report = _main_exit(tmp_path, {"command": "dettrace", "poly_tuple": FIB, "m": [1, 1], "K": 25000})
    assert code == 2
    assert report["error"] == "ResultTooLarge"
    assert f"{sys.get_int_max_str_digits()} digits" in report["message"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("a", [F(10 ** 50), F(10 ** 50, 3)], ids=["integer", "rational"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_main_coeffs_cell_too_long_to_print_exit_2(tmp_path, capsys, a, fmt):
    # A(100) of a z_1 is a^100, a numerator of 5001 digits: more than the 4300
    # Python converts to a string, both on the integer and the reduced-rational route.
    config = {"command": "coeffs", "poly_tuple": serialize(from_polys([{(1,): a}])), "m": [1], "window": [100]}
    code, report = _main_exit(tmp_path, config, "--format", fmt)
    assert code == 2
    assert report["error"] == "ResultTooLarge"
    assert f"{sys.get_int_max_str_digits()} digits" in report["message"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("out", ["absent/r.json", "."], ids=["missing-directory", "a-directory"])
def test_main_unwritable_out_exit_2(tmp_path, capsys, out):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"command": "validate", "poly_tuple": P0}))
    assert cli.main(["--config", str(config), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert "cannot write report" in err and "Traceback" not in err


def _main_exit(tmp_path, config, *args):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code = cli.main(["--config", str(path), "--out", str(tmp_path / "r.json"), *args])
    return code, json.loads((tmp_path / "r.json").read_text())


@pytest.mark.parametrize("command, knob", [("coeffs", {"method": "product"}),
                                           ("subnormality", {"variant": "admissible"})],
                         ids=["coeffs-method", "subnormality-variant"])
def test_route_fields_are_ignored(command, knob):
    # The route is picked from the tuple; a field that names one is an unknown
    # field, so it neither changes the report nor fails the run.
    config = {"command": command, "poly_tuple": P1, "m": [1, 1],
              **({"window": [2, 2]} if command == "coeffs" else {"gamma": [0, 0], "window": [1, 1]})}
    assert cli.run({**config, **knob}) == cli.run(config)


SHIFTOPS_JOBS = [
    {"command": "weights", "poly_tuple": P1, "m": [1, 2], "window": [3, 3]},
    {"command": "probes", "poly_tuple": P1, "m": [1, 1], "window": [3, 3], "theta_trials": 3},
]


@pytest.mark.parametrize("config, tables", [
    (SHIFTOPS_JOBS[0], 1), (SHIFTOPS_JOBS[1], 2),
    ({"command": "probes", "poly_tuple": SCALED, "m": [2, 1], "window": [3, 2], "theta_trials": 3}, 1),
], ids=["weights", "probes", "probes-admissible"])
def test_one_coefficient_table_per_job(monkeypatch, config, tables):
    # One table per distinct (tuple, m): probes on a tuple with a mixed term
    # builds a second one for its polydisc counterpart, and on an admissible
    # tuple, which is its own counterpart, reads both from the one table.
    calls = []
    build = shiftops.coeff_function

    def counting(*args, **kwargs):
        calls.append((serialize(args[0]), tuple(args[1])))
        return build(*args, **kwargs)

    monkeypatch.setattr(shiftops, "coeff_function", counting)
    code, _ = cli.run(config)
    assert code == 0
    assert len(calls) == tables
    assert all(call not in calls[:i] for i, call in enumerate(calls))


# Small configs of each command, with the layer that does their work.
TRACED_JOBS = {
    "validate": ("polytuple", [{"command": "validate", "poly_tuple": P1}]),
    "coeffs": ("coeff", [{"command": "coeffs", "poly_tuple": P1, "m": [1, 2], "window": [3, 3]}]),
    "domain": ("geometry", [{"command": "domain", "poly_tuple": P0, "points": [[[0.2, 0], [0.5, 0]]]}]),
    "kernel": ("kernel", [{"command": "kernel", "poly_tuple": P1, "m": [1, 1], "window": [3, 3],
                           "pairs": [[[[0.1, 0], [0.5, 0]], [[0.1, 0], [0.5, 0]]]]}]),
    "weights": ("shiftops", SHIFTOPS_JOBS[:1]),
    "probes": ("shiftops", SHIFTOPS_JOBS[1:]),
    "dettrace": ("shiftops", [{"command": "dettrace", "poly_tuple": SCALED, "m": [2, 3], "K": 10}]),
    "radius": ("shiftops", [{"command": "radius", "poly_tuple": SCALED, "m": [2, 1], "K": 5, "N": 20}]),
    "subnormality": ("subnormality", [
        {"command": "subnormality", "poly_tuple": P1, "m": [1, 1], "gamma": [0, 0], "window": [1, 1],
         "order": 2},
        {"command": "subnormality", "m": [2, 2], "gamma_bound": [1, 1], "window": [1, 1], "order": 2}]),
    "hereditary": ("hereditary", [{"command": "hereditary", "matrices": [[[[0.5, 0]]], [[[0.8, 0]]]],
                                   "mode": "lift"}]),
    "pick-verify": ("hereditary", [{"command": "pick-verify", "points": [[[0, 0], [0.5, 0]]],
                                    "targets": [[0, 0]], "a1": [[[0, 0]]], "a2": [[[4 / 3, 0]]]}]),
    "quadrature": ("kernel", [{"command": "quadrature", "l_max": 1, "k_max": 1,
                               "bergman": {"m": [2, 2], "alpha": [1, 0]}}]),
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_traced_run_times_shiftops(monkeypatch, command):
    # The benchmark's traced pass wraps the public functions of every layer; a
    # signature it cannot read would raise here.
    layer, configs = TRACED_JOBS[command]
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer(time.perf_counter)
    with tracer.installed():
        codes = [cli.run(config)[0] for config in configs]
    assert set(codes) <= {0, 1}
    assert tracer.metrics()[f"{layer}.self_s"] > 0


def test_traced_all_shift_certify_times_subnormality(monkeypatch):
    # An all-shift job reaches the tracer only through the hartogs_certify span,
    # since it no longer calls the per-shift functions.
    config = TRACED_JOBS["subnormality"][1][1]
    assert "gamma_bound" in config
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer(time.perf_counter)
    with tracer.installed():
        code, _ = cli.run(config)
    assert code == 0
    assert tracer.metrics()["subnormality.self_s"] > 0


def test_traced_probes_counts_one_weight_table_per_run(monkeypatch):
    # probes makes one probe call, which builds the one weight table and runs
    # every circularity trial on it, so the run counts one window of weights.
    config = SHIFTOPS_JOBS[1]
    assert config["theta_trials"] == 3
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer(time.perf_counter)
    with tracer.installed():
        code, rendered = cli.run(config)
    assert code == 0
    metrics = tracer.metrics()
    assert [name for layer, name, *_ in tracer.spans if layer == "shiftops"] == [
        "build_window", "factorization_and_commutation_probe"]
    assert metrics["shiftops.cells_checked"] == json.loads(rendered)["cells_checked"]
    assert metrics["shiftops.weights"] == math.prod(b + 1 for b in config["window"]) * 2


NUMPY_COMMANDS = ("hereditary", "pick-verify", "quadrature", "radius")
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}


def _modules_after(commands):
    """The numpy and hartogs.* modules a new interpreter holds after importing
    hartogs.cli, and after each cli.run of the TRACED_JOBS configs of each command."""
    code = ("import json, sys\n"
            "from hartogs import cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m == 'numpy' or m.startswith('hartogs.'))\n"
            "seen = [loaded()]\n"
            "for configs in json.loads(sys.argv[1]):\n"
            "    for config in configs:\n"
            "        assert cli.run(config)[0] in (0, 1)\n"
            "    seen.append(loaded())\n"
            "print(json.dumps(seen))\n")
    configs = json.dumps([TRACED_JOBS[command][1] for command in commands])
    proc = subprocess.run([sys.executable, "-c", code, configs], capture_output=True, text=True,
                          env=SRC_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [set(modules) for modules in json.loads(proc.stdout)]


def test_commands_without_numpy_never_import_it():
    commands = sorted(set(cli._COMMANDS) - set(NUMPY_COMMANDS))
    assert len(commands) == 8
    seen = _modules_after(commands)
    assert seen[0] == {"hartogs.cli", "hartogs.errors", "hartogs.polytuple"}
    assert all("numpy" not in modules for modules in seen)


@pytest.mark.parametrize("command", NUMPY_COMMANDS)
def test_numpy_commands_import_it(command):
    before, after = _modules_after([command])
    assert "numpy" not in before
    assert "numpy" in after


def test_coeffs_loads_only_its_layers():
    _, after = _modules_after(["coeffs"])
    assert "hartogs.coeff" in after
    assert not after & {"hartogs.shiftops", "hartogs.kernel", "hartogs.subnormality",
                        "hartogs.geometry", "hartogs.hereditary"}


def test_module_entry_point_imports_neither_numpy_nor_shiftops_for_coeffs(tmp_path):
    config = TRACED_JOBS["coeffs"][1][0]
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(config))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "hartogs.cli", "--config", str(path)],
                          capture_output=True, text=True, env=SRC_ENV, timeout=120)
    assert proc.returncode == 0
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}
    assert {"hartogs", "hartogs.coeff", "hartogs.polytuple"} <= imported
    assert not {name for name in imported if name == "numpy" or name.startswith("numpy.")}
    assert "hartogs.shiftops" not in imported
    assert proc.stdout == cli.run(config)[1]


def test_one_shot_validate_imports_neither_traceback_nor_csv(tmp_path):
    # traceback loads only on exit 3, and csv only for a CSV run without text columns.
    config = TRACED_JOBS["validate"][1][0]
    path = tmp_path / "validate.json"
    path.write_text(json.dumps(config))
    code = ("import runpy, sys\n"
            "sys.argv = ['hartogs', '--config', sys.argv[1]]\n"
            "try:\n"
            "    runpy.run_module('hartogs.cli', run_name='__main__')\n"
            "except SystemExit as exit:\n"
            "    assert exit.code == 0\n"
            "print(sorted({'traceback', 'csv'} & set(sys.modules)), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True,
                          env=SRC_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"
    assert proc.stdout == cli.run(config)[1]


def test_internal_error_prints_its_traceback(tmp_path, monkeypatch, capsys):
    def broken(config, rng):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "validate", (broken, {}))
    assert _main_exit(tmp_path, {"command": "validate"})[0] == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.endswith("RuntimeError: boom\n")


def test_second_routes_pass_on_the_smallest_job_of_each_command(monkeypatch):
    # The benchmark's independent checks, on one small job of every command.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    jobs = importlib.import_module("jobs")
    checks = importlib.import_module("checks")
    smallest = jobs.smallest_of_each(random.Random("smallest:1"), ())
    assert sorted(job.config["command"] for job in smallest) == sorted(cli._COMMANDS)
    for seed, job in enumerate(smallest, start=1):
        job.seed = seed  # checks compares it with the seed in the report
        code, rendered = cli.run(job.config, seed=job.seed, fmt=job.fmt)
        checks.check(job, code, rendered)


def _perfbench(*names):
    """The benchmark's modules, imported from perfbench/ without a fixture."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        return [importlib.import_module(name) for name in names]


GENERATED_COEFF = st.builds(F, st.integers(1, 3), st.integers(1, 4))


@st.composite
def generated_tuples(draw, n, admissible):
    """c_j z_j plus up to two terms of degree 2 or 3 with small rational
    coefficients; unless the tuple must be admissible, a term may be mixed."""
    polys = []
    for j in range(n):
        terms = {tuple(int(i == j) for i in range(n)): draw(GENERATED_COEFF)}
        for _ in range(draw(st.integers(0, 2))):
            degree = draw(st.integers(2, 3))
            if admissible or n == 1 or draw(st.booleans()):
                alpha = tuple(degree if i == j else 0 for i in range(n))
            else:
                alpha = tuple(draw(st.lists(st.integers(0, degree), min_size=n, max_size=n)
                                   .filter(lambda a: sum(a) >= 2 and sum(map(bool, a)) >= 2)))
            terms[alpha] = terms.get(alpha, 0) + draw(GENERATED_COEFF)
        polys.append(terms)
    return serialize(from_polys(polys))


def _generated_point(draw, n, lo, hi):
    """A point with quotient coordinates of modulus in [lo, hi], as [re, im] pairs."""
    z, tail = [], 1 + 0j
    for _ in range(n):
        tail *= cmath.rect(draw(st.floats(lo, hi)), draw(st.floats(0, 2 * math.pi)))
        z.append(tail)
    return [[c.real, c.imag] for c in reversed(z)]


def _ints(draw, n, lo, hi):
    return draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))


@st.composite
def generated_configs(draw, command):
    """A small config of command on a drawn tuple, n = 1 to 3: windows <= 4, K <= 40."""
    n = draw(st.integers(2 if command in ("probes", "dettrace") else 1, 2 if command == "dettrace" else 3))
    admissible = command in ("dettrace", "radius") or draw(st.booleans())
    config = {"command": command, "poly_tuple": draw(generated_tuples(n, admissible))}
    if command not in ("validate", "domain"):
        config["m"] = _ints(draw, n, 1, 2 if n == 3 else 3)
    if command in ("coeffs", "weights"):
        config["window"] = _ints(draw, n, 0, 4 if n < 3 else 2)
    elif command == "probes":
        config["window"] = _ints(draw, n - 2, 0, 3) + _ints(draw, 2, 1, 3 if n < 3 else 2)
        config["theta_trials"] = draw(st.integers(0, 3))
    elif command == "subnormality":
        config.update(gamma=_ints(draw, n, 0, 2), window=_ints(draw, n, 0, 2 if n < 3 else 1),
                      order=draw(st.integers(1, 3 if n < 3 else 1)))
    elif command == "dettrace":
        config["K"] = draw(st.integers(1, 40))
    elif command == "radius":
        config.update(j=draw(st.integers(1, n)), K=draw(st.integers(0, 10)), N=draw(st.integers(1, 30)))
    elif command == "kernel":
        # Quotient coordinates below 10^-2, so that the series truncated at
        # total degree 3 or 4 meets the closed form within the check's 1e-8.
        config["window"] = _ints(draw, n, 3, 4)
        config["pairs"] = [[_generated_point(draw, n, 1e-3, 1e-2) for _ in "zw"]
                           for _ in range(draw(st.integers(1, 2)))]
    elif command == "domain":
        config["points"] = [_generated_point(draw, n, 0.05, 1.5) for _ in range(draw(st.integers(1, 3)))]
    return config


@pytest.mark.parametrize("command", ["validate", "coeffs", "weights", "probes", "subnormality", "dettrace",
                                     "kernel", "domain", "radius"])
def test_second_routes_pass_on_generated_configs(command):
    # The benchmark's independent checks on configs drawn beyond its job lists:
    # admissible and mixed tuples with n = 1 to 3, and either format where the
    # check reads both (coeffs and weights).  hereditary and pick-verify are
    # left out: their checks read facts the job generator fixed.
    jobs, checks = _perfbench("jobs", "checks")

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(config=generated_configs(command), seed=st.integers(0, 10 ** 6),
           fmt=st.sampled_from(["json", "csv"] if command in checks.RENDERED else ["json"]))
    def second_routes_agree(config, seed, fmt):
        job = jobs.Job(config, fmt=fmt, seed=seed)
        code, rendered = cli.run(config, seed=seed, fmt=fmt)
        checks.check(job, code, rendered)

    second_routes_agree()


def _indent_2(report):
    """The rendering of every JSON body before the line layout."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _lines(rendered):
    """The report read line by line: each line is a brace, a top-level key or one list element."""
    lines = rendered.splitlines()
    assert rendered.endswith("\n") and lines[0] == "{" and lines[-1] == "}"
    report, in_list = {}, None
    for i, line in enumerate(lines[1:-1], start=1):
        last = lines[i + 1].removesuffix(",") in ("}", "  ]")
        assert line.endswith(",") != last or line.endswith("[")
        body = line.removesuffix(",")
        if in_list is not None and body == "  ]":
            in_list = None
        elif in_list is not None:
            assert body.startswith("    ") and not body[4].isspace()
            report[in_list].append(json.loads(body))
        else:
            key, value = body.split(": ", 1)
            assert key.startswith('  "') and not key[3].isspace()
            key = json.loads(key)
            report[key] = [] if value == "[" else json.loads(value)
            in_list = key if value == "[" else None
    assert in_list is None
    return report


def _scalars_only(report):
    return all(type(v) is not dict and (type(v) is not list or all(type(x) not in (list, dict) for x in v))
               for v in report.values())


# The keys of a coeffs or weights row, or of a dettrace diagonal entry, after its
# multi-index, in CSV column order, each with the type that reads its text as the
# value of the dict entry.
ROW_KEYS = {"coeffs": {"value": str}, "dettrace": {"value": str},
            "weights": {"j": int, "omega": float, "sigma": float, "hypo_diag": str}}


def _expanded(report):
    """report with each table of text columns written out as the dict entries it stands for."""
    def entries(table):
        keys = ROW_KEYS[report["command"]]
        assert all(list(group) == list(keys) for group in table.groups)
        return [{"alpha": list(alpha),
                 **{key: kind(column if type(column) is str else column[i])
                    for (key, kind), column in zip(keys.items(), group.values())}}
                for i, alpha in enumerate(box(table.bounds)) for group in table.groups]
    return {key: entries(value) if type(value) is cli._Table else value for key, value in report.items()}


def test_report_layout_on_the_smallest_job_of_each_command(monkeypatch):
    # Every JSON body has one line per top-level key and one compact line per
    # element of a list value; reports of scalars and lists of scalars keep
    # the bytes they had with indent=2.  coeffs, weights and the dettrace diagonal
    # hand their rows over as text columns, which read as the dict entries they stand for.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    jobs = importlib.import_module("jobs")
    rendered_reports, render = [], cli._render

    def recording(report):
        rendered_reports.append((report, render(report)))
        return rendered_reports[-1][1]

    monkeypatch.setattr(cli, "_render", recording)
    outputs = [cli.run(job.config, seed=seed)[1]
               for seed, job in enumerate(jobs.smallest_of_each(random.Random("smallest:1"), ()))]
    assert [rendered for _, rendered in rendered_reports] == outputs
    assert sorted(report["command"] for report, _ in rendered_reports) == sorted(cli._COMMANDS)
    assert sorted(report["command"] for report, _ in rendered_reports
                  if any(type(v) is cli._Table for v in report.values())) == sorted(ROW_KEYS)
    for report, rendered in rendered_reports:
        report = _expanded(report)
        assert json.loads(rendered) == report
        by_lines = _lines(rendered)
        assert by_lines == report and list(by_lines) == sorted(report)
        assert (rendered == _indent_2(report)) == _scalars_only(report)
    assert {_scalars_only(report) for report, _ in rendered_reports} == {True, False}


@pytest.mark.parametrize("report", [{"command": "x", "value": float("nan")},
                                    {"command": "x", "values": [1.0, float("inf")]},
                                    {"command": "x", "rows": [{"value": -float("inf")}]},
                                    {"command": "x", "table": {"nested": [float("nan")]}},
                                    {"command": "x", "rows": cli._Table((1,), [{"y": [repr(0.5), repr(float("nan"))]}],
                                                                         set())},
                                    {"command": "x", "rows": cli._Table((), [{"y": [repr(-float("inf"))]}], set())}],
                         ids=["scalar", "list", "list-element", "dict", "row-nan", "row-inf"])
def test_render_rejects_nan_and_infinity(report):
    with pytest.raises(ValueError):
        cli._render(report)


# The dict entries and CSV rows of coeffs and weights as they were built
# before the row template, kept as the oracle of the rendered bytes.

def _oracle_coeffs(P, m, bounds):
    table = coeff.coeff_function(P, m, bounds)
    B, scales = table.B, table.scales
    entries = [{"alpha": list(alpha), "value": format_rational(B[off], scales[sum(alpha)])}
               for alpha, off in zip(box(bounds), table.walk(bounds))]
    header = [f"alpha_{j + 1}" for j in range(P.n)] + ["value"]
    rows = ([*e["alpha"], e["value"]] for e in entries)
    return {"bounds": list(bounds), "entries": entries}, header, rows


def _oracle_weights(P, m, bounds):
    # Per cell and j, the quotients of the scaled table B(alpha) = d^|alpha| A(alpha):
    # omega^2 = d^(n-j) B(alpha) / B(alpha + tail_j), sigma^2 = d B(alpha) / B(alpha + e_j),
    # hypo_diag = d^(n-j) (B(alpha)^2 - B(alpha - tail_j) B(alpha + tail_j)) / (B(alpha) B(alpha + tail_j)).
    window = shiftops.build_window(bounds)
    wt = shiftops.op_weights(P, m, window)
    n, d = P.n, wt.d

    def B(alpha):
        return wt.B[wt._table.offset(alpha)]

    def weight(num, den, what):
        return math.sqrt(_to_float(num, what, den))

    def entry(alpha, j):
        tail, scale = tail_index(n, j), d ** (n - j)
        b, up, low = B(alpha), B(add_index(alpha, tail)), B(sub_index(alpha, tail))
        return {"alpha": list(alpha), "j": j + 1,
                "omega": weight(scale * b, up, "a squared weight omega^2"),
                "sigma": weight(d * b, B(add_index(alpha, unit_index(n, j))), "a squared weight sigma^2"),
                "hypo_diag": format_rational(scale * (b * b - low * up), b * up)}

    entries = [entry(alpha, j) for alpha in window.cells for j in range(n)]
    header = [f"alpha_{i + 1}" for i in range(P.n)] + ["j", "omega", "sigma", "hypo_diag"]
    rows = ([*e["alpha"], e["j"], e["omega"], e["sigma"], e["hypo_diag"]] for e in entries)
    return {"window": list(window.bounds), "weights": entries}, header, rows


# Small coefficients, or ones of up to 40 digits: then omega and sigma include
# exponent-form floats such as 1e-05, and hypo_diag runs to long cells.
RATIONAL_A = st.builds(F, st.integers(1, 7), st.integers(1, 5)) | st.builds(F, st.integers(1, 10 ** 40),
                                                                           st.integers(1, 10 ** 40))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_rows_render_the_bytes_of_the_dict_entries(data):
    # z_j + a*z_1*...*z_n (d = the denominator of a) or c_j*z_j (admissible),
    # on windows that often have a 0 bound.
    n = data.draw(st.integers(1, 3), label="n")
    if data.draw(st.booleans(), label="general"):
        P = hartogs_tuple(n, data.draw(RATIONAL_A, label="a"))
    else:
        P = from_polys([{unit_index(n, j): data.draw(RATIONAL_A, label=f"c_{j + 1}")} for j in range(n)])
    m = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n), label="m"))
    bounds = data.draw(st.lists(st.integers(0, 6 - n), min_size=n, max_size=n), label="window")
    if (zero := data.draw(st.integers(-1, n - 1), label="zero bound")) >= 0:
        bounds[zero] = 0
    bounds = tuple(bounds)
    config = {"poly_tuple": serialize(P), "m": list(m), "window": list(bounds)}
    for command, oracle in (("coeffs", _oracle_coeffs), ("weights", _oracle_weights)):
        report, header, rows = oracle(P, m, bounds)
        assert cli.run({"command": command, **config}, seed=3) == (
            0, cli._render({"command": command, "seed": 3, **report}))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        assert cli.run({"command": command, **config}, fmt="csv") == (0, buf.getvalue())


@pytest.mark.parametrize("message", ['value "1/0" is not a rational',
                                     "the weight ω₁(α) ≥ 10⁴⁰⁰ is beyond the float range",
                                     "tab\there, back\\slash, newline\n and \u0000 too"])
def test_error_body_bytes_as_with_indent_2(message):
    assert cli._error("InvalidConfig", message) == _indent_2({"error": "InvalidConfig", "message": message})


JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2 ** 200, 2 ** 200),
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]), st.text())
JSON_TREES = st.recursive(JSON_LEAVES, lambda children: st.lists(children, max_size=4)
                          | st.dictionaries(st.text(max_size=4), children, max_size=4), max_leaves=20)


def _dumps(value):
    return json.dumps(value, sort_keys=True, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
def test_encode_is_compact_json_with_sorted_keys(value):
    assert cli._encode(value) == _dumps(value)


@settings(max_examples=100, deadline=None)
@given(JSON_TREES, st.sampled_from([float("nan"), float("inf"), -float("inf")]),
       st.lists(st.sampled_from(["list", "dict"]), max_size=4))
def test_encode_rejects_nan_and_infinity_at_any_depth_and_then_encodes(value, bad, path):
    for kind in path:
        bad = [value, bad] if kind == "list" else {"b": bad, "a": value}
    with pytest.raises(ValueError):
        cli._encode(bad)
    assert cli._encode(value) == _dumps(value)


@pytest.mark.parametrize("value", [object(), [1, b"x"], {"a": {"b": {1j}}}], ids=["object", "bytes", "set"])
def test_encode_rejects_values_that_are_not_json(value):
    with pytest.raises(TypeError):
        cli._encode(value)
    assert cli._encode({"b": [1.5, "é"], "a": None}) == _dumps({"b": [1.5, "é"], "a": None})


def test_encode_raises_on_a_cycle():
    cycle: list = [1]
    cycle.append({"a": cycle})
    with pytest.raises(RecursionError):
        cli._encode(cycle)


AXIS_JOBS = [
    {"command": "radius", "poly_tuple": SCALED, "m": [2, 1], "j": 1, "K": 20, "N": 300},
    {"command": "dettrace", "poly_tuple": SCALED, "m": [2, 3], "K": 150},
    {"command": "coeffs", "poly_tuple": SCALED, "m": [2, 3], "window": [4, 3]},
    {"command": "weights", "poly_tuple": SCALED, "m": [2, 1], "window": [3, 2]},
    {"command": "subnormality", "poly_tuple": SCALED, "m": [2, 1], "gamma": [1, 0], "window": [1, 1],
     "order": 3},
    {"command": "probes", "poly_tuple": SCALED, "m": [2, 1], "window": [3, 2]},
]


@pytest.mark.parametrize("config", AXIS_JOBS,
                         ids=["radius", "dettrace", "coeffs", "weights", "subnormality", "probes"])
def test_axis_commands_never_reduce_a_whole_table(monkeypatch, config):
    # Every axis table comes from the scaled integer builder _axis_scaled:
    # radius and dettrace compare or take logs of it, and the one-shift
    # subnormality check puts its reciprocals over one denominator.  The
    # routes that reduce a whole table to Fractions must not run.  coeffs,
    # weights and probes on an admissible tuple build their one table with
    # the division kernel; probes reads the polydisc commutators off it too.
    expected = cli.run(config)

    def refuse(*args, **kwargs):
        raise AssertionError("a whole coefficient table was reduced to Fractions")

    for name in ("reciprocal_power_coeffs", "_reduced"):
        monkeypatch.setattr(coeff, name, refuse)
    assert expected[0] == 0
    assert cli.run(config) == expected


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_coeffs_formats_its_cells_a_column_at_a_time(monkeypatch, fmt):
    # coeffs reduces and formats its value column with C-level maps, never
    # through one format_rational call per cell.
    P = serialize(from_polys([{(1, 0): 1, (1, 1): F(2, 3)}, {(0, 1): 1, (1, 1): F(2, 3)}]))
    config = {"command": "coeffs", "poly_tuple": P, "m": [2, 2], "window": [12, 12]}
    expected = cli.run(config, fmt=fmt)
    calls = []

    def counted(*args):
        calls.append(args)
        return format_rational(*args)

    monkeypatch.setattr(cli, "format_rational", counted)
    assert cli.run(config, fmt=fmt) == expected
    assert calls == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_weights_formats_its_cells_a_column_at_a_time(monkeypatch, fmt):
    # weights reads its quotients as int columns and formats hypo_diag with
    # C-level maps, never through one format_rational call per cell.
    P = serialize(from_polys([{(1, 0): 1, (1, 1): F(2, 3)}, {(0, 1): 1, (1, 1): F(2, 3)}]))
    config = {"command": "weights", "poly_tuple": P, "m": [2, 2], "window": [12, 12]}
    expected = cli.run(config, fmt=fmt)
    calls = []

    def counted(*args):
        calls.append(args)
        return format_rational(*args)

    monkeypatch.setattr(cli, "format_rational", counted)
    assert cli.run(config, fmt=fmt) == expected
    assert calls == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_weights_turns_each_distinct_weight_into_text_once(monkeypatch, fmt):
    # The omega and sigma cells hold the text of their float, one str object
    # per distinct value.  With d = 1, omega_n = sigma_n, so each j = n row
    # holds one object twice.
    config = {"command": "weights", "poly_tuple": P1, "m": [1, 1], "window": [12, 12]}
    expected = cli.run(config, fmt=fmt)
    tables = []

    class Recorded(cli._Table):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(self)

    monkeypatch.setattr(cli, "_Table", Recorded)
    assert cli.run(config, fmt=fmt) == expected
    [table] = tables
    texts = [cell for group in table.groups for key in ("omega", "sigma") for cell in group[key]]
    assert {type(cell) for cell in texts} == {str}
    assert len({id(cell) for cell in texts}) == len(set(map(float, texts))) < len(texts)
    assert all(map(operator.is_, table.groups[1]["omega"], table.groups[1]["sigma"]))  # j = 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("window", [[0, 1], [1, 1]])
def test_weights_hypo_diag_too_long_to_print_fails_before_a_later_weight(tmp_path, window, fmt):
    # Under a 640-digit limit, hypo_diag of the first row (alpha = 0, j = 1) has
    # 661 digits, and omega_1 of a later row, at alpha = (0, 1), has no float
    # value.  The rows fail in order, so the run fails on the hypo_diag.
    E = 10 ** 330
    P = serialize(from_polys([{(1, 0): F(E, E + 1)}, {(0, 1): F(E + 2, E + 3), (0, 2): F(10 ** 400)}]))
    config = {"command": "weights", "poly_tuple": P, "m": [1, 1], "window": window}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, report = _main_exit(tmp_path, config, "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, report["error"]) == (2, "ResultTooLarge")
    assert "more than 640 digits" in report["message"]


def test_validate_and_radius_never_evaluate_a_term_map(monkeypatch):
    # The polydisc radii convert each restriction to float terms once and never
    # call poly_eval; domain (triangle_contains) still evaluates through it.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    jobs = [job for job in importlib.import_module("jobs").generate("operators", 1)
            if job.config["command"] in ("validate", "radius", "domain")]
    expected = [cli.run(job.config, seed=job.seed, fmt=job.fmt) for job in jobs]

    class Evaluated(Exception):
        pass

    def evaluated(*args):
        raise Evaluated

    monkeypatch.setattr(geometry, "poly_eval", evaluated)
    assert {job.config["command"] for job in jobs} == {"validate", "radius", "domain"}
    for job, run in zip(jobs, expected):
        if job.config["command"] == "domain":
            with pytest.raises(Evaluated):
                cli.run(job.config, seed=job.seed, fmt=job.fmt)
        else:
            assert cli.run(job.config, seed=job.seed, fmt=job.fmt) == run


@pytest.mark.parametrize("m", [(2, 1), (1, 1), (3, 2)])
def test_dettrace_decides_ratios_beyond_the_float_range_exactly(tmp_path, m):
    # With d = 10^400 every ratio B(k+1)/B(k) of the scaled axis tables is
    # beyond the float range, so the monotonicity scan falls back to the exact
    # products; the verdict is that of the Fraction ratios a_j(k).
    c = [F(10 ** 400 + 1, 10 ** 400), F(10 ** 400 + 3, 10 ** 400)]
    P = from_polys([{(1, 0): c[0]}, {(0, 1): c[1]}])
    code, report = _main_exit(tmp_path, {"command": "dettrace", "poly_tuple": serialize(P), "m": list(m), "K": 40})
    assert code == 0
    rep = shiftops.det_commutator_and_trace(P, m, 40)
    increasing = [all(a[k + 1] >= a[k] for k in range(40)) for a in (rep.ratios(0), rep.ratios(1))]
    assert report["increasing"] == increasing == list(rep.increasing)


def _list_of_dicts_dettrace(config, seed):
    """The dettrace report as the list-of-dicts route renders it: one dict per
    diagonal entry, in sorted order, each encoded by the C encoder."""
    P, m, K = parse_and_validate(config["poly_tuple"]), config["m"], config["K"]
    rep = shiftops.det_commutator_and_trace(P, m, K)
    return cli._render({"command": "dettrace", "seed": seed, "K": K, "increasing": list(rep.increasing),
                        "positive": rep.positive, "partial_trace": format_rational(rep.partial_trace),
                        "partial_trace_float": _to_float(rep.partial_trace, "the partial trace"),
                        "limit_trace": _to_float(rep.partial_trace, "the partial trace"),
                        "diagonal": [{"alpha": list(a), "value": format_rational(v)}
                                     for a, v in sorted(rep.diagonal.items())]})


@pytest.mark.parametrize("P", [P0, FIB, SCALED, serialize(from_polys([{(1, 0): F(4, 3)}, {(0, 1): F(5, 4)}]))],
                         ids=["hartogs", "fibonacci", "scaled-quadratic", "scaled"])
@pytest.mark.parametrize("m", [(1, 1), (2, 3), (3, 1)])
def test_dettrace_report_bytes_are_the_list_of_dicts_rendering(P, m):
    # The corner's text columns render the bytes of one dict per entry.
    for K in [*range(1, 9), 40]:
        config = {"command": "dettrace", "poly_tuple": P, "m": list(m), "K": K}
        assert cli.run(config, seed=K) == (0, _list_of_dicts_dettrace(config, K))


def test_dettrace_ratio_without_a_float_still_exits_2(tmp_path):
    # The ratios of 10^400 z_1 overflow in the scan; a_1(K) = 10^-400, and for
    # 10^-400 z_1 a_1(K) = 10^400, so the partial trace has no float value.
    for c in (F(10 ** 400), F(1, 10 ** 400)):
        P = serialize(from_polys([{(1, 0): c}, {(0, 1): 1}]))
        assert _main_exit(tmp_path, {"command": "dettrace", "poly_tuple": P, "m": [1, 1], "K": 5}) == (
            2, {"error": "MalformedInput", "message": "the partial trace has no float value"})


@pytest.mark.parametrize("c", [(F(1, 10 ** 200), F(1, 10 ** 200)), (F(1, 10 ** 300), F(1, 10 ** 5))],
                         ids=["square", "product"])
def test_dettrace_float_trace_beyond_the_float_range_exits_2(tmp_path, c):
    # a_j(K) = 1/c_j for c_j z_j: the exact partial traces 10^600 and 10^310
    # are beyond the float range.
    P = serialize(from_polys([{(1, 0): c[0]}, {(0, 1): c[1]}]))
    assert _main_exit(tmp_path, {"command": "dettrace", "poly_tuple": P, "m": [1, 1], "K": 5}) == (
        2, {"error": "MalformedInput", "message": "the partial trace has no float value"})


def _one_float_of_the_partial_trace(report):
    assert report["limit_trace"] == report["partial_trace_float"] == float(F(report["partial_trace"]))
    return report["limit_trace"]


@pytest.mark.parametrize("c, trace", [((F(1, 10 ** 10), F(10 ** 160)), 1e-310),
                                      ((F(10 ** 100), F(1, 10 ** 200)), 1e300)],
                         ids=["subnormal-square", "product-beyond-the-float-range"])
def test_dettrace_limit_trace_is_the_float_of_the_exact_partial_trace(tmp_path, c, trace):
    # a_j(K) = 1/c_j for c_j z_j.  The float product a_1 a_2^2 lost five digits
    # in the subnormal square 10^-320, and overflowed in the square 10^400,
    # though the exact partial traces 10^-310 and 10^300 have floats.
    P = serialize(from_polys([{(1, 0): c[0]}, {(0, 1): c[1]}]))
    code, report = _main_exit(tmp_path, {"command": "dettrace", "poly_tuple": P, "m": [1, 1], "K": 5})
    assert code == 0 and _one_float_of_the_partial_trace(report) == trace


@pytest.mark.parametrize("P", [P0, FIB, SCALED, serialize(from_polys([{(1, 0): F(4, 3)}, {(0, 1): F(5, 4)}]))],
                         ids=["hartogs", "fibonacci", "scaled-quadratic", "scaled"])
@pytest.mark.parametrize("m", [(1, 1), (2, 3), (3, 1)])
def test_dettrace_limit_trace_is_the_float_of_the_partial_trace_on_the_sweep(P, m):
    for K in [*range(1, 9), 40]:
        code, report = run_json({"command": "dettrace", "poly_tuple": P, "m": list(m), "K": K})
        assert code == 0
        _one_float_of_the_partial_trace(report)


def test_domain_point_whose_squared_modulus_overflows_is_outside(tmp_path):
    point = [[1e200, 0], [0.5, 0]]
    code, report = _main_exit(tmp_path, {"command": "domain", "poly_tuple": P0, "points": [point]})
    assert code == 0
    assert report["points"] == [{"point": point, "inside": False}]


# (a z_1, z_2) for a linear coefficient a, or a weight of M_z, beyond the float range
TINY, SUBNORMAL, HUGE = (serialize(from_polys([{(1, 0): a}, {(0, 1): 1}]))
                         for a in (F(1, 10 ** 400), F(1, 10 ** 320), F(10 ** 400)))
MILLION = serialize(from_polys([{(1, 0): 10 ** 6}, {(0, 1): 1}]))  # A(60, 0) = 10^360

PICK = {"command": "pick-verify", "points": [[[0, 0], [0.5, 0]]], "targets": [[0, 0]],
        "a1": [[[0, 0]]], "a2": [[[4 / 3, 0]]]}
PICK2 = {**PICK, "points": [[[0, 0], [0.95, 0]], [[0, 0], [-0.95, 0]]], "targets": [[0, 0], [0, 0]],
         "a2": [[[4 / 3, 0], [0, 0]], [[0, 0], [4 / 3, 0]]]}

# Malformed configs that ended in a traceback or were silently accepted before
# each command declared its fields in a table, and finite matrix entries whose
# commutators, products T*T or Pick certificate terms overflow the float range,
# and points whose kernel value overflows it.
PROBES = {
    "radius-N-0": {"command": "radius", "poly_tuple": P0, "m": [1, 1], "N": 0},
    "radius-K-string": {"command": "radius", "poly_tuple": P0, "m": [1, 1], "K": "x"},
    "hereditary-no-matrices": {"command": "hereditary", "matrices": []},
    "hereditary-overflow": {"command": "hereditary", "matrices": [[[[1e300, 0]]], [[[1e300, 0]]]]},
    "hereditary-classify-product-overflow": {"command": "hereditary",
                                             "matrices": [[[[1e160, 0]]], [[[1e140, 0]]]]},
    "hereditary-ordering-product-overflow": {"command": "hereditary", "mode": "ordering",
                                             "matrices": [[[[1e160, 0]]], [[[1e140, 0]]]]},
    "hereditary-ordering-top-overflow": {"command": "hereditary", "mode": "ordering",
                                         "matrices": [[[[1e200, 0]]]]},
    "hereditary-lift-overflow": {"command": "hereditary", "mode": "lift",
                                 "matrices": [[[[1e100, 0]]], [[[1e100, 0]]]]},
    "hereditary-classify-chain-overflow": {"command": "hereditary",
                                           "matrices": [[[[1e80, 0]]], [[[1e79, 0]]], [[[1e78, 0]]]]},
    "pick-verify-short-targets": {**PICK, "points": [[[0, 0], [0.5, 0]], [[0, 0], [0.6, 0]]],
                                  "a1": [[[0, 0], [0, 0]]] * 2,
                                  "a2": [[[4 / 3, 0], [0, 0]], [[0, 0], [4 / 3, 0]]]},
    "pick-verify-ragged-a1": {**PICK, "a1": [[[0, 0]], [[0, 0], [0, 0]]]},
    # the operator norm of a1 is 2e308
    "pick-verify-norm-overflow": {**PICK2, "a1": [[[1e308, 0], [1e308, 0]], [[1e308, 0], [1e308, 0]]]},
    # the loose tolerance lets the (0, 0) entry pass; the (0, 1) entry overflows
    "pick-verify-identity-overflow": {**PICK2, "tolerance": 1e308,
                                      "a1": [[[8e307, 0], [-8e307, 0]], [[-8e307, 0], [8e307, 0]]],
                                      "a2": [[[8e307, 0], [8e307, 0]], [[8e307, 0], [8e307, 0]]]},
    "subnormality-order-0": {"command": "subnormality", "m": [2, 2], "gamma_bound": [1, 1], "order": 0},
    "subnormality-order-float": {"command": "subnormality", "m": [2, 2], "gamma_bound": [1, 1],
                                 "order": 2.0},
    "subnormality-scale-0": {"command": "subnormality", "poly_tuple": P0, "m": [1, 1],
                             "gamma": [0, 0], "scale": "0"},
    "subnormality-scale-float": {"command": "subnormality", "poly_tuple": P0, "m": [1, 1],
                                 "gamma": [0, 0], "scale": 0.1},
    "m-bool": {"command": "coeffs", "poly_tuple": P0, "m": [True, 1], "window": [1, 1]},
    "window-bool": {"command": "coeffs", "poly_tuple": P0, "m": [1, 1], "window": [True, 1]},
    "K-bool": {"command": "dettrace", "poly_tuple": P0, "m": [1, 1], "K": True},
    # the tail coordinates square to a subnormal, so the kernel prefactor overflows
    "kernel-value-overflow": {"command": "kernel", "poly_tuple": P0, "m": [1, 1], "window": [3, 3],
                              "pairs": [[[[0, 0], [1e-160, 0]], [[0, 0], [1e-160, 0]]]]},
    "domain-3-coordinates": {"command": "domain", "poly_tuple": P0,
                             "points": [[[0.1, 0], [0.5, 0], [0.5, 0]]]},
    "hardy-alpha-length": {"command": "quadrature", "l_max": 0, "k_max": 0,
                           "hardy": {"n": 2, "alpha": [1]}},
    "hardy-no-alpha": {"command": "quadrature", "l_max": 0, "k_max": 0, "hardy": {"n": 2}},
    "quadrature-radial-nodes-0": {"command": "quadrature", "radial_nodes": 0},
    "probes-theta-trials-string": {"command": "probes", "poly_tuple": P1, "m": [1, 1],
                                   "window": [2, 2], "theta_trials": "3"},
    "validate-linear-tiny": {"command": "validate", "poly_tuple": TINY},
    "validate-linear-huge": {"command": "validate", "poly_tuple": HUGE},
    # 1/a_1 overflows to inf, where the radius bisection never ended
    "validate-linear-subnormal": {"command": "validate", "poly_tuple": SUBNORMAL},
    "radius-linear-tiny": {"command": "radius", "poly_tuple": TINY, "m": [1, 1]},
    "radius-linear-huge": {"command": "radius", "poly_tuple": HUGE, "m": [1, 1]},
    "weights-linear-tiny": {"command": "weights", "poly_tuple": TINY, "m": [1, 1], "window": [2, 2]},
    "dettrace-linear-tiny": {"command": "dettrace", "poly_tuple": TINY, "m": [1, 1], "K": 3},
    # a weight, a coefficient of P or a coefficient A(alpha) without a float value
    # exited 3 or was read as 0.0, and a point was called outside for it
    "probes-linear-tiny": {"command": "probes", "poly_tuple": TINY, "m": [1, 1], "window": [2, 2]},
    "probes-linear-huge": {"command": "probes", "poly_tuple": HUGE, "m": [1, 1], "window": [2, 2]},
    # an empty m raised MalformedInput about a tuple the config does not hold
    "subnormality-m-empty": {"command": "subnormality", "m": [], "gamma_bound": []},
    "weights-linear-huge": {"command": "weights", "poly_tuple": HUGE, "m": [1, 1], "window": [1, 1]},
    "domain-linear-huge": {"command": "domain", "poly_tuple": HUGE, "points": [[[0, 0], [0.5, 0]]]},
    "kernel-coefficient-overflow": {"command": "kernel", "poly_tuple": MILLION, "m": [1, 1],
                                    "window": [60, 60], "cutoff": 60,
                                    "pairs": [[[[0, 0], [0.5, 0]], [[0, 0], [0.5, 0]]]]},
    "quadrature-bergman-overflow": {"command": "quadrature", "l_max": 0, "k_max": 0,
                                    "bergman": {"m": [2000, 2], "alpha": [2000, 0]}},
    # no noncommuting witness fits in these windows
    "probes-window-0-0": {"command": "probes", "poly_tuple": P1, "m": [1, 1], "window": [0, 0]},
    "probes-window-1-0": {"command": "probes", "poly_tuple": P1, "m": [1, 1], "window": [1, 0]},
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_malformed_config_exit_2(tmp_path, name):
    code, report = _main_exit(tmp_path, PROBES[name])
    assert code == 2
    assert set(report) == {"error", "message"}


# The CSV rows are built from the report entries only in a CSV run, so a value
# without a float form must fail there as it does in JSON.
@pytest.mark.parametrize("name", ["domain-linear-huge", "kernel-coefficient-overflow", "kernel-value-overflow",
                                  "quadrature-bergman-overflow", "weights-linear-huge", "weights-linear-tiny"])
def test_malformed_value_csv_exit_2_with_the_json_error_body(tmp_path, name):
    code, report = _main_exit(tmp_path, PROBES[name], "--format", "csv")
    assert code == 2
    assert (code, report) == _main_exit(tmp_path, PROBES[name])


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", ["weights-linear-tiny", "weights-linear-huge"])
def test_weights_without_a_float_value_name_the_first_weight_in_row_order(tmp_path, name, fmt):
    # omega_1 at alpha = 0 is the first weight of the rows; it has no float value.
    assert _main_exit(tmp_path, PROBES[name], "--format", fmt) == (
        2, {"error": "MalformedInput", "message": "a squared weight omega^2 has no float value"})


def test_all_shift_subnormality_names_an_empty_m(tmp_path):
    assert _main_exit(tmp_path, PROBES["subnormality-m-empty"]) == (
        2, {"error": "InvalidConfig", "message": "'m' must be a list of 1 or more integers >= 1, got []"})


def test_bergman_names_an_empty_m(tmp_path):
    # An empty m made the Bergman norm an empty product, a vacuous 1.0.
    config = {"command": "quadrature", "l_max": 0, "k_max": 0, "bergman": {"m": [], "alpha": []}}
    assert _main_exit(tmp_path, config) == (
        2, {"error": "InvalidConfig", "message": "'bergman.m' must be a list of 1 or more integers >= 1, got []"})


def test_every_command_rejects_a_seed_that_is_not_an_int(monkeypatch):
    # Only probes builds a generator from the seed, and every command checks it:
    # a seed that random.Random refuses ([1]) or takes (1.5, "1", None, True)
    # is never echoed into a report.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    jobs = importlib.import_module("jobs")
    smallest = jobs.smallest_of_each(random.Random("smallest:1"), ())
    assert sorted(job.config["command"] for job in smallest) == sorted(cli._COMMANDS)
    for job in smallest:
        code, report = run_json(job.config, seed=7)
        assert code in (0, 1) and report["seed"] == 7
        for seed in ([1], 1.5, "1", None, True):
            with pytest.raises(InvalidConfig, match="seed must be an integer"):
                cli.run(job.config, seed=seed)


def test_probes_divide_the_weights_into_floats_only_for_circularity(tmp_path):
    # The weights of (z_1/10^400, z_2) have no float value; the exact probes
    # never divide them, and only a circularity trial does.
    config = {**PROBES["probes-linear-tiny"], "theta_trials": 0}
    code, report = _main_exit(tmp_path, config)
    assert code == 0
    assert report["factorization_exact"] and report["noncommuting_witness"] is not None
    assert report["circularity_max_deviation"] == 0.0
    assert _main_exit(tmp_path, {**config, "theta_trials": 1}) == (
        2, {"error": "MalformedInput", "message": "a squared weight has no float value"})


@pytest.mark.parametrize("a1", [[[[0, 0], [1e308, 0]], [[-1e308, 0], [0, 0]]],
                                [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]],
                                [[[-1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]],
                         ids=["skew", "hermitian", "indefinite"])
def test_pick_verify_extreme_finite_certificate_gets_a_verdict(a1):
    # the skew and Hermitian parts of these certificates are representable, so
    # they are judged (and fail) rather than rejected as input errors
    code, report = run_json({**PICK2, "a1": a1})
    assert code == 1 and not report["verified"]


def test_internal_error_exit_3(tmp_path, monkeypatch):
    def broken(config, rng):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "validate", (broken, {}))
    code, report = _main_exit(tmp_path, {"command": "validate"})
    assert code == 3
    assert report == {"error": "InternalError", "message": "RuntimeError: boom"}


# The fields of each command that takes a poly_tuple, besides it.
TUPLE_JOBS = {"validate": {}, "coeffs": {"m": [1, 1], "window": [2, 2]},
              "domain": {"points": [[[0.1, 0], [0.5, 0]], [[0, 0], [0.5, 0]]]},
              "kernel": {"m": [1, 1], "window": [3, 3], "pairs": [[[[0.1, 0], [0.5, 0]]] * 2]},
              "weights": {"m": [1, 1], "window": [2, 2]}, "probes": {"m": [1, 1], "window": [2, 2]},
              "dettrace": {"m": [1, 1], "K": 3}, "radius": {"m": [1, 1], "j": 2},
              "subnormality": {"m": [1, 1], "gamma": [1, 1]}}


@pytest.mark.parametrize("tuple_name", ["TINY", "SUBNORMAL", "HUGE"])
@pytest.mark.parametrize("command", sorted(TUPLE_JOBS))
def test_linear_coefficient_beyond_the_float_range_never_exits_3(tmp_path, command, tuple_name):
    assert set(TUPLE_JOBS) == {name for name, (_, fields) in cli._COMMANDS.items() if "poly_tuple" in fields}
    code, report = _main_exit(tmp_path, {"command": command, "poly_tuple": globals()[tuple_name],
                                         **TUPLE_JOBS[command]})
    assert code in (0, 1, 2)
    assert code < 2 or set(report) == {"error", "message"}


def test_kernel_coefficients_below_the_float_range_add_nothing():
    # A(k) = 2^-k rounds to 0.0 beyond k = 1074, below the resolution of the sum.
    half = {"n": 1, "polys": [{"terms": [{"alpha": [1], "coeff": "1/2"}]}]}
    code, report = run_json({"command": "kernel", "poly_tuple": half, "m": [1], "window": [1100],
                             "cutoff": 1100, "pairs": [[[[0.5, 0]], [[0.5, 0]]]]})
    assert code == 0
    assert report["pairs"] == [{"z": [[0.5, 0.0]], "w": [[0.5, 0.0]], "closed": [8 / 7, 0.0],
                                "series": [8 / 7, 0.0], "abs_err": 0.0}]


# z_2 conj(z_2) rounds to 1.0 at a point whose |z_2|^2 stays below 1, so the
# triangle admits it and 1 - P_2(u) is 0; (1 - P_1(u))^2000 overflows the complex power.
EDGE_POINT = [[0, 0], [-0.8615152973515641, -0.5077316145654572]]
KERNEL_FACTOR_LEAVES_THE_FLOATS = {
    "factor-rounds-to-0": {"m": [1, 1], "window": [2, 2], "pairs": [[EDGE_POINT, EDGE_POINT]]},
    "factor-overflows": {"m": [2000, 1], "window": [1, 1],
                         "pairs": [[[[0.475, 0], [0.5, 0]], [[-0.475, 0], [0.5, 0]]]]},
}


@pytest.mark.parametrize("fields", KERNEL_FACTOR_LEAVES_THE_FLOATS.values(), ids=KERNEL_FACTOR_LEAVES_THE_FLOATS)
def test_main_kernel_factor_beyond_the_float_range_exit_2(tmp_path, capsys, fields):
    code, report = _main_exit(tmp_path, {"command": "kernel", "poly_tuple": P0, **fields})
    assert code == 2
    assert report["error"] == "MalformedInput"
    assert "of 0 or beyond the float range" in report["message"]
    assert "Traceback" not in capsys.readouterr().err


def test_module_entry_point_malformed_config_exit_2(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(PROBES["radius-N-0"]))
    proc = subprocess.run([sys.executable, "-m", "hartogs.cli", "--config", str(path)],
                          capture_output=True, text=True, env=SRC_ENV, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == "InvalidConfig"


SMALL, POSITIVE = st.integers(0, 3), st.integers(1, 3)
PAIR_OF_SMALL = st.lists(SMALL, min_size=2, max_size=2)
PAIR_OF_POSITIVE = st.lists(POSITIVE, min_size=2, max_size=2)
POINT = st.lists(st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=2), min_size=2, max_size=2)
TUPLE = st.sampled_from([P0, P1, FIB])
SIZED = {"poly_tuple": TUPLE, "m": PAIR_OF_POSITIVE, "window": PAIR_OF_SMALL}
IDENTITY2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
JORDAN = [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]
VALID = {
    "validate": {"poly_tuple": TUPLE},
    "coeffs": SIZED,
    "domain": {"poly_tuple": TUPLE, "points": st.lists(POINT, max_size=2)},
    "kernel": {**SIZED, "cutoff": SMALL, "pairs": st.lists(st.lists(POINT, min_size=2, max_size=2),
                                                           max_size=1)},
    "weights": SIZED,
    "probes": {**SIZED, "theta_trials": SMALL, "circularity_tolerance": SMALL},
    "dettrace": {"poly_tuple": TUPLE, "m": PAIR_OF_POSITIVE, "K": POSITIVE},
    "radius": {"poly_tuple": TUPLE, "m": PAIR_OF_POSITIVE, "j": st.integers(1, 2), "K": SMALL,
               "N": POSITIVE},
    "subnormality": {**SIZED, "gamma": PAIR_OF_SMALL, "gamma_bound": PAIR_OF_SMALL, "order": POSITIVE,
                     "scale": st.sampled_from([1, 2, "1/2"])},
    "hereditary": {"matrices": st.sampled_from([[JORDAN, IDENTITY2], [[[[0.5, 0]]], [[[0.8, 0]]]],
                                                [[[[0.5, 0]]]], [IDENTITY2, JORDAN, IDENTITY2]]),
                   "tolerance": SMALL, "commutation_tolerance": SMALL,
                   "mode": st.sampled_from(["classify", "lift", "ordering"])},
    "pick-verify": {"points": st.just(PICK["points"]), "targets": st.sampled_from([[[0, 0]], [[1, 0]]]),
                    "a1": st.just(PICK["a1"]), "a2": st.just(PICK["a2"]), "tolerance": SMALL},
    "quadrature": {"l_max": SMALL, "k_max": SMALL, "radial_nodes": POSITIVE,
                   "hardy": st.fixed_dictionaries({"n": st.just(2), "alpha": PAIR_OF_SMALL}),
                   "bergman": st.fixed_dictionaries({"m": st.lists(st.integers(2, 3), min_size=2,
                                                                   max_size=2),
                                                     "alpha": PAIR_OF_SMALL})},
}
WRONG = st.one_of(st.booleans(), st.text(max_size=3), st.floats(), st.none(), st.integers(-3, -1),
                  st.lists(st.lists(SMALL, max_size=2), max_size=2))
ABSENT = object()
VERDICT_FIELDS = {"verdict", "verified", "classification", "chain_holds"}


def _not_json(constant):
    raise ValueError(f"report contains {constant}, which is not JSON")


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_run_exits_0_or_1_with_verdict_or_raises_hartogs_error(command, data):
    assert set(VALID[command]) == set(cli._COMMANDS[command][1])  # every field is drawn
    config = {"command": command}
    for field, valid in VALID[command].items():
        # Three fields in four are valid, so that most commands run to the end.
        wrong = data.draw(st.integers(0, 3), label=f"{field} is wrong") == 3
        value = data.draw(st.one_of(WRONG, st.just(ABSENT)) if wrong else valid, label=field)
        if value is not ABSENT:
            config[field] = value
    try:
        code, rendered = cli.run(config)
    except HartogsError:
        return
    report = json.loads(rendered, parse_constant=_not_json)
    assert code == 0 or (code == 1 and VERDICT_FIELDS & set(report))
