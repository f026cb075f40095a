import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hartogs import cli
from hartogs.errors import HartogsError, InvalidConfig, UnknownCommand
from hartogs.polytuple import from_polys, hartogs_tuple, serialize

P0 = serialize(hartogs_tuple(2))
P1 = serialize(hartogs_tuple(2, 1))
FIB = serialize(from_polys([{(1, 0): 1, (2, 0): 1}, {(0, 1): 1, (0, 2): 1}]))


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


def _main_exit(tmp_path, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code = cli.main(["--config", str(path), "--out", str(tmp_path / "r.json")])
    return code, json.loads((tmp_path / "r.json").read_text())


def test_coeffs_unknown_method_exit_2(tmp_path):
    code, report = _main_exit(tmp_path, {"command": "coeffs", "poly_tuple": P0, "m": [1, 1],
                                         "window": [2, 2], "method": "bogus"})
    assert code == 2
    assert report["error"] == "InvalidConfig"


def test_coeffs_product_method_on_mixed_terms_exit_2(tmp_path):
    code, report = _main_exit(tmp_path, {"command": "coeffs", "poly_tuple": P1, "m": [1, 1],
                                         "window": [2, 2], "method": "product"})
    assert code == 2
    assert report["error"] == "InvalidConfig"


PICK = {"command": "pick-verify", "points": [[[0, 0], [0.5, 0]]], "targets": [[0, 0]],
        "a1": [[[0, 0]]], "a2": [[[4 / 3, 0]]]}

# Malformed configs that ended in a traceback or were silently accepted before
# each command declared its fields in a table, and finite matrix entries whose
# commutators or products T*T overflow the float range.
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
    "domain-3-coordinates": {"command": "domain", "poly_tuple": P0,
                             "points": [[[0.1, 0], [0.5, 0], [0.5, 0]]]},
    "hardy-alpha-length": {"command": "quadrature", "l_max": 0, "k_max": 0,
                           "hardy": {"n": 2, "alpha": [1]}},
    "hardy-no-alpha": {"command": "quadrature", "l_max": 0, "k_max": 0, "hardy": {"n": 2}},
    "quadrature-radial-nodes-0": {"command": "quadrature", "radial_nodes": 0},
    "probes-theta-trials-string": {"command": "probes", "poly_tuple": P1, "m": [1, 1],
                                   "window": [2, 2], "theta_trials": "3"},
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_malformed_config_exit_2(tmp_path, name):
    code, report = _main_exit(tmp_path, PROBES[name])
    assert code == 2
    assert set(report) == {"error", "message"}


def test_internal_error_exit_3(tmp_path, monkeypatch):
    def broken(config, rng):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "validate", (broken, {}))
    code, report = _main_exit(tmp_path, {"command": "validate"})
    assert code == 3
    assert report == {"error": "InternalError", "message": "RuntimeError: boom"}


def test_module_entry_point_malformed_config_exit_2(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(PROBES["radius-N-0"]))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "hartogs.cli", "--config", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
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
    "coeffs": {**SIZED, "method": st.sampled_from(["auto", "product", "convolution"])},
    "domain": {"poly_tuple": TUPLE, "points": st.lists(POINT, max_size=2)},
    "kernel": {**SIZED, "cutoff": SMALL, "pairs": st.lists(st.lists(POINT, min_size=2, max_size=2),
                                                           max_size=1)},
    "weights": SIZED,
    "probes": {**SIZED, "theta_trials": SMALL, "circularity_tolerance": SMALL},
    "dettrace": {"poly_tuple": TUPLE, "m": PAIR_OF_POSITIVE, "K": POSITIVE},
    "radius": {"poly_tuple": TUPLE, "m": PAIR_OF_POSITIVE, "j": st.integers(1, 2), "K": SMALL,
               "N": POSITIVE},
    "subnormality": {**SIZED, "gamma": PAIR_OF_SMALL, "gamma_bound": PAIR_OF_SMALL, "order": POSITIVE,
                     "variant": st.sampled_from(["general", "admissible"]),
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
    assert code == 0 or (code == 1 and VERDICT_FIELDS & set(json.loads(rendered)))
