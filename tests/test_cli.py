import json

import pytest

from hartogs import cli
from hartogs.errors import InvalidConfig, UnknownCommand
from hartogs.polytuple import hartogs_tuple, serialize

P0 = serialize(hartogs_tuple(2))
P1 = serialize(hartogs_tuple(2, 1))


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
