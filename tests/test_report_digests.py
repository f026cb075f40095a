"""Byte-identity and value-identity of the CLI reports on the benchmark's jobs of seeds 1-3.

tests/data/report_digests.json holds two SHA-256 per seed, workload and
sub-command, over the exit code and report of each of its jobs in job order,
and, for a sub-command with a CSV form, a second pair over the same jobs in
the format each job does not name, under ``workload/command@format``:
a byte digest over the rendered report, and a value digest over its canonical
parsed value (``json.dumps(json.loads(report), sort_keys=True)`` for JSON, the
text itself for CSV).  A change that alters any report byte changes a byte
digest; a change of layout alone leaves the value digests as they are.  The exact
commands use only exact or correctly rounded arithmetic, so their digests are
compared on every platform.  The other commands go through libm or LAPACK,
whose last bits may differ between builds, so their digests are compared only
when the Python minor version, the numpy version and the machine match the
recorded ones.

Regenerate the file after a deliberate report change with
``PYTHONPATH=src python tests/test_report_digests.py``; it prints each
digest that changed, as ``kind seed workload/command``, so a report-changing
commit shows exactly which commands moved.
"""

import hashlib
import importlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from hartogs import cli

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "data" / "report_digests.json"
SEEDS = (1, 2, 3)
WORKLOADS = ("tables", "certify", "operators")
EXACT_COMMANDS = {"coeffs", "weights", "dettrace", "subnormality"}
FORMATS = ("csv", "json")


def _environment() -> dict:
    return {"python": "%d.%d" % sys.version_info[:2], "numpy": np.__version__,
            "machine": platform.machine()}


def _value(rendered: str, fmt: str) -> str:
    return json.dumps(json.loads(rendered), sort_keys=True) if fmt == "json" else rendered


def _command(key: str) -> str:
    """The sub-command of a 'workload/command' or 'workload/command@format' key."""
    return key.split("/")[1].split("@")[0]


def report_digests(jobs, seed: int) -> dict[str, dict[str, str]]:
    """'digests' and 'value_digests': 'workload/command' -> SHA-256 over the
    (code, rendered) and over the (code, canonical value) of its jobs of the seed,
    each in its own format.  A job of a command with a CSV form is also run in
    the other format, under 'workload/command@format'."""
    hashers: dict[str, dict[str, hashlib._Hash]] = {"digests": {}, "value_digests": {}}
    for workload in WORKLOADS:
        for job in jobs.generate(workload, seed):
            command = job.config["command"]
            for fmt in FORMATS if command in cli.CSV_COMMANDS else (job.fmt,):
                code, rendered = cli.run(job.config, seed=job.seed, fmt=fmt)
                key = f"{workload}/{command}" + ("" if fmt == job.fmt else f"@{fmt}")
                for kind, text in (("digests", rendered), ("value_digests", _value(rendered, fmt))):
                    hashers[kind].setdefault(key, hashlib.sha256()).update(f"{code}\0{text}\0".encode())
    return {kind: {key: h.hexdigest() for key, h in sorted(by_key.items())}
            for kind, by_key in hashers.items()}


def all_digests(jobs) -> dict[str, dict[str, dict[str, str]]]:
    """'digests' and 'value_digests': seed -> report_digests of that seed."""
    by_seed = {str(seed): report_digests(jobs, seed) for seed in SEEDS}
    return {kind: {seed: digests[kind] for seed, digests in by_seed.items()}
            for kind in ("digests", "value_digests")}


def test_reports_match_recorded_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    recorded = json.loads(DIGESTS.read_text())
    computed = all_digests(importlib.import_module("jobs"))
    same_platform = recorded["environment"] == _environment()
    assert recorded["seeds"] == list(SEEDS)
    for kind, by_seed in computed.items():
        assert sorted(by_seed) == sorted(recorded[kind])
        for seed, digests in by_seed.items():
            expected = recorded[kind][seed]
            assert sorted(digests) == sorted(expected)
            compared = [key for key in digests if same_platform or _command(key) in EXACT_COMMANDS]
            assert any(_command(key) in EXACT_COMMANDS for key in compared)
            assert {key: digests[key] for key in compared} == {key: expected[key] for key in compared}


def changed_keys(old: dict, new: dict) -> list[str]:
    """'kind seed workload/command' for each digest that differs between two
    digest files, or that only one of them holds."""
    return [f"{kind} {seed} {key}" for kind in ("digests", "value_digests")
            for seed in sorted(set(old.get(kind, {})) | set(new[kind]))
            for key in sorted(set(old.get(kind, {}).get(seed, {})) | set(new[kind].get(seed, {})))
            if old.get(kind, {}).get(seed, {}).get(key) != new[kind].get(seed, {}).get(key)]


def test_changed_keys_name_each_moved_or_new_digest():
    old = {"digests": {"1": {"a/x": "0", "a/y": "1"}}, "value_digests": {"1": {"a/x": "0", "a/y": "1"}}}
    new = {"digests": {"1": {"a/x": "0", "a/y": "2", "b/z": "3"}}, "value_digests": {"1": {"a/x": "0", "a/y": "1"}}}
    assert changed_keys(old, new) == ["digests 1 a/y", "digests 1 b/z"]
    assert changed_keys(new, new) == []
    assert changed_keys({}, new) == ["digests 1 a/x", "digests 1 a/y", "digests 1 b/z",
                                     "value_digests 1 a/x", "value_digests 1 a/y"]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "perfbench"))
    DIGESTS.parent.mkdir(exist_ok=True)
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    new = {"seeds": list(SEEDS), "environment": _environment(), **all_digests(importlib.import_module("jobs"))}
    DIGESTS.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    changed = changed_keys(old, new)
    print("\n".join(changed) if changed else "no digest changed")
