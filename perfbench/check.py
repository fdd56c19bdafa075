"""Output checks that decide whether a job failed.

A job fails when any check below finds a problem.  ``check_cli`` covers one
CLI process: its exit code, a printed traceback, the report's verdict and
stage statuses or planted values, and whether the report bytes match those
of the same job in the run's first pass.  ``check_lib`` covers one library
call: its own acceptance test and equality with the first pass.
"""

from __future__ import annotations

import json
import math

TRACEBACK = "Traceback (most recent call last)"
META_SUFFIX = ".meta.json"  # holds timestamps, so it is not compared


def report_files(files: dict) -> dict:
    """The files of a run that must be byte-identical from run to run."""
    return {name: data for name, data in files.items() if not name.endswith(META_SUFFIX)}


def _load_report(files: dict):
    names = [n for n in files if n.endswith(".report.json")]
    if len(names) != 1:
        return None
    try:
        return json.loads(files[names[0]])
    except ValueError:
        return None


def _rel_close(got, want, rel):
    return isinstance(got, (int, float)) and abs(got - want) <= rel * max(abs(want), 1e-300)


def _check_report(expect: dict, report: dict) -> list[str]:
    problems = []
    results = report.get("results", {})
    if report.get("passed") is not expect["passed"]:
        problems.append(f"report passed={report.get('passed')}, expected {expect['passed']}")
    if "stages" in expect:
        got = {s["name"]: s["status"] for s in results.get("stages", [])}
        if got != expect["stages"]:
            wrong = sorted(k for k in set(got) | set(expect["stages"])
                           if got.get(k) != expect["stages"].get(k))
            problems.append(f"stage statuses differ at {wrong}")
    if "kq_violations" in expect:
        stage = {s["name"]: s for s in results.get("stages", [])}.get(
            "support_continuity_and_kq", {})
        got = stage.get("data", {}).get("kq_violations")
        if got != expect["kq_violations"]:
            problems.append(f"kq_violations {got}, planted {expect['kq_violations']}")
    if "certified_pairs" in expect:
        conc = results.get("concentration", {})
        if conc.get("certified_pairs") != expect["certified_pairs"] or results.get("equivalence") is not True:
            problems.append("concentration certificate or equivalence missing")
    if "tail_exact" in expect:
        tail = results.get("tail_lower_bound", {})
        if not _rel_close(tail.get("exact"), expect["tail_exact"], 1e-9):
            problems.append(f"tail {tail.get('exact')}, planted {expect['tail_exact']}")
        if not _rel_close(tail.get("dual_norm"), expect["dual_norm"], 1e-9):
            problems.append(f"dual norm {tail.get('dual_norm')}, planted {expect['dual_norm']}")
    if "mass" in expect and not _rel_close(results.get("mass"), expect["mass"], 1e-12):
        problems.append(f"dual-ball mass {results.get('mass')}, planted {expect['mass']}")
    return problems


def check_cli(job: dict, result: dict, first=None) -> list[str]:
    """Problems with one CLI job; ``first`` is the same job's result in the
    run's first pass, whose report bytes this one must repeat."""
    expect = job["expect"]
    problems = []
    if result["exit"] != expect["exit"]:
        problems.append(f"exit {result['exit']}, expected {expect['exit']}")
    if TRACEBACK in result["stderr"]:
        problems.append("printed a traceback")
    files = report_files(result["files"])
    if "passed" in expect:
        report = _load_report(files)
        if report is None:
            problems.append("no readable report")
        else:
            problems += _check_report(expect, report)
    elif files:
        problems.append(f"wrote {sorted(files)} though no report was expected")
    if job["cmd"] == "validate" and expect["exit"] == 0 and result["stdout"].strip() != "ok":
        problems.append("validate did not print ok")
    if first is not None and report_files(first["files"]) != files:
        problems.append("report bytes differ from the first pass")
    return problems


def check_lib(job: dict, result: dict, first=None) -> list[str]:
    """Problems with one library call; ``result`` is the outcome dict built
    by ``algebra.outcome``."""
    expect = job["expect"]
    problems = []
    if "error" in result:
        return [f"raised {result['error']}"]
    values = result["values"]
    if expect.get("finite") and not all(isinstance(v, float) and math.isfinite(v) for v in values):
        problems.append(f"non-finite result {values}")
    if "agree" in expect and not (result["agree"] and result["rel_error"] <= expect["rel_error_max"]):
        problems.append(f"two paths disagree: rel_error {result['rel_error']:.3e}")
    if "atom_err_max" in expect and not result["atom_err"] <= expect["atom_err_max"]:
        problems.append(f"atoms off by {result['atom_err']:.3e}")
    if first is not None and first.get("values") != values:
        problems.append("result differs from the first pass")
    return problems
