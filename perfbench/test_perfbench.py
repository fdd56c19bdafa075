"""Tests of the benchmark itself: seeded inputs, the output checker and the
tracer's self-time accounting.  They start no momentkit process."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import check, inputs
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _snapshot(gen):
    return json.dumps({"jobs": gen.jobs, "files": gen.files}, sort_keys=True)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first = inputs.generate(workload, 7, ROOT)
    again = inputs.generate(workload, 7, ROOT)
    other = inputs.generate(workload, 8, ROOT)
    assert _snapshot(first) == _snapshot(again)
    assert _snapshot(first) != _snapshot(other)
    assert len(first.jobs) == len(other.jobs)


def test_every_cli_job_has_its_config_file():
    for workload in ("cli_cold", "lattice", "monte_carlo"):
        gen = inputs.generate(workload, 3, ROOT)
        assert sorted(gen.files) == sorted(job["config"] for job in gen.jobs)


def _report(passed=True):
    body = json.dumps({"kind": "trace", "passed": passed, "results": {}}, sort_keys=True)
    return {"trace.report.json": body.encode(), "trace.report.meta.json": b'{"started": "t0"}'}


def _result(exit_code=0, stderr="", files=None):
    return {"exit": exit_code, "stdout": "", "stderr": stderr,
            "files": _report() if files is None else files, "seconds": 1.0}


JOB = {"id": "run_trace", "cmd": "run", "config": "inputs/run_trace.json",
       "expect": {"exit": 0, "passed": True}}


def test_checker_accepts_a_matching_job():
    assert check.check_cli(JOB, _result()) == []


def test_checker_flags_a_wrong_exit_code():
    problems = check.check_cli(JOB, _result(exit_code=3))
    assert any("exit 3, expected 0" in p for p in problems)


def test_checker_flags_a_traceback():
    stderr = 'Traceback (most recent call last):\n  File "x"\nValueError: boom\n'
    assert any("traceback" in p for p in check.check_cli(JOB, _result(stderr=stderr)))


def test_checker_flags_a_changed_report_byte():
    files = _report()
    changed = dict(files)
    changed["trace.report.json"] = files["trace.report.json"].replace(b'"trace"', b'"tracf"')
    problems = check.check_cli(JOB, _result(files=changed), first=_result(files=files))
    assert problems == ["report bytes differ from the first pass"]


def test_checker_ignores_the_meta_sidecar():
    files = _report()
    later = dict(files, **{"trace.report.meta.json": b'{"started": "t1"}'})
    assert check.check_cli(JOB, _result(files=later), first=_result(files=files)) == []


def test_checker_flags_a_wrong_verdict_and_stage():
    job = {"id": "mt", "cmd": "run", "config": "inputs/mt.json",
           "expect": {"exit": 1, "passed": False,
                      "stages": {"consistency": "pass", "support_continuity_and_kq": "fail"}}}
    body = {"passed": False, "results": {"stages": [
        {"name": "consistency", "status": "fail", "data": {}},
        {"name": "support_continuity_and_kq", "status": "fail", "data": {}}]}}
    files = {"mt.report.json": json.dumps(body).encode()}
    problems = check.check_cli(job, _result(exit_code=1, files=files))
    assert problems == ["stage statuses differ at ['consistency']"]


def test_checker_flags_library_results():
    tilde = {"expect": {"agree": True, "rel_error_max": 1e-8}}
    assert check.check_lib(tilde, {"agree": True, "rel_error": 1e-15, "values": [1.0, 1.0]}) == []
    assert check.check_lib(tilde, {"agree": False, "rel_error": 1e-3, "values": [1.0, 1.1]})
    const = {"expect": {"finite": True}}
    assert check.check_lib(const, {"values": ["INFINITE"]})
    assert check.check_lib(const, {"values": [2.0]}, first={"values": [2.0000001]}) == [
        "result differs from the first pass"]


def test_tracer_charges_counted_calls_to_their_own_layer():
    tracer = Tracer()
    spin = lambda: sum(range(20000))  # noqa: E731
    inner = tracer.wrap(lambda: spin(), "moments.DiscreteMeasure.moment", "moments")
    outer = tracer.wrap(lambda: [inner() for _ in range(5)] and spin(),
                        "concentration.concentration_check", "concentration")
    tracer.job = "j"
    outer()
    (name, t0, t1, parent, job), = tracer.spans  # the counted call left no span
    assert (name, parent, job) == ("concentration.concentration_check", None, "j")
    assert tracer.calls["moments.DiscreteMeasure.moment"] == 5
    total = tracer.self_s["moments"] + tracer.self_s["concentration"]
    assert total == pytest.approx(t1 - t0, rel=1e-9)
    assert 0 < tracer.self_s["concentration"] < tracer.self_s["moments"]
