"""momentkit benchmark: one command, four workloads, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` says why each was chosen): ``cli_cold``,
``lattice`` and ``monte_carlo`` run every job as its own ``momentkit``
process; ``algebra`` makes in-process library calls after one import.
Every workload is a closed loop with one client: the next job starts when
the previous one has ended.

A run first sets up (one import of momentkit, then the seeded inputs
generated and written several times, of which the median counts), then
runs passes over the workload's fixed job list.  With ``--trace 0`` it runs
two passes and keeps starting more while the next one is expected to end
within ``--seconds``; each job counts with its fastest pass in the
end-to-end metrics.  With ``--trace 1`` it runs one untraced pass and then
one traced pass of the same jobs, compares their reports byte for byte,
probes the import cost, and reports the per-layer metrics.  Every job's
output is checked either way.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark writes only under ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import check, inputs  # noqa: E402
from perfbench.tracer import LAYERS, Tracer, install  # noqa: E402

SETUP_REPEATS = 9
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
CHILD = ROOT / "perfbench" / "child.py"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units
ACCOUNTED_MIN = 0.85


def _median(values):
    return statistics.median(values) if values else 0.0


def _maxrss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _cpu_s(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def machine_context() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k, "default") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MOMENTKIT_THREADS", None)  # the program sizes itself or not at all
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")
    return env


class CliRunner:
    """Runs CLI jobs as fresh processes in one run directory."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir, self.deadline, self.env = run_dir, deadline, child_env()

    def run(self, job, pass_no, traced, tracer):
        out_dir = Path("out") / f"pass{pass_no}" / job["id"]
        (self.run_dir / out_dir).mkdir(parents=True)
        cli_args = [job["cmd"], job["config"]]
        if job["cmd"] == "run":
            cli_args += ["--out", str(out_dir)]
        trace_out = self.run_dir / out_dir.parent / f"{job['id']}.trace.json"
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise TimeoutError("run deadline passed")
        t0 = time.perf_counter()
        if traced:
            argv = [sys.executable, str(CHILD), str(trace_out), job["id"], repr(t0), *cli_args]
        else:
            argv = [sys.executable, "-m", "momentkit.cli", *cli_args]
        proc = subprocess.run(argv, cwd=self.run_dir, env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        seconds = time.perf_counter() - t0
        files = {p.name: p.read_bytes() for p in sorted((self.run_dir / out_dir).iterdir())}
        result = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
                  "files": files, "seconds": seconds}
        if traced:
            snap = json.loads(trace_out.read_text())
            tracer.merge(snap, job=job["id"])
            for phase, s in snap["phases"].items():
                tracer.counters[f"phase.{phase}"] += s
        return result


class LibRunner:
    """Runs the algebra workload's library calls in this process."""

    def __init__(self, built: dict):
        self.built = built

    def run(self, job, pass_no, traced, tracer):
        call, outcome = self.built[job["id"]]
        tracer.job = job["id"]
        t0 = time.perf_counter()
        try:
            raw = call()
        except Exception as exc:  # a failed job is recorded and checked, not fatal
            seconds = time.perf_counter() - t0
            return {"error": f"{type(exc).__name__}: {exc}", "seconds": seconds}
        seconds = time.perf_counter() - t0
        result = outcome(raw)
        result["seconds"] = seconds
        return result


def run_pass(jobs, runner, pass_no, traced, tracer, cpu_who):
    cpu0 = _cpu_s(cpu_who)
    t0 = time.perf_counter()
    results = [runner.run(job, pass_no, traced, tracer) for job in jobs]
    wall = time.perf_counter() - t0
    return {"wall": wall, "cpu": _cpu_s(cpu_who) - cpu0, "results": results,
            "traced": traced, "jobs": jobs}


def check_passes(passes, is_lib):
    """Problems per (pass, job id); a job must repeat its first output."""
    checker = check.check_lib if is_lib else check.check_cli
    problems, first = {}, {}
    for k, p in enumerate(passes):
        for job, result in zip(p["jobs"], p["results"]):
            found = checker(job, result, first.get(job["id"]))
            first.setdefault(job["id"], result)
            if found:
                problems[(k, job["id"])] = found
    return problems


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def _check_source(module_file):
    if not Path(module_file).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"momentkit imported from {module_file}, not from this checkout")


def set_up(workload, seed, run_dir):
    """Returns (jobs, run directory, built library calls, set-up seconds).

    Set-up imports momentkit once: in this process for ``algebra``, which
    then uses it, and otherwise in one cold process that also warms the
    page cache and bytecode for the timed processes.  It then generates and
    writes the inputs SETUP_REPEATS times (building the input objects for
    ``algebra``) and counts the median of those repeats."""
    times, built = [], None
    t0 = time.perf_counter()
    if workload == "algebra":
        sys.path.insert(0, str(ROOT / "src"))
        import momentkit as mk
        import numpy as np

        _check_source(mk.__file__)
        from perfbench import algebra
    else:
        warm = subprocess.run([sys.executable, "-c", "import momentkit; print(momentkit.__file__)"],
                              env=child_env(), capture_output=True, text=True, timeout=120,
                              check=True)
        _check_source(warm.stdout.strip())
    import_s = time.perf_counter() - t0
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        gen = inputs.generate(workload, seed, ROOT)
        work = run_dir / f"setup{i}"
        for rel, text in gen.files.items():
            path = work / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        work.mkdir(parents=True, exist_ok=True)
        if workload == "algebra":
            built = {job["id"]: algebra.build(job, mk, np) for job in gen.jobs}
        times.append(time.perf_counter() - t0)
    return gen.jobs, work, built, import_s + _median(times)


# ---------------------------------------------------------------------------
# Import probe
# ---------------------------------------------------------------------------

_IMPORT_TIMED = ("import sys, time; t = time.perf_counter(); import momentkit; "
                 "print(time.perf_counter() - t, len(sys.modules))")
_IMPORTTIME_MODULES = ("scipy.stats", "scipy.special", "scipy.linalg")


def import_probe(env, cwd) -> dict:
    """``import momentkit`` in fresh interpreters: its time and module count,
    and cumulative ``-X importtime`` figures of the heavy scipy modules."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_TIMED], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=60, check=True)
    seconds, modules = out.stdout.split()
    prof = subprocess.run([sys.executable, "-X", "importtime", "-c", "import momentkit"],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=60,
                          check=True)
    cumulative = {}
    for line in prof.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    metrics = {"import.s": float(seconds), "import.modules": int(modules)}
    for mod in _IMPORTTIME_MODULES:
        metrics[f"import.{mod.replace('.', '_')}_s"] = cumulative.get(mod, 0.0)
    return metrics


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def per_layer_metrics(tracer, passes) -> dict:
    """From a traced run: passes[0] untraced, passes[1] the same jobs traced,
    and possibly passes[2], the traced curve-only jobs."""
    untraced, traced = passes[0], passes[1]
    calls, counters, table = tracer.calls, tracer.counters, tracer.layer_table()
    m = {f"{layer}.self_s": table[layer]["self_s"] for layer in LAYERS}

    def spans(name, job=None):
        per_job = tracer.span_seconds(name)
        return per_job.get(job, 0.0) if job else sum(per_job.values())

    m["import.self_s"] = counters["phase.import_s"]
    m["process.startup_s"] = counters["phase.startup_s"]
    m["cli.self_s"] = tracer.self_by_name["cli.cmd_run"] + tracer.self_by_name["cli.cmd_validate"]
    run_results = [r for j, r in zip(traced["jobs"], traced["results"]) if j["cmd"] == "run"]
    m["cli.report_bytes"] = (sum(len(b) for r in run_results for b in r["files"].values())
                             / len(run_results)) if run_results else 0.0
    m["cli.tracebacks"] = sum(check.TRACEBACK in r.get("stderr", "") for r in traced["results"])
    m["scenarios.validate_s"] = spans("scenarios.validate_config")
    m["scenarios.self_s"] = tracer.self_by_name["scenarios.run_config"]
    pushforwards = calls["concentration.pushforward"]
    m["concentration.pushforwards"] = pushforwards
    m["concentration.indices"] = counters["concentration.indices"]
    m["concentration.pair_yield"] = (counters["concentration.covering_pairs"] / pushforwards
                                     if pushforwards else 0.0)
    for n in inputs.LATTICE_NS:
        m[f"concentration.main_theorem_s.n{n}"] = spans(
            "concentration.verify_main_theorem_scenario", f"main_theorem_n{n}")
    m["moments.moment_calls"] = (calls["moments.DiscreteMeasure.moment"]
                                 + calls["moments.MomentFunctional.moment"])
    m["moments.continuity_constant_s"] = spans("moments.continuity_constant")
    m["moments.square_constant_s"] = spans("moments.square_constant")
    m["symalg.multiply_calls"] = calls["symalg.multiply"]
    m["symalg.elements"] = calls["symalg.AlgebraElement.__post_init__"]
    for n, d, count in inputs.TILDE_CASES:
        m[f"symalg.tilde_s.{n}x{d}"] = spans(
            "symalg.tilde_trace_identity", f"tilde_{n}x{d}") / count
    for n, d, count in inputs.GRADED_NORM_CASES:
        m[f"symalg.graded_norm_s.{n}x{d}"] = spans(
            "symalg.graded_norm", f"graded_norm_{n}x{d}") / count
    m["forms.dual_norm_calls"] = calls["forms.dual_norm"]
    m["forms.eig_calls"] = calls["forms.numpy.linalg.eigh"] + calls["forms.numpy.linalg.eigvalsh"]
    m["traces.calls"] = table["traces"]["calls"]
    m["gaussian.samples"] = counters["gaussian.samples"]
    sampling_s = sum(spans(f"gaussian.{f}") for f in
                     ("sample", "second_moment_check", "chebyshev_outside_ball"))
    m["gaussian.samples_per_s"] = m["gaussian.samples"] / sampling_s if sampling_s else 0.0
    m["solver.calls"] = calls["solver.solve_multivariate"] + calls["solver.solve_univariate"]
    m["solver.rejects"] = (tracer.errors["solver:RankNotFlat"]
                           + tracer.errors["solver:IllConditioned"])
    atom_errs = [r["atom_err"] for p in passes for r in p["results"] if "atom_err" in r]
    m["solver.max_atom_err"] = max(atom_errs, default=0.0)
    m["process.cpu_s"] = untraced["cpu"]
    m["trace.overhead_frac"] = (traced["wall"] - untraced["wall"]) / untraced["wall"]
    accounted = sum(table[layer]["self_s"] for layer in LAYERS)
    accounted += counters["phase.startup_s"] + counters["phase.import_s"] + counters["phase.tracer_s"]
    m["trace.accounted_frac"] = accounted / sum(p["wall"] for p in passes if p["traced"])
    return m


def print_layer_table(tracer):
    table = tracer.layer_table()
    print(f"{'layer':<14}{'self_s':>10}{'calls':>11}  errors / busiest calls")
    for layer in LAYERS:
        row = table[layer]
        busiest = sorted(row["counts"].items(), key=lambda kv: -kv[1])[:3]
        errors = ", ".join(f"{k}={v}" for k, v in sorted(row["errors"].items())) or "none"
        counts = ", ".join(f"{k}={v}" for k, v in busiest)
        print(f"{layer:<14}{row['self_s']:>10.4f}{row['calls']:>11}  errors: {errors}; {counts}")
    for phase in ("startup_s", "import_s", "tracer_s"):
        if f"phase.{phase}" in tracer.counters:
            print(f"{'(' + phase[:-2] + ')':<14}{tracer.counters['phase.' + phase]:>10.4f}")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run(workload, seed, seconds, trace, run_dir):
    deadline = time.perf_counter() + RUN_DEADLINE_S
    jobs, work, built, setup_s = set_up(workload, seed, run_dir)
    timed = [j for j in jobs if not j.get("curve_only")]
    curve = [j for j in jobs if j.get("curve_only")]
    is_lib = workload == "algebra"
    runner = LibRunner(built) if is_lib else CliRunner(work, deadline)
    cpu_who = resource.RUSAGE_SELF if is_lib else resource.RUSAGE_CHILDREN
    tracer = Tracer()  # stays empty unless a traced pass installs it

    t_end = time.perf_counter() + seconds
    passes = [run_pass(timed, runner, 0, False, tracer, cpu_who)]
    if trace:
        if is_lib:
            install(tracer)
        passes.append(run_pass(timed, runner, 1, True, tracer, cpu_who))
        if curve:
            passes.append(run_pass(curve, runner, 2, True, tracer, cpu_who))
    else:
        passes.append(run_pass(timed, runner, 1, False, tracer, cpu_who))
        while time.perf_counter() + passes[-1]["wall"] <= t_end:
            passes.append(run_pass(timed, runner, len(passes), False, tracer, cpu_who))
    peak_rss = _maxrss_mb(cpu_who)

    problems = check_passes(passes, is_lib)
    known = {j["id"]: j["known_defect"] for j in jobs if "known_defect" in j}
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = len(problems)
    unexpected = {k: v for k, v in problems.items() if k[1] not in known}

    print(f"momentkit benchmark: workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print("machine: " + json.dumps(machine_context(), sort_keys=True))
    print(f"set-up: {setup_s:.4f} s (median of {SETUP_REPEATS})")
    for k, p in enumerate(passes):
        kind = "traced" if p["traced"] else "untraced"
        print(f"pass {k} ({kind}): {p['wall']:.3f} s wall, {p['cpu']:.3f} s cpu, "
              f"{len(p['jobs'])} jobs")
        for job, r in zip(p["jobs"], p["results"]):
            status = "FAIL" if (k, job["id"]) in problems else "ok"
            print(f"  {job['id']:<40}{r['seconds']:>9.3f} s  {status}")
    for (k, job_id), found in sorted(problems.items()):
        tag = f" [known defect, ROADMAP item 4: {known[job_id]}]" if job_id in known else ""
        print(f"failed: pass {k} {job_id}{tag}: {'; '.join(found)}")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4f}"
          + (f" (unexpected: {len(unexpected)})" if unexpected else ""))

    if trace:
        print_layer_table(tracer)
        metrics = per_layer_metrics(tracer, passes)
        metrics.update(import_probe(child_env(), run_dir))
        metrics["failed_frac"] = failed / attempted
        accounted = metrics["trace.accounted_frac"]
        print(f"trace: overhead {metrics['trace.overhead_frac']:+.3f} of untraced wall_s; "
              f"layer self times + start-up + import account for {accounted:.3f} of "
              f"traced wall_s ({'ok' if accounted >= ACCOUNTED_MIN else 'LOW'}, "
              f"expected >= {ACCOUNTED_MIN}; the rest is process exit and trace output)")
        (ROOT / ".perfbench_runs" / "traces").mkdir(parents=True, exist_ok=True)
        tracer.dump(ROOT / ".perfbench_runs" / "traces" / f"{workload}-seed{seed}.json")
    else:
        # Noise on a shared machine only ever adds time (slow episodes of
        # +40-70% lasting seconds), so each job counts with its fastest pass.
        best = [min(p["results"][i]["seconds"] for p in passes) for i in range(len(timed))]
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(best),
            "job_s.p50": statistics.median(best),
            "peak_rss_mb": peak_rss,
        }
    spec = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from {SPEC.name}: {sorted(set(units) ^ set(metrics))}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "momentkit" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no momentkit sources under {ROOT / 'src'} or no {SPEC.name}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
