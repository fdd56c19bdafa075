"""Seeded inputs for the four benchmark workloads, with expected outcomes.

Everything here is plain Python (``random.Random`` seeded from a string), so
the same seed gives byte-identical config files on any machine and with any
numpy version.  A workload is a list of jobs plus the files they read:

* a CLI job is one ``momentkit run`` or ``momentkit validate`` process;
* a library job is one in-process call, described by a JSON-able spec that
  ``algebra.py`` turns into momentkit objects during set-up.

Next to each job sits what the checker expects of it: the exit code, the
report's ``passed`` flag, the ``main_theorem`` stage statuses, or a planted
value.  Jobs tagged ``known_defect`` expect the right answer (exit 2) for
configs the program is known to mishandle; they are run and counted as
failures while the defect stands.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("cli_cold", "lattice", "algebra", "monte_carlo")

FIXTURE_DIR = Path("src") / "momentkit" / "fixtures"

# Exit code and report verdict of each bundled fixture under `momentkit run`.
FIXTURE_EXPECT = {
    "carleman_gaussian": {"exit": 0, "passed": True},
    "carleman_squared_exponential": {"exit": 0, "passed": True},
    "concentration": {"exit": 0, "passed": True},
    "construct_q": {"exit": 0, "passed": True},
    "fundamental_lemma": {"exit": 0, "passed": True},
    "gaussian": {"exit": 0, "passed": True},
    "main_theorem": {"exit": 0, "passed": True},
    "main_theorem_kq_violation": {"exit": 1, "passed": False},
    "tilde_trace": {"exit": 0, "passed": True},
    "trace": {"exit": 0, "passed": True},
}

MAIN_THEOREM_STAGES = (
    "moment_functional",
    "s_L_degree_one_form",
    "trace_s_L_over_q",
    "marginal_family",
    "consistency",
    "concentration_sqrt_eps",
    "prokhorov_mass",
    "support_continuity_and_kq",
    "representation_identity",
)
KQ_STAGE = "support_continuity_and_kq"

# Per seed, cli_cold runs this many bundled fixtures through `run` and
# through `validate`, and three of the four malformed-config kinds, rotating
# with the seed so that consecutive seeds cover all of them; with the four
# ROADMAP item-4 configs that keeps a pass at ten cold starts (10-15 s).
CLI_FIXTURE_RUNS = 2
CLI_FIXTURE_VALIDATES = 1
CLI_MALFORMED = 3

LATTICE_NS = (4, 5, 6, 7, 8)
# main_theorem at n = 8 takes 8-12 s by itself, too long to time twice in a
# run; it is run (traced) only for the scaling curve of the traced run.
CURVE_ONLY_NS = (8,)
CONCENTRATION_NS = (9, 10)


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"momentkit-bench/{workload}/{seed}/{part}")


def dump_config(config: dict) -> str:
    """The exact bytes written for a config (``NaN`` allowed on purpose)."""
    return json.dumps(config, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Small dense helpers (lists of floats)
# ---------------------------------------------------------------------------


def _gauss_matrix(rng, rows, cols):
    return [[rng.gauss(0.0, 1.0) for _ in range(cols)] for _ in range(rows)]


def _gram(a, ridge=0.0):
    """a a^T + ridge I, exactly symmetric."""
    n = len(a)
    g = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            v = math.fsum(x * y for x, y in zip(a[i], a[j]))
            if i == j:
                v += ridge
            g[i][j] = g[j][i] = v
    return g


def spd(rng, n, ridge=0.3):
    return _gram(_gauss_matrix(rng, n, n), ridge)


def _weights(rng, k):
    raw = [rng.randint(1, 9) for _ in range(k)]
    total = sum(raw)
    return [r / total for r in raw]


def _atoms(rng, k, n, lo=-1.0, hi=1.0):
    return [[rng.uniform(lo, hi) for _ in range(n)] for _ in range(k)]


def _separated_atoms(rng, k, n, sep, lo=-1.5, hi=1.5):
    atoms = []
    while len(atoms) < k:
        cand = [rng.uniform(lo, hi) for _ in range(n)]
        if all(math.dist(cand, a) >= sep for a in atoms):
            atoms.append(cand)
    return atoms


def _norm2(v):
    return math.fsum(x * x for x in v)


def _ball_generator(n, radius2):
    """radius2 - sum x_i^2 as a config element (K = closed ball)."""
    terms = [{"alpha": [0] * n, "c": radius2}]
    for i in range(n):
        terms.append({"alpha": [2 if j == i else 0 for j in range(n)], "c": -1.0})
    return {"dim": n, "terms": terms}


class _Jobs:
    """Accumulates a workload's jobs and the config files its CLI jobs read."""

    def __init__(self):
        self.jobs, self.files = [], {}

    def add(self, job_id, cmd, config, expect, known_defect=None):
        job = {"id": job_id, "cmd": cmd, "config": f"inputs/{job_id}.json",
               "expect": expect}
        if known_defect:
            job["known_defect"] = known_defect
        self.jobs.append(job)
        self.files[job["config"]] = (
            config if isinstance(config, str) else dump_config(config)
        )


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


def _valid_trace_config(rng):
    n = rng.randint(2, 4)
    return {
        "kind": "trace",
        "parameters": {"p": spd(rng, n), "q": spd(rng, n, ridge=1.0)},
        "seed": rng.randint(0, 10**6),
    }


def _misspell(rng, word, forbidden):
    while True:
        chars = list(word)
        i = rng.randrange(len(chars) - 1)
        op = rng.choice(("swap", "drop", "double"))
        if op == "swap":
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
        elif op == "drop":
            del chars[i]
        else:
            chars.insert(i, chars[i])
        typo = "".join(chars)
        if typo != word and typo not in forbidden:
            return typo


def _cli_cold(seed, root):
    rng = _rng("cli_cold", seed, "configs")
    out = _Jobs()
    names = sorted(FIXTURE_EXPECT)
    for i in range(CLI_FIXTURE_RUNS):
        name = names[(CLI_FIXTURE_RUNS * seed + i) % len(names)]
        text = (root / FIXTURE_DIR / f"{name}.json").read_text()
        out.add(f"run_{name}", "run", text, dict(FIXTURE_EXPECT[name]))
    for i in range(CLI_FIXTURE_VALIDATES):
        name = names[(CLI_FIXTURE_VALIDATES * seed + 5 + i) % len(names)]
        text = (root / FIXTURE_DIR / f"{name}.json").read_text()
        out.add(f"validate_{name}", "validate", text, {"exit": 0})

    kinds = ("carleman", "concentration", "construct_q", "fundamental_lemma",
             "gaussian", "main_theorem", "tilde_trace", "trace")
    malformed = {}
    bad = _valid_trace_config(rng)
    bad["kind"] = _misspell(rng, rng.choice(kinds), kinds)
    malformed["bad_kind"] = bad
    bad = _valid_trace_config(rng)
    bad["parameters"][rng.choice(("expect", "qq", "method", "tolerance"))] = 1.0
    malformed["bad_unknown_field"] = bad
    bad = _valid_trace_config(rng)
    del bad["parameters"][rng.choice(("p", "q"))]
    malformed["bad_missing_field"] = bad
    text = dump_config(_valid_trace_config(rng))
    malformed["bad_json"] = text[: rng.randint(1, len(text) - 3)]
    for i in range(CLI_MALFORMED):
        job_id = sorted(malformed)[(seed + i) % len(malformed)]
        out.add(job_id, "run", malformed[job_id], {"exit": 2})

    # ROADMAP item 4: config errors that must end in exit 2.
    w = 0.9 * rng.uniform(0.3, 0.7)
    out.add("item4_weights_0.9", "run", {
        "kind": "concentration",
        "parameters": {
            "global_measure": {"atoms": _atoms(rng, 2, 2), "weights": [w, 0.9 - w]},
            "p": spd(rng, 2, ridge=1.0), "epsilon": 0.04, "delta": 0.2,
        },
        "seed": rng.randint(0, 10**6),
    }, {"exit": 2}, "measure weights summing to 0.9")
    out.add("item4_dim_mismatch", "run", {
        "kind": "concentration",
        "parameters": {
            "global_measure": {"atoms": _atoms(rng, 2, 3), "weights": [0.5, 0.5]},
            "p": spd(rng, 2, ridge=1.0), "epsilon": 0.04, "delta": 0.2,
        },
        "seed": rng.randint(0, 10**6),
    }, {"exit": 2}, "2x2 p with a 3-dim concentration measure")
    nan_cfg = _valid_trace_config(rng)
    nan_cfg["parameters"]["p"][0][-1] = float("nan")
    out.add("item4_nan", "run", nan_cfg, {"exit": 2}, "NaN entry in a matrix")
    out.add("item4_generator_degree", "run", {
        "kind": "main_theorem",
        "parameters": {
            "measure": {"atoms": _atoms(rng, 2, 2), "weights": [0.5, 0.5]},
            "q": spd(rng, 2, ridge=1.0),
            "generators": [{"dim": 2, "terms": [
                {"alpha": [0, 0], "c": 9.0}, {"alpha": [4, 0], "c": -1.0}]}],
            "degrees": 2,
            "eps_grid": [0.04],
        },
        "seed": rng.randint(0, 10**6),
    }, {"exit": 2}, "generator degree above 'degrees'")
    return out


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


def _main_theorem_config(rng, n, violate):
    atoms = _atoms(rng, 6, n)
    norms = sorted((_norm2(a), i) for i, a in enumerate(atoms))
    if violate:
        # the ball separates the largest atom from the rest
        lo, hi = norms[-2][0], norms[-1][0]
        radius2 = lo + rng.uniform(0.25, 0.75) * (hi - lo)
    else:
        radius2 = norms[-1][0] * rng.uniform(1.2, 1.7)
    config = {
        "kind": "main_theorem",
        "parameters": {
            "measure": {"atoms": atoms, "weights": _weights(rng, 6)},
            "q": spd(rng, n, ridge=1.0),
            "generators": [_ball_generator(n, radius2)],
            "degrees": 4,
            "eps_grid": [rng.uniform(0.03, 0.06), rng.uniform(0.2, 0.3)],
        },
        "seed": rng.randint(0, 10**6),
    }
    stages = {s: "pass" for s in MAIN_THEOREM_STAGES}
    expect = {"exit": 0, "passed": True, "stages": stages}
    if violate:
        stages[KQ_STAGE] = "fail"
        expect.update(exit=1, passed=False, kq_violations=[norms[-1][1]])
    return config, expect


def _concentration_config(rng, n):
    atoms = _atoms(rng, 8, n)
    weights = _weights(rng, 8)
    trace_m = math.fsum(w * _norm2(a) for a, w in zip(atoms, weights))
    eps, delta = rng.uniform(0.05, 0.1), rng.uniform(0.5, 1.0)
    diag = [rng.uniform(1.0, 2.0) for _ in range(n)]
    # lambda_max(M) <= tr(M) and p >= scale * min(diag): the Chebyshev sup
    # delta^2 lambda_max is at most eps / 2 on every index.
    scale = 2.0 * delta**2 * trace_m / (eps * min(diag))
    p = [[scale * diag[i] if i == j else 0.0 for j in range(n)] for i in range(n)]
    config = {
        "kind": "concentration",
        "parameters": {
            "global_measure": {"atoms": atoms, "weights": weights},
            "p": p, "epsilon": eps, "delta": delta,
            "equivalence_grid": [[eps, delta]],
        },
        "seed": rng.randint(0, 10**6),
    }
    return config, {"exit": 0, "passed": True, "certified_pairs": [[eps, delta]]}


def _lattice(seed):
    out = _Jobs()
    for n in LATTICE_NS:
        config, expect = _main_theorem_config(_rng("lattice", seed, f"mt{n}"), n, False)
        out.add(f"main_theorem_n{n}", "run", config, expect)
        if n in CURVE_ONLY_NS:
            out.jobs[-1]["curve_only"] = True
    config, expect = _main_theorem_config(_rng("lattice", seed, "kq6"), 6, True)
    out.add("main_theorem_kq_violation_n6", "run", config, expect)
    for n in CONCENTRATION_NS:
        config, expect = _concentration_config(_rng("lattice", seed, f"conc{n}"), n)
        out.add(f"concentration_n{n}", "run", config, expect)
    return out


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------


def _monte_carlo(seed):
    out = _Jobs()
    rng = _rng("monte_carlo", seed, "gaussian6")
    q = spd(rng, 6, ridge=1.0)  # lambda_min(q) >= 1, so tr(p/q) <= tr(p)
    p = spd(rng, 6, ridge=0.1)
    delta = math.sqrt(2.0 * math.fsum(p[i][i] for i in range(6)))
    out.add("gaussian_6d_4M", "run", {
        "kind": "gaussian",
        "parameters": {"q": q, "samples": 4_000_000, "streams": 4, "p": p, "delta": delta},
        "seed": rng.randint(0, 10**6),
    }, {"exit": 0, "passed": True})

    rng = _rng("monte_carlo", seed, "gaussian2")
    (a, b), (_, c) = q = spd(rng, 2, ridge=0.5)
    x, y = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
    dual2 = (c * x * x - 2 * b * x * y + a * y * y) / (a * c - b * b)  # l' q^-1 l
    target = rng.uniform(1.2, 3.0)  # q-dual norm >= 1: the tail hypothesis holds
    functional = [target / math.sqrt(dual2) * x, target / math.sqrt(dual2) * y]
    out.add("gaussian_2d_10M_tail", "run", {
        "kind": "gaussian",
        "parameters": {"q": q, "samples": 10_000_000, "streams": 4, "functional": functional},
        "seed": rng.randint(0, 10**6),
    }, {"exit": 0, "passed": True,
        "tail_exact": math.erfc(1.0 / (target * math.sqrt(2.0))), "dual_norm": target})

    rng = _rng("monte_carlo", seed, "lemma")
    m = 3
    atoms = _atoms(rng, 5, m)
    weights = _weights(rng, 5)
    trace_m = math.fsum(w * _norm2(a) for a, w in zip(atoms, weights))
    eps, delta = rng.uniform(0.02, 0.05), rng.uniform(0.5, 1.0)
    s_p = 2.0 * delta**2 * trace_m / eps  # sup = delta^2 lambda_max(M) / s_p <= eps / 2
    t_q = max(1.1 * max(_norm2(a) for a in atoms), 20.0 * m * s_p / delta**2)
    out.add("fundamental_lemma", "run", {
        "kind": "fundamental_lemma",
        "parameters": {
            "mu": {"atoms": atoms, "weights": weights},
            "p": [[s_p if i == j else 0.0 for j in range(m)] for i in range(m)],
            "q": [[t_q if i == j else 0.0 for j in range(m)] for i in range(m)],
            "epsilon": eps, "delta": delta,
        },
        "seed": rng.randint(0, 10**6),
    }, {"exit": 0, "passed": True, "mass": 1.0})
    return out


# ---------------------------------------------------------------------------
# algebra (in-process library calls)
# ---------------------------------------------------------------------------

# (n, D or d, instances).  Small cases are batched into one job of several
# seeded instances so that every job takes a few tenths of a second: a job
# of milliseconds is lost in timer noise.
TILDE_CASES = ((3, 4, 2), (4, 4, 1), (5, 3, 1))
GRADED_NORM_CASES = ((4, 6, 2), (6, 4, 1))
CONSTANT_CASES = ((4, 3, 4), (5, 3, 1), (6, 2, 2))
# (dim, atoms, moment degree), all run in each of SOLVER_ROUNDS rounds
SOLVER_CASES = ((2, 5, 6), (3, 6, 6), (4, 8, 6), (3, 9, 8), (4, 12, 8))
SOLVER_ROUNDS = 6


def _tilde_spec(rng, n, d_max):
    return {
        "pairs": [[spd(rng, n, ridge=0.0), spd(rng, n)] for _ in range(d_max)],
        "lam": [rng.uniform(0.5, 2.0) for _ in range(d_max + 1)],
        "eta": [rng.uniform(0.5, 2.0) for _ in range(d_max + 1)],
        "constants": [rng.uniform(0.5, 3.0) for _ in range(d_max)],
    }


def _algebra(seed):
    out = _Jobs()

    def add(job_id, op, cases, expect):
        out.jobs.append({"id": job_id, "cmd": "lib", "op": op, "cases": cases,
                         "expect": expect})

    for n, d_max, count in TILDE_CASES:
        rng = _rng("algebra", seed, f"tilde{n}x{d_max}")
        add(f"tilde_{n}x{d_max}", "tilde",
            [{"size": [n, d_max], "spec": _tilde_spec(rng, n, d_max)} for _ in range(count)],
            {"agree": True, "rel_error_max": 1e-8})
    for n, d, count in GRADED_NORM_CASES:
        rng = _rng("algebra", seed, f"graded{n}x{d}")
        add(f"graded_norm_{n}x{d}", "graded_norm",
            [{"size": [n, d], "spec": {"s": spd(rng, n),
                                       "v": [rng.gauss(0.0, 1.0) for _ in range(n)]}}
             for _ in range(count)],
            {"finite": True})
    for n, d, count in CONSTANT_CASES:
        rng = _rng("algebra", seed, f"const{n}x{d}")
        cases = [{"size": [n, d], "spec": {
            "measure": {"atoms": _atoms(rng, 6, n), "weights": _weights(rng, 6)},
            "p": spd(rng, n),  # dense, so the reference system is not the identity
        }} for _ in range(count)]
        for op in ("continuity_constant", "square_constant"):
            add(f"{op}_{n}x{d}", op, cases, {"finite": True})
    rng = _rng("algebra", seed, "solve")
    add("solve_round_trips", "solve",
        [{"size": [n, degree], "spec": {"atoms": _separated_atoms(rng, k, n, 0.3),
                                        "weights": _weights(rng, k)}}
         for _ in range(SOLVER_ROUNDS) for n, k, degree in SOLVER_CASES],
        {"atom_err_max": 1e-7})
    return out


def generate(workload: str, seed: int, root: Path) -> _Jobs:
    """Jobs of one workload; ``.files`` maps a path relative to the run
    directory to the exact text written there."""
    if workload == "cli_cold":
        return _cli_cold(seed, root)
    if workload == "lattice":
        return _lattice(seed)
    if workload == "monte_carlo":
        return _monte_carlo(seed)
    if workload == "algebra":
        return _algebra(seed)
    raise ValueError(f"unknown workload {workload!r}")
