"""Command-line front end: scenario configs, exit codes, stable reports."""

from __future__ import annotations

import copy
import csv
import importlib
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import momentkit
from momentkit.cli import main
from momentkit.concentration import CERTIFICATE_SLACK, CONSISTENCY_ABS, IDENTITY_ABS
from momentkit.errors import BLOCK_SAMPLES_CAP, STREAMS_CAP, WEIGHT_SUM_TOL
from momentkit.moments import DiscreteMeasure
from momentkit.scenarios import _CHECKERS, SCENARIO_KINDS, validate_config


def fixture_path(name: str) -> str:
    return str(resources.files("momentkit").joinpath("fixtures", name))


def run_cli(*args) -> int:
    return main(list(args))


def read_report(out: Path, stem: str) -> dict:
    return json.loads((out / f"{stem}.report.json").read_text())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_all_bundled_fixtures(tmp_path):
    expected = {
        "trace.json": 0,
        "gaussian.json": 0,
        "fundamental_lemma.json": 0,
        "concentration.json": 0,
        "main_theorem.json": 0,
        "main_theorem_kq_violation.json": 1,
        "carleman_gaussian.json": 0,
        "carleman_squared_exponential.json": 0,
        "tilde_trace.json": 0,
        "construct_q.json": 0,
    }
    for name, want in expected.items():
        code = run_cli("run", fixture_path(name), "--out", str(tmp_path))
        assert code == want, name


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_theorem_tiny_epsilon_passes_prokhorov_mass(tmp_path):
    """eps = 1e-200 puts r_eps = c^2 q out of float range (c is about
    sqrt(tr) * 1e200); K^(S) is decided on atoms / c, so the prokhorov_mass
    stage passes, as concentration_sqrt_eps does, without a numeric
    warning.  So does 1e-300, close above the smallest normal float (the
    validator's floor for eps_grid)."""
    config = json.loads(Path(fixture_path("main_theorem.json")).read_text())
    for eps in (1e-200, 1e-300):
        config["parameters"]["eps_grid"] = [eps]
        cfg = tmp_path / "tiny_eps.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("validate", str(cfg)) == 0
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == 0
        stages = read_report(tmp_path, "tiny_eps")["results"]["stages"]
        status = {stage["name"]: stage["status"] for stage in stages}
        assert status["prokhorov_mass"] == status["concentration_sqrt_eps"] == "pass"


def test_run_loads_no_scipy(tmp_path):
    """import momentkit and a CLI run stay on numpy and the standard
    library: the library imports no scipy anywhere (the solvers' own
    no-scipy run is in test_solver.py)."""
    script = (
        "import sys, momentkit, momentkit.cli\n"
        "code = momentkit.cli.main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
        "heavy = ('scipy.stats', 'scipy.special', 'scipy.linalg', 'scipy.optimize')\n"
        "print(code, [m for m in heavy if m in sys.modules])\n"
    )
    src = str(Path(momentkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, fixture_path("gaussian.json"), str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "gaussian.report.json").is_file()


def test_validate_and_rejected_runs_load_only_the_standard_library(tmp_path):
    """import momentkit, list, validate and every run that fails validation
    load neither numpy nor importlib.metadata."""
    bad = {
        "misspelled_kind.json": '{"kind": "concentraton", "parameters": {}}',
        "unknown_field.json": '{"kind": "trace", "parameters": {"p": [[1.0]], "q": [[1.0]], "bogus": 1}}',
        "nan_entry.json": '{"kind": "trace", "parameters": {"p": [[NaN]], "q": [[1.0]]}}',
        "weights_0.9.json": '{"kind": "concentration", "parameters": {"global_measure": '
        '{"atoms": [[1.0, 2.0], [-1.0, 0.0]], "weights": [0.45, 0.45]}, '
        '"p": [[1.0, 1.0], [1.0, 2.0]], "epsilon": 0.04, "delta": 0.2}}',
    }
    for name, text in bad.items():
        (tmp_path / name).write_text(text)
    fixtures = sorted(
        str(p) for p in resources.files("momentkit").joinpath("fixtures").iterdir()
    )
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import momentkit, momentkit.cli as cli\n"
        "out, configs = sys.argv[1], sys.argv[2:]\n"
        "codes = [cli.main(['list'])]\n"
        "codes += [cli.main(['validate', c]) for c in configs[:-4]]\n"
        "codes += [cli.main(['run', c, '--out', out]) for c in configs[-4:]]\n"
        "heavy = ('numpy', 'importlib.metadata')\n"
        "print(json.dumps([codes, [m for m in heavy if m in set(sys.modules) - before]]))\n"
    )
    src = str(Path(momentkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out"), *fixtures,
         *[str(tmp_path / name) for name in bad]],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert len(fixtures) == 10
    assert codes == [0] + [0] * len(fixtures) + [2] * len(bad)
    assert loaded == []
    assert not (tmp_path / "out").exists()


def test_lazy_exports_resolve_to_their_submodule_objects():
    """Each public name is listed once and resolves, on first access, to the
    object its submodule defines; dir() and import * see every one."""
    table = momentkit._EXPORTS
    assert sum(map(len, table.values())) == len(set(momentkit.__all__))
    for name in momentkit.__all__:
        module = importlib.import_module(f"momentkit.{momentkit._MODULE_OF[name]}")
        assert getattr(momentkit, name) is getattr(module, name), name
    assert set(momentkit.__all__) <= set(dir(momentkit))
    namespace: dict = {}
    exec("from momentkit import *", namespace)
    assert set(momentkit.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        momentkit.no_such_name


def test_only_sampling_kinds_load_numpy_random(tmp_path):
    """numpy.random (and the OpenSSL library it loads through ``secrets``)
    is imported by the Monte Carlo kind only."""
    names = sorted(p.name for p in resources.files("momentkit").joinpath("fixtures").iterdir())
    script = (
        "import sys, momentkit.cli\n"
        "for name in sys.argv[2:]:\n"
        "    momentkit.cli.main(['run', name, '--out', sys.argv[1]])\n"
        "    print(name.rsplit('/', 1)[-1], 'numpy.random' in sys.modules)\n"
    )
    src = str(Path(momentkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sampling = ["gaussian.json"]
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path),
         *[fixture_path(n) for n in names if n not in sampling],
         *[fixture_path(n) for n in sampling]],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    loaded = dict(ln.split()[-2:] for ln in lines if ln.endswith(("True", "False")))
    assert loaded == {n: str(n in sampling) for n in names}


def test_trace_fixture_report_value(tmp_path):
    assert run_cli("run", fixture_path("trace.json"), "--out", str(tmp_path)) == 0
    rep = read_report(tmp_path, "trace")
    assert rep["results"]["value"] == 5.0
    assert rep["passed"] is True
    assert rep["version"] == momentkit.__version__ and "tolerances" in rep


def test_version_is_the_pyproject_version():
    """Reports carry momentkit.__version__, a literal, so their bytes do not
    depend on how the package was installed; it is the project version in
    pyproject.toml (read without tomllib, which Python 3.10 lacks)."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    versions = [
        line.split("=", 1)[1].strip().strip('"')
        for line in project.splitlines()
        if line.split("=", 1)[0].strip() == "version"
    ]
    assert versions == [momentkit.__version__]


def test_report_byte_identical_and_meta_separate(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(
            "run", fixture_path("concentration.json"), "--out", str(out)
        ) == 0
    ra = (a / "concentration.report.json").read_bytes()
    rb = (b / "concentration.report.json").read_bytes()
    assert ra == rb
    meta = json.loads((a / "concentration.report.meta.json").read_text())
    assert "started" in meta and "finished" in meta
    assert b"started" not in ra  # timestamps only in the metadata file


def test_seed_override_changes_stochastic_report(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", fixture_path("gaussian.json"), "--out", str(a)) == 0
    assert (
        run_cli("run", fixture_path("gaussian.json"), "--out", str(b), "--seed", "99")
        == 0
    )
    ra = read_report(a, "gaussian")
    rb = read_report(b, "gaussian")
    assert ra["seed"] == 7 and rb["seed"] == 99
    assert (
        ra["results"]["second_moment"]["estimate"]
        != rb["results"]["second_moment"]["estimate"]
    )


def test_concentration_report_does_not_depend_on_the_seed(tmp_path):
    """The concentration kind is decided in closed form and draws nothing:
    two seeds give reports that differ only in the echoed seed, also where
    the tails on the delta-sphere differ from point to point."""
    cfg = _fixture_with(tmp_path, "concentration", p=_I2, epsilon=3.0, delta=1.0)
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert run_cli("run", cfg, "--out", str(out), "--seed", seed) == 0
        reports.append(read_report(out, "concentration_changed"))
    assert [r.pop("seed") for r in reports] == [1, 2]
    assert reports[0] == reports[1]


def test_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", str(bad)) == 2
    assert run_cli("validate", str(bad)) == 2


def test_missing_file_exit_2(tmp_path):
    assert run_cli("run", str(tmp_path / "nope.json")) == 2


def test_unknown_kind_suggestion(capsys):
    problems = validate_config({"kind": "gausian", "parameters": {}})
    assert any("did you mean 'gaussian'" in p for p in problems)


def test_unknown_fields_rejected():
    cfg = json.loads(Path(fixture_path("trace.json")).read_text())
    cfg["bogus"] = 1
    assert any("unknown top-level" in p for p in validate_config(cfg))
    cfg2 = json.loads(Path(fixture_path("trace.json")).read_text())
    cfg2["parameters"]["bogus"] = 1
    assert any("unknown fields" in p for p in validate_config(cfg2))


def test_empty_config_enumerates_errors():
    problems = validate_config({})
    assert problems
    assert any("kind" in p for p in problems)


def test_validate_ok_all_fixtures():
    for fixture in (
        "trace.json",
        "gaussian.json",
        "fundamental_lemma.json",
        "concentration.json",
        "main_theorem.json",
        "carleman_gaussian.json",
        "tilde_trace.json",
        "construct_q.json",
    ):
        assert run_cli("validate", fixture_path(fixture)) == 0


def test_numerical_error_exit_3(tmp_path):
    cfg = tmp_path / "notpsd.json"
    cfg.write_text(
        json.dumps(
            {
                "kind": "trace",
                "parameters": {"p": [[-1.0]], "q": [[1.0]]},
            }
        )
    )
    assert run_cli("run", str(cfg), "--out", str(tmp_path)) == 3


def test_principal_minor_breaking_the_psd_rule_exit_3(tmp_path, capsys):
    """p = diag(-5e-9, 100, -7e-9) passes the PSD rule (the cutoff scales
    with lambda_max = 100) and so validate, but its minors on {0} and {2}
    do not: run is a numerical verdict naming the first failing index in
    index order."""
    cfg = tmp_path / "psd_minor.json"
    cfg.write_text(json.dumps({
        "kind": "concentration",
        "parameters": {
            "global_measure": {"atoms": [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
                               "weights": [0.5, 0.5]},
            "p": [[-5e-9, 0.0, 0.0], [0.0, 100.0, 0.0], [0.0, 0.0, -7e-9]],
            "epsilon": 0.04,
            "delta": 0.2,
        },
    }))
    assert run_cli("validate", str(cfg)) == 0
    assert run_cli("run", str(cfg), "--out", str(tmp_path)) == 3
    assert "NotPSD: gram has eigenvalue -5.000e-09" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "int_beyond_float"],
)
def test_non_finite_matrix_entry_exit_2(tmp_path, entry):
    """Python's json parses NaN and Infinity; both validate and run reject
    them as a config problem, as they do an integer beyond float range."""
    cfg = tmp_path / "nonfinite.json"
    cfg.write_text(
        '{"kind": "trace", "parameters": {"p": [[1.0, %s], [0.0, 1.0]], '
        '"q": [[1.0, 0.0], [0.0, 1.0]]}}' % entry
    )
    assert run_cli("validate", str(cfg)) == 2
    assert run_cli("run", str(cfg), "--out", str(tmp_path)) == 2


@pytest.mark.parametrize(
    "measure",
    [
        '{"atoms": [[NaN, 0.0], [-1.0, 0.0]], "weights": [0.5, 0.5]}',
        '{"atoms": [[1.0, 2.0], [-1.0]], "weights": [0.5, 0.5]}',
        '{"atoms": [[1.0, 2.0], [-1.0, 0.0]], "weights": [1.0]}',
        '{"atoms": [[1.0, 2.0], [-1.0, 0.0]], "weights": [0.45, 0.45]}',
        '{"atoms": [[1.0, 2.0], [-1.0, 0.0]], "weights": [1e308, 1e308]}',
    ],
    ids=[
        "nan_atom",
        "ragged_atoms",
        "one_weight_two_atoms",
        "weights_sum_0.9",
        "weights_sum_overflows",
    ],
)
def test_malformed_measure_exit_2(tmp_path, measure):
    """A measure's atoms must be equal-length lists of finite numbers and its
    weights one nonnegative number per atom summing to 1; both validate and
    run reject anything else as a config problem."""
    cfg = tmp_path / "measure.json"
    cfg.write_text(
        '{"kind": "concentration", "parameters": {"global_measure": %s, '
        '"p": [[1.0, 1.0], [1.0, 2.0]], "epsilon": 0.04, "delta": 0.2}}' % measure
    )
    assert run_cli("validate", str(cfg)) == 2
    assert run_cli("run", str(cfg), "--out", str(tmp_path)) == 2


def _boundary_totals():
    """The floats x nearest 1 +- WEIGHT_SUM_TOL with |x - 1| <= WEIGHT_SUM_TOL,
    each paired with its neighbour just outside the band."""
    hi = 1.0 + WEIGHT_SUM_TOL
    while hi - 1.0 > WEIGHT_SUM_TOL:
        hi = math.nextafter(hi, 0.0)
    while math.nextafter(hi, 2.0) - 1.0 <= WEIGHT_SUM_TOL:
        hi = math.nextafter(hi, 2.0)
    lo = 1.0 - WEIGHT_SUM_TOL
    while 1.0 - lo > WEIGHT_SUM_TOL:
        lo = math.nextafter(lo, 2.0)
    while 1.0 - math.nextafter(lo, 0.0) <= WEIGHT_SUM_TOL:
        lo = math.nextafter(lo, 0.0)
    return [(hi, True), (math.nextafter(hi, 2.0), False), (lo, True),
            (math.nextafter(lo, 0.0), False), (1.0, True)]


@pytest.mark.parametrize("total, accepted", _boundary_totals())
def test_weight_sum_boundary_is_one_rule(total, accepted):
    """validate_config accepts exactly the weights DiscreteMeasure accepts,
    at the edges of the WEIGHT_SUM_TOL band.  Both 0.5 and total - 0.5 are
    exact, so the weights sum to ``total`` exactly."""
    weights = [0.5, total - 0.5]
    atoms = [[1.0, 2.0], [-1.0, 0.0]]
    config = {
        "kind": "concentration",
        "parameters": {
            "global_measure": {"atoms": atoms, "weights": weights},
            "p": [[1.0, 1.0], [1.0, 2.0]],
            "epsilon": 0.04,
            "delta": 0.2,
        },
    }
    assert (validate_config(config) == []) is accepted
    try:
        DiscreteMeasure(dim=2, atoms=atoms, weights=weights)
    except ValueError:
        assert not accepted
    else:
        assert accepted


_DROP = object()  # a parameter given this value is removed from the fixture


def _fixture_with(tmp_path, stem, **parameters):
    """A bundled fixture with some parameters replaced (or removed, when
    given as _DROP), written to tmp_path."""
    config = json.loads(Path(fixture_path(f"{stem}.json")).read_text())
    config["parameters"].update(parameters)
    for name, value in parameters.items():
        if value is _DROP:
            del config["parameters"][name]
    cfg = tmp_path / f"{stem}_changed.json"
    cfg.write_text(json.dumps(config))
    return str(cfg)


_I2 = [[1.0, 0.0], [0.0, 1.0]]
_TWO_ATOMS = {"atoms": [[1.0, 0.0], [-1.0, 0.5]], "weights": [0.5, 0.5]}


@pytest.mark.parametrize(
    "stem, parameters",
    [
        ("concentration", {"global_measure": {"atoms": [[1.0, 2.0, 0.5]], "weights": [1.0]}}),
        ("fundamental_lemma", {"q": _I2}),
        ("fundamental_lemma", {"p": _I2, "q": _I2}),
        ("main_theorem", {"q": [[1.0]]}),
        ("main_theorem", {"generators": [{"dim": 3, "terms": [{"alpha": [1, 0, 0], "c": 1.0}]}]}),
        ("main_theorem", {"generators": [{"dim": 2, "terms": [{"alpha": [1, 0, 0], "c": 1.0}]}]}),
        ("main_theorem", {"generators": [{"dim": 2, "terms": [{"alpha": [4, 1], "c": 1.0}]}]}),
        ("gaussian", {"w": [1.0, 0.0, 0.0]}),
        ("gaussian", {"functional": [1.0]}),
        ("gaussian", {"p": [[1.0]]}),
        ("gaussian", {"delta": _DROP}),
        ("gaussian", {"p": _DROP}),
        ("tilde_trace", {"dim": 2}),
        ("tilde_trace", {"max_degree": 2}),
        ("tilde_trace", {"lam": [1.0]}),
        ("tilde_trace", {"eta": [1.0, 1.0, 1.0]}),
        ("tilde_trace", {"constants": [1.0, 1.0]}),
        ("construct_q", {"vectors": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}),
        ("carleman_gaussian", {"family": "cauchy"}),
        ("carleman_gaussian", {"family": _DROP}),
        ("carleman_gaussian", {"family": _DROP, "measure": _TWO_ATOMS}),
        ("carleman_gaussian", {"family": _DROP, "measure": _TWO_ATOMS, "direction": [1.0, 0.0, 0.0]}),
    ],
    ids=[
        "concentration_atoms_vs_p",
        "fundamental_lemma_q_vs_p",
        "fundamental_lemma_atoms_vs_p",
        "main_theorem_q_vs_atoms",
        "main_theorem_generator_dim",
        "main_theorem_generator_alpha_length",
        "main_theorem_generator_degree",
        "gaussian_w_vs_q",
        "gaussian_functional_vs_q",
        "gaussian_p_vs_q",
        "gaussian_p_without_delta",
        "gaussian_delta_without_p",
        "tilde_trace_pairs_vs_dim",
        "tilde_trace_pairs_vs_max_degree",
        "tilde_trace_lam_length",
        "tilde_trace_eta_length",
        "tilde_trace_constants_length",
        "construct_q_vectors_vs_p",
        "carleman_unknown_family",
        "carleman_neither_family_nor_measure",
        "carleman_measure_without_direction",
        "carleman_direction_vs_atoms",
    ],
)
def test_cross_field_mismatch_exit_2(tmp_path, stem, parameters):
    """Parameters whose sizes or degrees disagree with one another are a
    config problem for validate and run alike, not a traceback (exit 1) or a
    numerical verdict (exit 3)."""
    cfg = _fixture_with(tmp_path, stem, **parameters)
    assert run_cli("validate", cfg) == 2
    assert run_cli("run", cfg, "--out", str(tmp_path)) == 2


def test_carleman_zero_direction_is_typed(tmp_path, capsys):
    """An all-zero direction is a config problem for validate and run alike;
    a direction that vanishes on every atom (L(v^2) = 0) ends in
    ZeroNormDirection, exit 3, not in a NaN that has no JSON encoding."""
    on_axis = {"atoms": [[1.0, 0.0], [-2.0, 0.0]], "weights": [0.5, 0.5]}
    zero = _fixture_with(tmp_path, "carleman_gaussian", family=_DROP, measure=on_axis,
                         direction=[0.0, 0.0])
    assert run_cli("validate", zero) == 2
    assert run_cli("run", zero, "--out", str(tmp_path)) == 2
    assert "parameters.direction" in capsys.readouterr().err
    kernel = _fixture_with(tmp_path, "carleman_gaussian", family=_DROP, measure=on_axis,
                           direction=[0.0, 1.0])
    assert run_cli("validate", kernel) == 0
    assert run_cli("run", kernel, "--out", str(tmp_path)) == 3
    assert "ZeroNormDirection" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.report.json"))


@pytest.mark.parametrize(
    "stem, parameters",
    [
        ("concentration", {"delta": 1e300}),
        ("concentration", {"epsilon": 1e300}),
        ("concentration", {"equivalence_grid": [[0.04, 1e300]]}),
        ("concentration", {"equivalence_grid": [[0.04, 0.0]]}),
        ("fundamental_lemma", {"delta": 1e300}),
        ("fundamental_lemma", {"epsilon": 1e300}),
        ("gaussian", {"delta": 1e300}),
        ("main_theorem", {"eps_grid": [0.0]}),
        ("main_theorem", {"eps_grid": [0.04, -0.04]}),
        ("main_theorem", {"eps_grid": [1e-320]}),
        ("tilde_trace", {"lam": [-1.0, 1.0]}),
        ("tilde_trace", {"eta": [1.0, 0.0]}),
        ("tilde_trace", {"constants": [-1.0]}),
        ("concentration", {"delta": 1e-320}),
        ("concentration", {"equivalence_grid": [[0.04, 1e-200]]}),
        ("fundamental_lemma", {"delta": 1e-200}),
        ("gaussian", {"delta": 1e-320}),
        ("tilde_trace", {"lam": [1e200, 1.0]}),
        ("tilde_trace", {"eta": [1.0, 1e308]}),
        ("tilde_trace", {"lam": [1.0, 1e-200]}),
        ("tilde_trace", {"eta": [1e-320, 1.0]}),
        ("construct_q", {"lam": [-1.0, 0.5, 0.25]}),
        ("construct_q", {"lam": [1.0, 0.0, 0.25]}),
        ("construct_q", {"lam": [1.0, 1e200, 0.25]}),
        ("carleman_gaussian", {"n_max": 3}),
    ],
    ids=[
        "concentration_delta_square_overflows",
        "concentration_epsilon_square_overflows",
        "equivalence_grid_delta_square_overflows",
        "equivalence_grid_delta_zero",
        "fundamental_lemma_delta_square_overflows",
        "fundamental_lemma_epsilon_square_overflows",
        "gaussian_delta_square_overflows",
        "main_theorem_eps_zero",
        "main_theorem_eps_negative",
        "main_theorem_eps_subnormal",
        "tilde_trace_negative_lam",
        "tilde_trace_zero_eta",
        "tilde_trace_negative_constant",
        "concentration_delta_square_underflows",
        "equivalence_grid_delta_square_underflows",
        "fundamental_lemma_delta_square_underflows",
        "gaussian_delta_square_underflows",
        "tilde_trace_lam_square_overflows",
        "tilde_trace_eta_square_overflows",
        "tilde_trace_lam_square_underflows",
        "tilde_trace_eta_square_underflows",
        "construct_q_negative_lam",
        "construct_q_zero_lam",
        "construct_q_lam_square_overflows",
        "carleman_n_max_below_4",
    ],
)
def test_numbers_the_checks_cannot_take_exit_2(tmp_path, stem, parameters):
    """A delta or epsilon whose square overflows or underflows to 0, a grid
    delta of 0, an eps that is not positive, tower or construct_q weights
    of the wrong sign or whose squares overflow or underflow, and a
    Carleman n_max below 4 are rejected at the boundary (before, overflow,
    division by zero or a constructor's error ended in a traceback, a run
    exited 3, or validate passed what run rejected)."""
    cfg = _fixture_with(tmp_path, stem, **parameters)
    assert run_cli("validate", cfg) == 2
    assert run_cli("run", cfg, "--out", str(tmp_path)) == 2


_I13 = [[float(i == j) for j in range(13)] for i in range(13)]
_ATOMS13 = {"atoms": [[0.5] * 13, [-0.5] * 13], "weights": [0.5, 0.5]}


@pytest.mark.parametrize(
    "stem, parameters, problem",
    [
        ("concentration", {"global_measure": _ATOMS13, "p": _I13}, "lattice cap 12"),
        ("main_theorem", {"measure": _ATOMS13, "q": _I13, "generators": []}, "lattice cap 12"),
        ("main_theorem", {"degrees": 10**6}, "monomials"),
        ("gaussian", {"samples": 10**12}, "block cap"),
        ("gaussian", {"samples": 4 * BLOCK_SAMPLES_CAP + 1, "streams": 4}, "block cap"),
        ("gaussian", {"streams": 10**9}, "stream cap"),
        ("gaussian", {"samples": 10**12, "streams": STREAMS_CAP + 1}, "stream cap"),
    ],
    ids=[
        "concentration_n13", "main_theorem_n13", "main_theorem_degrees_1e6",
        "gaussian_samples_1e12", "gaussian_block_past_cap", "gaussian_streams_1e9",
        "gaussian_streams_past_cap",
    ],
)
def test_work_the_runs_cannot_do_exit_2(tmp_path, capsys, stem, parameters, problem):
    """A lattice past the cap (before, a concentration run exited 3 with
    NotInScope and a main_theorem run ended in a KeyError traceback), a
    degree whose monomial count passes MONOMIAL_CAP (before, a run without
    end), and a gaussian block past BLOCK_SAMPLES_CAP or streams past
    STREAMS_CAP (before, validate passed them and the run ended in a
    memory-error traceback, or built a list of one entry per stream) are
    config problems for validate and run alike."""
    cfg = _fixture_with(tmp_path, stem, **parameters)
    assert run_cli("validate", cfg) == 2
    assert problem in capsys.readouterr().err
    assert run_cli("run", cfg, "--out", str(tmp_path)) == 2
    assert problem in capsys.readouterr().err
    assert not list(tmp_path.glob("*.report.json"))


def test_monte_carlo_caps_admit_their_bounds(tmp_path):
    """Streams at STREAMS_CAP and blocks of exactly BLOCK_SAMPLES_CAP samples
    validate; only validated, since a run of the second draws 2**26 samples."""
    for samples, streams in ((STREAMS_CAP, STREAMS_CAP), (4 * BLOCK_SAMPLES_CAP, 4)):
        cfg = _fixture_with(tmp_path, "gaussian", samples=samples, streams=streams)
        assert run_cli("validate", cfg) == 0, (samples, streams)


def test_negative_seed_exit_2(tmp_path):
    """A seed must be a nonnegative integer, in the config and on the
    command line (before, a negative one ended the gaussian run in a
    SeedSequence traceback)."""
    config = json.loads(Path(fixture_path("gaussian.json")).read_text())
    config["seed"] = -1
    cfg = tmp_path / "gaussian_seed.json"
    cfg.write_text(json.dumps(config))
    assert run_cli("validate", str(cfg)) == 2
    assert run_cli("run", str(cfg), "--out", str(tmp_path)) == 2
    assert run_cli("run", fixture_path("gaussian.json"), "--out", str(tmp_path), "--seed", "-1") == 2
    assert not list(tmp_path.glob("*.report.json"))


def test_removed_probe_budget_is_an_unknown_field(tmp_path, capsys):
    """The concentration kind draws no probes, so a config that still sets
    probe_budget names an unknown field."""
    cfg = _fixture_with(tmp_path, "concentration", probe_budget=16)
    assert run_cli("validate", cfg) == 2
    assert run_cli("run", cfg, "--out", str(tmp_path)) == 2
    assert "unknown fields ['probe_budget']" in capsys.readouterr().err


def test_singular_reference_basis_exit_3(tmp_path, capsys):
    """A tilde_trace base form whose reference basis cannot be inverted is
    a numerical verdict (before, a LinAlgError traceback)."""
    config = json.loads(Path(fixture_path("tilde_trace.json")).read_text())
    config["parameters"]["pairs"][0]["q"][0][0] = 1e-320
    cfg = tmp_path / "tilde_trace_singular.json"
    cfg.write_text(json.dumps(config))
    assert run_cli("validate", str(cfg)) == 0
    assert run_cli("run", str(cfg), "--out", str(tmp_path)) == 3
    assert "IllConditioned" in capsys.readouterr().err


_SWEEP_VALUES = [None, "x", -1, 0, 1e-320, 1e-200, 1e200, 1e308, [], [[1.0]]]


def _mutations(config):
    """(label, config) for each fixture mutation of the sweep: the seed, each
    parameter and the first entry of each list parameter, replaced by each
    of _SWEEP_VALUES and also deleted."""
    params = config["parameters"]
    paths = [("seed",)] + [("parameters", name) for name in params]
    paths += [("parameters", name, 0) for name, v in params.items() if isinstance(v, list) and v]
    for *where, key in paths:
        for value in [*_SWEEP_VALUES, _DROP]:
            mutated = copy.deepcopy(config)
            holder = mutated
            for step in where:
                holder = holder[step]
            if value is not _DROP:
                holder[key] = value
            elif isinstance(holder, list) or key in holder:
                del holder[key]
            label = "deleted" if value is _DROP else repr(value)
            yield f"{'.'.join(map(str, [*where, key]))} = {label}", mutated


_FIXTURE_STEMS = sorted(
    p.name[: -len(".json")] for p in resources.files("momentkit").joinpath("fixtures").iterdir()
)


@pytest.mark.parametrize("stem", _FIXTURE_STEMS)
def test_mutated_fixtures_end_in_typed_exit_codes(tmp_path, capsys, stem):
    """A deterministic sweep of bad values over every bundled fixture: no
    exception escapes and no traceback prints, validate exits 0 or 2, run
    exits 0-3, run exits 2 exactly when validate does, and every report a
    run writes is strict JSON."""
    config = json.loads(Path(fixture_path(f"{stem}.json")).read_text())
    cfg, flagged = tmp_path / "mutated.json", []
    for i, (label, mutated) in enumerate(_mutations(config)):
        cfg.write_text(json.dumps(mutated))
        out = tmp_path / f"out{i}"
        try:
            checked = run_cli("validate", str(cfg))
            ran = run_cli("run", str(cfg), "--out", str(out))
            for report in out.glob("*.report.json"):
                json.loads(report.read_text(), parse_constant=_raise_on_constant)
        except Exception as exc:
            flagged.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        printed = capsys.readouterr()
        if (
            "Traceback" in printed.out + printed.err
            or checked not in (0, 2)
            or ran not in (0, 1, 2, 3)
            or (ran == 2) != (checked == 2)
        ):
            flagged.append(f"{label}: validate {checked}, run {ran}")
    assert flagged == []


def test_monomial_cap_admits_every_degree_4_lattice():
    """MONOMIAL_CAP admits degree 4 up to the lattice cap, as every bundled
    and benchmark main_theorem config asks for, and nothing above it."""
    from momentkit.errors import LATTICE_CAP, MONOMIAL_CAP

    config = json.loads(Path(fixture_path("main_theorem.json")).read_text())
    params = config["parameters"]
    params.update(generators=[], measure={"atoms": [[0.0] * LATTICE_CAP], "weights": [1.0]},
                  q=[[float(i == j) for j in range(LATTICE_CAP)] for i in range(LATTICE_CAP)])
    assert validate_config(config) == []
    assert math.comb(LATTICE_CAP + 4, 4) == MONOMIAL_CAP
    params["degrees"] = 5
    assert len(validate_config(config)) == 1


def _scaled_main_theorem(n, s):
    """A seeded main_theorem config (six atoms in [-1, 1]^n, q = G G^T + I,
    the ball 1.5 times the largest atom's squared norm) with its atoms
    scaled by s, q by s^2 and the ball's constant by s^2."""
    import numpy as np

    rng = np.random.default_rng(1)
    atoms, raw, g = rng.uniform(-1.0, 1.0, (6, n)), rng.integers(1, 10, 6), rng.standard_normal((n, n))
    terms = [{"alpha": [0] * n, "c": s * s * 1.5 * float((atoms**2).sum(axis=1).max())}]
    terms += [{"alpha": [2 * (j == i) for j in range(n)], "c": -1.0} for i in range(n)]
    return {"kind": "main_theorem", "parameters": {
        "measure": {"atoms": (s * atoms).tolist(), "weights": (raw / raw.sum()).tolist()},
        "q": (s * s * (g @ g.T + np.eye(n))).tolist(),
        "generators": [{"dim": n, "terms": terms}], "degrees": 4, "eps_grid": [0.04, 0.25],
    }}


@pytest.mark.parametrize("s", [16.0, 50.0])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_main_theorem_on_large_atoms_exit_0(tmp_path, n, s):
    """Moment rounding grows as R^|alpha|, R the largest |coordinate|, and
    so do the consistency and representation identity tolerances: atoms up
    to 50 in size pass every stage (absolute tolerances failed the
    identity at s = 16 with max_error 3.6e-12, and consistency too at
    s = 50), and the report echoes the unchanged constants."""
    cfg = tmp_path / "scaled.json"
    cfg.write_text(json.dumps(_scaled_main_theorem(n, s)))
    assert run_cli("run", str(cfg), "--out", str(tmp_path)) == 0
    report = read_report(tmp_path, "scaled")
    assert report["tolerances"]["consistency_abs"] == CONSISTENCY_ABS
    assert report["tolerances"]["identity_abs"] == IDENTITY_ABS


def test_lattice_tolerances_echo_the_constants_that_ran(tmp_path):
    """The tolerances a concentration or main_theorem report echoes are the
    module constants the checks use."""
    expected = {
        "concentration": {"certificate_slack": CERTIFICATE_SLACK},
        "main_theorem": {
            "certificate_slack": CERTIFICATE_SLACK,
            "consistency_abs": CONSISTENCY_ABS,
            "identity_abs": IDENTITY_ABS,
        },
    }
    for stem, tolerances in expected.items():
        assert run_cli("run", fixture_path(f"{stem}.json"), "--out", str(tmp_path)) == 0
        assert read_report(tmp_path, stem)["tolerances"] == tolerances


def test_tolerance_echo_follows_overrides(tmp_path):
    """A config that overrides a tolerance gets that value echoed; without
    the override the echo is the default the check ran with."""
    for stem, key, override, echo_key in [
        ("carleman_gaussian", "margin", 0.3, "decay_margin"),
        ("tilde_trace", "rel_tol", 1e-3, "two_path_rel"),
    ]:
        config = json.loads(Path(fixture_path(f"{stem}.json")).read_text())
        run_cli("run", fixture_path(f"{stem}.json"), "--out", str(tmp_path / "default"))
        default = read_report(tmp_path / "default", stem)["tolerances"][echo_key]
        assert default != override
        config["parameters"][key] = override
        cfg = tmp_path / f"{stem}.json"
        cfg.write_text(json.dumps(config))
        run_cli("run", str(cfg), "--out", str(tmp_path))
        assert read_report(tmp_path, stem)["tolerances"] == {echo_key: override}


def _raise_on_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


def test_infinite_trace_report_is_valid_json(tmp_path):
    """A divergent trace is written as the string "infinite", the one JSON
    encoding of INFINITE, not as NaN or Infinity."""
    cfg = tmp_path / "construct_q_infinite.json"
    cfg.write_text(
        json.dumps(
            {
                "kind": "construct_q",
                "parameters": {
                    "p": [[1.0, 0.0], [0.0, 1.0]],
                    "vectors": [[1.0, 0.0], [1.0, 0.0]],
                    "lam": [1.0, 1.0],
                },
            }
        )
    )
    assert run_cli("run", str(cfg), "--out", str(tmp_path)) == 1
    text = (tmp_path / "construct_q_infinite.report.json").read_text()
    report = json.loads(text, parse_constant=_raise_on_constant)
    assert report["results"]["trace"] == "infinite"
    assert report["passed"] is False


def test_every_parameter_type_has_a_checker():
    """validate_config looks each parameter's type tag up in the checker
    table, so a tag without a checker would fail loudly, not pass silently."""
    tags = {
        typ
        for spec in SCENARIO_KINDS.values()
        for part in ("required", "optional")
        for typ in spec[part].values()
    }
    assert tags <= set(_CHECKERS)
    errors: list = []
    _CHECKERS["number_or_infinite"]("infinite", "x", errors)
    _CHECKERS["number_or_infinite"](2.5, "x", errors)
    assert errors == []
    _CHECKERS["number_or_infinite"]("finite", "x", errors)
    assert errors == ['x: expected a number or "infinite"']


def test_csv_rfc4180(tmp_path):
    assert (
        run_cli("run", fixture_path("main_theorem.json"), "--out", str(tmp_path)) == 0
    )
    path = tmp_path / "main_theorem.report.stages.csv"
    raw = path.read_bytes()
    assert b"\r\n" in raw  # RFC-4180 line endings
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "status"]
    assert len(rows) == 10  # header + nine stages


def test_list_subcommand(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    for kind in SCENARIO_KINDS:
        assert kind in out


def test_output_path_from_config(tmp_path):
    assert (
        run_cli(
            "run",
            fixture_path("main_theorem_kq_violation.json"),
            "--out",
            str(tmp_path),
        )
        == 1
    )
    assert (tmp_path / "main_theorem_kq_violation.report.json").exists()
