"""Command-line front end: run / validate / list for scenario configs.

Reports are byte-stable for a fixed config and seed: strict JSON with sorted
keys, two-space indent, and no timestamps.  Run metadata (wall-clock time, paths)
goes to a sibling ``.meta.json`` so report diffs stay clean.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, MomentkitError
from .scenarios import SCENARIO_KINDS, run_config, validate_config


def _load_config(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}")


def _write_csv(path: Path, table):
    # csv defaults implement RFC-4180 quoting; \r\n line endings included.
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table["header"])
        writer.writerows(table["rows"])


def _report_paths(config, config_path: Path, out_dir: Path):
    name = config.get("output_path") or (config_path.stem + ".report.json")
    report_path = out_dir / name
    return report_path, report_path.with_suffix(".meta.json")


def cmd_run(args) -> int:
    config_path = Path(args.config)
    try:
        config = _load_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = validate_config(config)
    if args.seed is not None and args.seed < 0:
        problems.append("--seed must be a nonnegative integer")
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return 2
    started = datetime.datetime.now(datetime.timezone.utc)
    try:
        passed, results, tables, seed = run_config(config, args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MomentkitError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finished = datetime.datetime.now(datetime.timezone.utc)

    report = {
        "kind": config["kind"],
        "seed": seed,
        "version": __version__,
        # what "passed" meant, without consulting the source
        "tolerances": SCENARIO_KINDS[config["kind"]]["tolerances"](config["parameters"]),
        "passed": passed,
        "results": results,
    }
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # a NaN or infinite float has no JSON encoding
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    report_path, meta_path = _report_paths(config, config_path, out_dir)
    report_path.write_text(text + "\n")
    csv_paths = []
    base = report_path.name
    if base.endswith(".json"):
        base = base[: -len(".json")]
    for name in sorted(tables):
        csv_path = report_path.with_name(f"{base}.{name}.csv")
        _write_csv(csv_path, tables[name])
        csv_paths.append(csv_path.name)
    meta = {
        "config_path": str(config_path),
        "started": started.isoformat(),
        "finished": finished.isoformat(),
        "report": report_path.name,
        "tables": csv_paths,
    }
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    status = "pass" if passed else "FAIL"
    print(f"{config['kind']}: {status} -> {report_path}")
    return 0 if passed else 1


def cmd_validate(args) -> int:
    try:
        config = _load_config(Path(args.config))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = validate_config(config)
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 2
    print("ok")
    return 0


def cmd_list(args) -> int:
    for kind in sorted(SCENARIO_KINDS):
        spec = SCENARIO_KINDS[kind]
        print(f"{kind}: {spec['description']}")
        req = ", ".join(sorted(spec["required"])) or "(none)"
        opt = ", ".join(sorted(spec["optional"])) or "(none)"
        print(f"  required: {req}")
        print(f"  optional: {opt}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentkit",
        description="run deterministic moment-problem verification scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("config", help="path to a scenario config JSON file")
    run_p.add_argument("--out", default=".", help="directory for reports")
    run_p.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="path to a scenario config JSON file")
    val_p.set_defaults(func=cmd_validate)

    list_p = sub.add_parser("list", help="list scenario kinds and parameters")
    list_p.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
