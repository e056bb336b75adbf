"""Experiment harness CLI.

Subcommands:

* ``generate`` writes a synthetic blob CSV with a binary protected column.
* ``run`` executes a k-sweep over the selected methods per an INI config file
  and writes ``runs.jsonl``, ``summary.csv``, the heuristics' ``trace.jsonl``
  and each fairlet decomposition as ``fairlets_<flavor>.json`` to
  ``--output`` (default ``sweep-out``). ``[dataset]`` names the CSV file
  (relative to the config file) and its protected column, ``[sweep]`` the
  methods, k values and parameters; any other key is a config error.
* ``report`` renders cost/balance/size SVG panels and a text table from a
  sweep output.
* ``validate`` audits an exported fairlet decomposition against the data and
  the threshold ``t`` of the sweep config that produced it.

Exit codes: 0 success, 1 usage or config problem, 2 data or pipeline error,
3 when every run in a sweep was infeasible.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
from fractions import Fraction
from math import isfinite
from pathlib import Path
from typing import Any, Sequence

from . import __version__, baselines, capclust, fairlets, ingest, report, synth
from .core import Params
from .errors import (
    ConfigError,
    ContractViolationError,
    FaircapError,
    IngestError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ALL_INFEASIBLE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_k_values(text: str) -> Sequence[int]:
    """The k values of ``text`` ascending, each once: ``a:b[:step]`` as a
    range, which holds no list of them, or ``a,b,...`` as a tuple."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                start, stop = parts
                step = 1
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError
            if step < 1:
                raise ConfigError(f"sweep.k: step must be positive, got {text!r}")
            values = range(start, stop + 1, step)
        else:
            # canonical record order is (method, k)
            values = tuple(sorted({int(p) for p in text.split(",") if p.strip()}))
    except ValueError as exc:
        raise ConfigError(f"sweep.k: cannot parse {text!r} (use '2:14:2' or '2,4,6')") from exc
    if not values:
        raise ConfigError(f"sweep.k: {text!r} names no k value")
    if values[0] < 1:
        raise ConfigError(f"sweep.k: needs positive values, got {text!r}")
    return values


def _names(text: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in text.split(",") if c.strip())


def _parse_methods(text: str) -> tuple[str, ...]:
    text = text.strip()
    if text in ("", "all"):
        return tuple(baselines.METHODS)
    names = _names(text)
    if not names:
        raise ConfigError(f"sweep.methods: no method named in {text!r}")
    unknown = [m for m in names if m not in baselines.METHODS]
    if unknown:
        raise ConfigError(
            f"sweep.methods: unknown methods {unknown}; valid: {list(baselines.METHODS)}"
        )
    return tuple(sorted(set(names)))


# Each section's keys, with their defaults as config text; any other key is a
# config error.
_SECTIONS = {
    "dataset": {
        "path": "", "protected_column": "", "positive_label": None, "drop_columns": "",
        "scale": "minmax", "delimiter": ",", "numeric_columns": "",
    },
    "sweep": {
        "methods": "all", "k": "2:14:2", "t": "1/2", "lambda": "0.3",
        "epsilon_hierarchical": "1.2", "epsilon_partitioning": "1.01", "seed": "0",
    },
}


class SweepConfig:
    """Validated contents of an experiment config file."""

    def __init__(self, path: str | Path):
        cfg = configparser.ConfigParser()
        try:
            read = cfg.read(path, encoding="utf-8-sig")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not read:
            raise ConfigError(f"{path}: config file not found")
        sections = []
        for section, defaults in _SECTIONS.items():
            if not cfg.has_section(section):
                raise ConfigError(f"{path}: missing [{section}] section")
            try:
                given = {key: value.strip() for key, value in cfg.items(section)}
            except configparser.Error as exc:  # a stray % in a value
                raise ConfigError(f"{path}: [{section}] {exc}") from exc
            for key in given:
                if key not in defaults:
                    raise ConfigError(
                        f"{path}: [{section}] unknown key {key!r}; valid: {', '.join(defaults)}"
                    )
            sections.append({**defaults, **given})
        dataset, sweep = sections

        if not dataset["path"] or not dataset["protected_column"]:
            raise ConfigError(f"{path}: [dataset] needs path and protected_column")
        self.dataset_path = dataset["path"]  # as written, for the provenance line
        try:
            self.dataset_spec = ingest.DatasetSpec(
                path=Path(path).parent / dataset["path"],
                protected_column=dataset["protected_column"],
                positive_label=dataset["positive_label"],
                drop_columns=_names(dataset["drop_columns"]),
                scale=dataset["scale"],
                delimiter=dataset["delimiter"],
                numeric_columns=_names(dataset["numeric_columns"]),
            )
        except ContractViolationError as exc:
            raise ConfigError(f"{path}: [dataset] {exc}") from exc

        # Params holds the bounds; parsing and checking each number alone
        # names its key.
        numbers = {}
        for key, parse, param in (
            ("t", Fraction, "t"),
            ("lambda", float, "lam"),
            ("epsilon_hierarchical", float, "epsilon"),
            ("epsilon_partitioning", float, "epsilon"),
            ("seed", int, "seed"),
        ):
            try:
                numbers[key] = parse(sweep[key])
                Params(k=1, **{param: numbers[key]})
                if key == "t":
                    fairlets.check_threshold(numbers[key])
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"{path}: [sweep] {key}: {exc}") from exc
        self.t, self.lam, self.eps_hier, self.eps_part, self.seed = numbers.values()
        self.k_values = _parse_k_values(sweep["k"] or _SECTIONS["sweep"]["k"])
        self.methods = _parse_methods(sweep["methods"])


def run_sweep(cfg: SweepConfig, out_dir: Path) -> int:
    """Execute the sweep and write artifacts; returns the process exit code."""
    spec = cfg.dataset_spec
    data = ingest.load_csv(spec)
    if cfg.k_values[-1] > data.n:
        raise ConfigError(
            f"sweep.k: k = {cfg.k_values[-1]} exceeds the dataset's n = {data.n} rows, "
            "and no method forms more clusters than rows"
        )
    balance = ingest.dataset_balance(data)
    out_dir.mkdir(parents=True, exist_ok=True)

    provenance = {
        "type": "provenance",
        "version": __version__,
        "dataset": {
            "source": "csv",
            "path": cfg.dataset_path,
            "protected_column": spec.protected_column,
            "scale": spec.scale,
            "n": data.n,
            "dim": data.dim,
            "group_counts": list(data.group_counts()),
            "balance": float(balance),
        },
        "params": {
            "t": str(cfg.t),
            "lambda": cfg.lam,
            "epsilon_hierarchical": cfg.eps_hier,
            "epsilon_partitioning": cfg.eps_part,
            "seed": cfg.seed,
            "k": list(cfg.k_values),
            "methods": list(cfg.methods),
        },
    }

    decomp_cache: dict[str, Any] = {}

    def decomposition_for(flavor: str):
        if flavor not in decomp_cache:
            decomp_cache[flavor] = baselines.decompose(flavor, data, cfg.t, cfg.seed)
        return decomp_cache[flavor]

    rows: list[dict[str, Any]] = []
    traces: list[dict[str, Any]] = []
    for method in sorted(cfg.methods):
        flavor, stage = baselines.METHODS[method]
        epsilon = cfg.eps_hier if stage == "hier" else cfg.eps_part
        # k ascends, so q falls: each hier call replays the merges of the
        # call before it that still fit its q
        merges = capclust.MergeLog() if stage == "hier" else None
        for k in cfg.k_values:
            params = Params(k=k, t=cfg.t, epsilon=epsilon, lam=cfg.lam, seed=cfg.seed)
            try:
                _, record, trace = baselines._run(
                    method, data, params, decomposition_for(flavor), merges
                )
                rows.append({"type": "run", "status": "ok", **record._asdict()})
                for event in trace:
                    traces.append({"method": method, "k": k, **event})
            except FaircapError as exc:
                rows.append({
                    "type": "run", "status": exc.status, "method": method,
                    "k": k, "error": str(exc),
                })

    # one encoder for every line: json.dumps builds a new one per call
    encode = json.JSONEncoder(sort_keys=True).encode
    jsonl = out_dir / "runs.jsonl"
    with jsonl.open("w", encoding="utf-8") as fh:
        fh.write(encode(provenance) + "\n")
        for row in rows:
            fh.write(encode(row) + "\n")

    with (out_dir / "summary.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "k", "status", "cost", "balance", "max_size", "min_size", "q", "t", "seed"]
        )
        for row in rows:
            if row["status"] == "ok":
                writer.writerow([
                    row["method"], row["k"], row["status"], repr(row["cost"]),
                    repr(row["balance"]), max(row["sizes"]), min(row["sizes"]),
                    row["q"], repr(row["t"]), row["seed"],
                ])
            else:
                writer.writerow([row["method"], row["k"], row["status"], "", "", "", "", "", "", ""])

    with (out_dir / "trace.jsonl").open("w", encoding="utf-8") as fh:
        for event in traces:
            fh.write(encode(event) + "\n")
    for flavor, decomp in sorted(decomp_cache.items()):
        if flavor != "rows":  # singletons: nothing to audit
            (out_dir / f"fairlets_{flavor}.json").write_text(
                fairlets.decomposition_to_json(decomp), encoding="utf-8"
            )

    statuses = [row["status"] for row in rows]
    if any(s == "error" for s in statuses):
        return EXIT_DATA
    if statuses and all(s == "infeasible" for s in statuses):
        return EXIT_ALL_INFEASIBLE
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    data = synth.make_blobs(
        args.n, balance=args.balance, clusters=args.clusters, noise=args.noise, seed=args.seed
    )
    path = synth.write_csv(args.out, data)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    out_dir = Path(args.output)
    code = run_sweep(SweepConfig(args.config), out_dir)
    print(f"wrote {out_dir / 'runs.jsonl'}")
    return code


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and isfinite(value)


def _is_fraction_text(value: Any) -> bool:
    if not isinstance(value, str):
        return False
    try:
        Fraction(value)
    except (ValueError, ZeroDivisionError):
        return False
    return True


_COUNT = ("a positive integer", _is_count)
_NUMBER = ("a finite number", _is_number)
_EPSILON = ("a finite number >= 1", lambda v: _is_number(v) and v >= 1)
_TEXT = ("a string", lambda v: isinstance(v, str))
_COUNT_LIST = (
    "a nonempty list of positive integers",
    lambda v: isinstance(v, list) and bool(v) and all(map(_is_count, v)),
)

# The keys `faircap report` reads from each kind of runs.jsonl line, with
# the type and range each must have (description, check).
_REPORT_KEYS = {
    "provenance": {
        "dataset.n": _COUNT, "dataset.balance": _NUMBER,
        "params.t": ("a fraction such as \"1/2\"", _is_fraction_text), "params.k": _COUNT_LIST,
        "params.epsilon_hierarchical": _EPSILON, "params.epsilon_partitioning": _EPSILON,
    },
    "ok": {
        "method": _TEXT, "k": _COUNT, "cost": _NUMBER, "balance": _NUMBER,
        "sizes": _COUNT_LIST, "q": _COUNT,
    },
    "failed": {"method": _TEXT, "k": _COUNT},
}


_MISSING = object()


def _lookup(obj: Any, key: str) -> Any:
    """The value of a dotted key, or ``_MISSING``."""
    for part in key.split("."):
        if not isinstance(obj, dict) or part not in obj:
            return _MISSING
        obj = obj[part]
    return obj


def _read_sweep(path: Path) -> tuple[dict, list[dict], list[dict]]:
    if path.is_dir():
        path = path / "runs.jsonl"
    if not path.exists():
        raise IngestError(f"{path}: no such sweep output")
    provenance: dict | None = None
    records: list[dict] = []
    failures: list[dict] = []
    for lineno, line in enumerate(ingest.read_utf8(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IngestError(f"{path}:{lineno}: not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise IngestError(f"{path}:{lineno}: expected a JSON object")
        if obj.get("type") == "provenance":
            kind = "provenance"
        else:
            kind = "ok" if obj.get("status") == "ok" else "failed"
        found = {key: _lookup(obj, key) for key in _REPORT_KEYS[kind]}
        missing = [key for key, value in found.items() if value is _MISSING]
        if missing:
            raise IngestError(f"{path}:{lineno}: {kind} line lacks {', '.join(missing)}")
        for key, value in found.items():
            what, check = _REPORT_KEYS[kind][key]
            if not check(value):
                raise IngestError(
                    f"{path}:{lineno}: {kind} line's {key} must be {what}, got {value!r}"
                )
        if kind == "provenance":
            provenance = obj
        elif kind == "ok":
            records.append(obj)
        else:
            failures.append(obj)
    if provenance is None:
        raise IngestError(f"{path}: missing provenance line")
    return provenance, records, failures


def _cmd_report(args: argparse.Namespace) -> int:
    sweep = Path(args.sweep)
    provenance, records, failures = _read_sweep(sweep)
    if not records and not failures:
        raise IngestError(f"{args.sweep}: no run records to report on")
    out_dir = Path(args.output or (sweep if sweep.is_dir() else sweep.parent))
    out_dir.mkdir(parents=True, exist_ok=True)
    params = provenance["params"]
    n = provenance["dataset"]["n"]
    ks = sorted({r["k"] for r in records}) or list(params["k"])
    q_lines = {
        f"q eps={params[key]}": {k: capclust.capacity_threshold(n, k, params[key]) for k in ks}
        for key in ("epsilon_hierarchical", "epsilon_partitioning")
    }
    if records:
        t = float(Fraction(params["t"]))
        (out_dir / "cost.svg").write_text(report.cost_chart(records), encoding="utf-8")
        (out_dir / "balance.svg").write_text(
            report.balance_chart(records, t, provenance["dataset"]["balance"]),
            encoding="utf-8",
        )
        (out_dir / "sizes.svg").write_text(
            report.sizes_chart(records, q_lines), encoding="utf-8"
        )
    (out_dir / "summary.txt").write_text(
        report.text_table(records, failures), encoding="utf-8"
    )
    print(f"wrote report under {out_dir}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = SweepConfig(args.config)
    data = ingest.load_csv(cfg.dataset_spec)
    decomp = fairlets.decomposition_from_json(ingest.read_utf8(args.decomposition))
    violations = fairlets.validate(decomp, data, cfg.t).violations
    if not violations:
        print(f"valid decomposition: {len(decomp)} fairlets cover {data.n} rows")
        return EXIT_OK
    for violation in violations:
        print(f"violation: {violation}")
    return EXIT_DATA


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="faircap", description=__doc__)
    parser.add_argument("--version", action="version", version=f"faircap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic blob CSV")
    gen.add_argument("--out", required=True)
    gen.add_argument("--n", type=int, default=200)
    gen.add_argument("--balance", type=float, default=1.0)
    gen.add_argument("--clusters", type=int, default=3)
    gen.add_argument("--noise", type=float, default=0.06)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    run = sub.add_parser("run", help="run a k-sweep per a config file")
    run.add_argument("config")
    run.add_argument("--output", default="sweep-out", help="output directory")
    run.set_defaults(func=_cmd_run)

    rep = sub.add_parser("report", help="render charts from a sweep output")
    rep.add_argument("sweep", help="sweep directory or runs.jsonl path")
    rep.add_argument("--output", default=None, help="output directory (default: runs.jsonl's)")
    rep.set_defaults(func=_cmd_report)

    val = sub.add_parser(
        "validate", help="audit an exported fairlet decomposition against a sweep's data and t"
    )
    val.add_argument("config", help="the sweep's config file")
    val.add_argument("--decomposition", required=True, help="decomposition JSON path")
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except FaircapError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
