"""Experiment harness CLI.

Subcommands:

* ``generate`` writes a synthetic blob CSV with a binary protected column.
* ``run`` executes a k-sweep over the selected methods per a config file and
  writes ``runs.jsonl`` plus ``summary.csv``.
* ``report`` renders cost/balance/size SVG panels and a text table from a
  sweep output.
* ``validate`` audits an exported fairlet decomposition against a dataset.

Exit codes: 0 success, 1 usage or config problem, 2 data or pipeline error,
3 when every run in a sweep was infeasible. The output directory can be
overridden with the ``FAIRCAP_OUTPUT_DIR`` environment variable.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from . import __version__, baselines, capclust, fairlets, ingest, report, synth
from .core import Dataset, Params
from .errors import (
    ConfigError,
    ContractViolationError,
    FaircapError,
    InfeasibilityError,
    IngestError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ALL_INFEASIBLE = 3

DEFAULTS = {
    "t": Fraction(1, 2),
    "lambda": 0.3,
    "epsilon_hierarchical": 1.2,
    "epsilon_partitioning": 1.01,
    "k": (2, 4, 6, 8, 10, 12, 14),
    "seed": 0,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_k_values(text: str) -> tuple[int, ...]:
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
            values = tuple(range(start, stop + 1, step))
        else:
            values = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"sweep.k: cannot parse {text!r} (use '2:14:2' or '2,4,6')") from exc
    if not values or min(values) < 1:
        raise ConfigError(f"sweep.k: needs positive values, got {text!r}")
    return tuple(sorted(set(values)))  # canonical record order is (method, k)


def _parse_methods(text: str) -> tuple[str, ...]:
    text = text.strip()
    if text in ("", "all"):
        return baselines.METHODS
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    unknown = [m for m in names if m not in baselines.METHODS]
    if unknown:
        raise ConfigError(
            f"sweep.methods: unknown methods {unknown}; valid: {list(baselines.METHODS)}"
        )
    return tuple(sorted(set(names)))


def _get(cfg: configparser.ConfigParser, section: str, key: str, default: Any = None) -> Any:
    if cfg.has_option(section, key):
        return cfg.get(section, key).strip()
    return default


class SweepConfig:
    """Validated contents of an experiment config file."""

    def __init__(self, path: str | Path):
        cfg = configparser.ConfigParser()
        try:
            read = cfg.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not read:
            raise ConfigError(f"{path}: config file not found")
        if not cfg.has_section("dataset"):
            raise ConfigError(f"{path}: missing [dataset] section")
        if not cfg.has_section("sweep"):
            raise ConfigError(f"{path}: missing [sweep] section")

        self.path = Path(path)
        self.generate = _get(cfg, "dataset", "generate", "false").lower() in ("1", "true", "yes")
        if self.generate:
            try:
                self.gen_n = int(_get(cfg, "dataset", "n", "200"))
                self.gen_balance = float(_get(cfg, "dataset", "balance", "1.0"))
                self.gen_clusters = int(_get(cfg, "dataset", "clusters", "3"))
                self.gen_noise = float(_get(cfg, "dataset", "noise", "0.06"))
                self.gen_dims = int(_get(cfg, "dataset", "dims", "2"))
                raw_weights = _get(cfg, "dataset", "blob_weights", "")
                self.gen_weights = (
                    tuple(float(w) for w in raw_weights.split(",")) if raw_weights else None
                )
            except ValueError as exc:
                raise ConfigError(f"{path}: [dataset] generator field: {exc}") from exc
            self.dataset_spec = None
        else:
            data_path = _get(cfg, "dataset", "path")
            protected = _get(cfg, "dataset", "protected_column")
            if not data_path or not protected:
                raise ConfigError(
                    f"{path}: [dataset] needs either generate=true or both "
                    "path and protected_column"
                )
            drop = _get(cfg, "dataset", "drop_columns", "")
            numeric = _get(cfg, "dataset", "numeric_columns", "")
            self.dataset_spec = ingest.DatasetSpec(
                path=data_path,
                protected_column=protected,
                positive_label=_get(cfg, "dataset", "positive_label"),
                drop_columns=tuple(c.strip() for c in drop.split(",") if c.strip()),
                scale=_get(cfg, "dataset", "scale", "minmax"),
                delimiter=_get(cfg, "dataset", "delimiter", ","),
                numeric_columns=tuple(c.strip() for c in numeric.split(",") if c.strip()),
            )

        try:
            self.t = Fraction(_get(cfg, "sweep", "t", str(DEFAULTS["t"])))
            self.lam = float(_get(cfg, "sweep", "lambda", str(DEFAULTS["lambda"])))
            self.eps_hier = float(
                _get(cfg, "sweep", "epsilon_hierarchical", str(DEFAULTS["epsilon_hierarchical"]))
            )
            self.eps_part = float(
                _get(cfg, "sweep", "epsilon_partitioning", str(DEFAULTS["epsilon_partitioning"]))
            )
            self.seed = int(_get(cfg, "sweep", "seed", str(DEFAULTS["seed"])))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{path}: [sweep] field: {exc}") from exc
        k_text = _get(cfg, "sweep", "k", "")
        self.k_values = _parse_k_values(k_text) if k_text else DEFAULTS["k"]
        self.methods = _parse_methods(_get(cfg, "sweep", "methods", "all"))
        self.output_dir = _get(cfg, "sweep", "output_dir", "sweep-out")

    def load_dataset(self) -> Dataset:
        if self.generate:
            return synth.make_blobs(
                n=self.gen_n,
                balance=self.gen_balance,
                clusters=self.gen_clusters,
                noise=self.gen_noise,
                seed=self.seed,
                blob_weights=self.gen_weights,
                dims=self.gen_dims,
            )
        assert self.dataset_spec is not None
        return ingest.load_csv(self.dataset_spec)

    def dataset_description(self) -> dict[str, Any]:
        if self.generate:
            return {
                "source": "generated",
                "n": self.gen_n,
                "balance_requested": self.gen_balance,
                "clusters": self.gen_clusters,
                "noise": self.gen_noise,
            }
        assert self.dataset_spec is not None
        return {
            "source": "csv",
            "path": str(self.dataset_spec.path),
            "protected_column": self.dataset_spec.protected_column,
            "scale": self.dataset_spec.scale,
        }


def _method_epsilon(cfg: SweepConfig, method: str) -> float:
    return cfg.eps_hier if method.startswith("hier") else cfg.eps_part


def run_sweep(cfg: SweepConfig, out_dir: Path, write_trace: bool = False,
              export_decompositions: bool = False) -> int:
    """Execute the sweep and write artifacts; returns the process exit code."""
    data = cfg.load_dataset()
    balance = ingest.dataset_balance(data)
    out_dir.mkdir(parents=True, exist_ok=True)

    provenance = {
        "type": "provenance",
        "version": __version__,
        "dataset": {
            **cfg.dataset_description(),
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

    threshold = fairlets.ThresholdFM.from_fraction(cfg.t)
    decomp_cache: dict[str, Any] = {}

    def decomposition_for(method: str):
        flavor = baselines.fairlet_flavor(method)
        if flavor is None:
            return None
        if flavor not in decomp_cache:
            decomp_cache[flavor] = baselines.decompose(flavor, data, threshold, cfg.seed)
        return decomp_cache[flavor]

    rows: list[dict[str, Any]] = []
    traces: list[dict[str, Any]] = []
    for method in sorted(cfg.methods):
        for k in cfg.k_values:
            params = Params(
                k=k, t=cfg.t, epsilon=_method_epsilon(cfg, method),
                lam=cfg.lam, seed=cfg.seed,
            )
            try:
                result = baselines.pipeline(
                    method, data, params, decomposition=decomposition_for(method)
                )
                rows.append({"type": "run", "status": "ok", **result.record.to_json_dict()})
                for event in result.trace:
                    traces.append({"method": method, "k": k, **event})
            except InfeasibilityError as exc:
                rows.append({
                    "type": "run", "status": "infeasible", "method": method,
                    "k": k, "error": str(exc),
                })
            except FaircapError as exc:
                rows.append({
                    "type": "run", "status": "error", "method": method,
                    "k": k, "error": str(exc),
                })

    jsonl = out_dir / "runs.jsonl"
    with jsonl.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(provenance, sort_keys=True) + "\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")

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

    if write_trace:
        with (out_dir / "trace.jsonl").open("w", encoding="utf-8") as fh:
            for event in traces:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
    if export_decompositions:
        for flavor, decomp in sorted(decomp_cache.items()):
            (out_dir / f"fairlets_{flavor}.json").write_text(
                fairlets.decomposition_to_json(decomp, data), encoding="utf-8"
            )

    statuses = [row["status"] for row in rows]
    if any(s == "error" for s in statuses):
        return EXIT_DATA
    if statuses and all(s == "infeasible" for s in statuses):
        return EXIT_ALL_INFEASIBLE
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    weights = (
        tuple(float(w) for w in args.blob_weights.split(",")) if args.blob_weights else None
    )
    path = synth.write_blobs_csv(
        args.out, n=args.n, balance=args.balance, clusters=args.clusters,
        noise=args.noise, seed=args.seed, blob_weights=weights, dims=args.dims,
    )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = SweepConfig(args.config)
    out_dir = Path(
        os.environ.get("FAIRCAP_OUTPUT_DIR") or args.output or cfg.output_dir
    )
    code = run_sweep(
        cfg, out_dir, write_trace=args.trace,
        export_decompositions=args.export_decompositions,
    )
    print(f"wrote {out_dir / 'runs.jsonl'}")
    return code


def _read_sweep(path: Path) -> tuple[dict, list[dict], list[dict]]:
    if path.is_dir():
        path = path / "runs.jsonl"
    if not path.exists():
        raise IngestError(f"{path}: no such sweep output")
    provenance: dict | None = None
    records: list[dict] = []
    failures: list[dict] = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("type") == "provenance":
                provenance = obj
            elif obj.get("status") == "ok":
                records.append(obj)
            else:
                failures.append(obj)
    if provenance is None:
        raise IngestError(f"{path}: missing provenance line")
    return provenance, records, failures


def _cmd_report(args: argparse.Namespace) -> int:
    provenance, records, failures = _read_sweep(Path(args.sweep))
    if not records and not failures:
        raise IngestError(f"{args.sweep}: no run records to report on")
    out_dir = Path(
        os.environ.get("FAIRCAP_OUTPUT_DIR") or args.output or Path(args.sweep)
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    params = provenance["params"]
    n = provenance["dataset"]["n"]
    ks = sorted({r["k"] for r in records}) or list(params["k"])
    q_lines = {
        f"q eps={params['epsilon_hierarchical']}": {
            k: capclust.capacity_threshold(n, k, params["epsilon_hierarchical"]) for k in ks
        },
        f"q eps={params['epsilon_partitioning']}": {
            k: capclust.capacity_threshold(n, k, params["epsilon_partitioning"]) for k in ks
        },
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
    spec = ingest.DatasetSpec(
        path=args.data,
        protected_column=args.protected_column,
        positive_label=args.positive_label,
        delimiter=args.delimiter,
        scale=args.scale,
    )
    data = ingest.load_csv(spec)
    threshold = fairlets.ThresholdFM.from_fraction(Fraction(args.t))
    text = Path(args.decomposition).read_text(encoding="utf-8")
    decomp = fairlets.decomposition_from_json(text, data, threshold)
    result = fairlets.validate(decomp, data, threshold)
    if result.ok:
        print(f"valid decomposition: {len(decomp)} fairlets cover {data.n} rows")
        return EXIT_OK
    for violation in result.violations:
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
    gen.add_argument("--dims", type=int, default=2)
    gen.add_argument("--blob-weights", default="", help="comma list of relative blob sizes")
    gen.set_defaults(func=_cmd_generate)

    run = sub.add_parser("run", help="run a k-sweep per a config file")
    run.add_argument("config")
    run.add_argument("--output", default=None, help="output directory override")
    run.add_argument("--trace", action="store_true", help="also write trace.jsonl")
    run.add_argument(
        "--export-decompositions", action="store_true",
        help="also write the fairlet decompositions as JSON",
    )
    run.set_defaults(func=_cmd_run)

    rep = sub.add_parser("report", help="render charts from a sweep output")
    rep.add_argument("sweep", help="sweep directory or runs.jsonl path")
    rep.add_argument("--output", default=None)
    rep.set_defaults(func=_cmd_report)

    val = sub.add_parser("validate", help="audit an exported fairlet decomposition")
    val.add_argument("--data", required=True, help="dataset CSV path")
    val.add_argument("--protected-column", required=True)
    val.add_argument("--positive-label", default=None)
    val.add_argument("--delimiter", default=",")
    val.add_argument("--scale", default="minmax")
    val.add_argument("--decomposition", required=True, help="decomposition JSON path")
    val.add_argument("--t", default="1/2")
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IngestError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InfeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
