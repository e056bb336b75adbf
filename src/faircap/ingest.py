"""CSV loading: one-hot encoding, min-max scaling, protected-column selection.

The loader is deliberately strict. Rows with empty cells are rejected with
the offending line number, the protected column must carry exactly two
distinct values, and numeric parsing failures name the cell. Encoding is
deterministic: categorical levels are expanded in lexicographic order, so
re-loading a file always yields an identical dataset.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import Dataset, balance_of
from .errors import ContractViolationError, InfeasibilityError, IngestError


@dataclass(frozen=True)
class DatasetSpec:
    """How to read a CSV file into a :class:`Dataset`.

    ``positive_label`` names the protected value mapped to 1; when omitted
    the lexicographically larger of the two observed values is used.
    Columns in ``numeric_columns`` must parse as floats in every row
    (otherwise column types are inferred: numeric iff all values parse).
    """

    path: str | Path
    protected_column: str
    positive_label: str | None = None
    drop_columns: tuple[str, ...] = ()
    scale: str = "minmax"
    delimiter: str = ","
    numeric_columns: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.scale not in ("minmax", "none"):
            raise ContractViolationError(
                f"scale must be 'minmax' or 'none', got {self.scale!r}"
            )
        if len(self.delimiter) != 1:
            raise ContractViolationError(
                f"delimiter must be one character, got {self.delimiter!r}"
            )
        object.__setattr__(self, "drop_columns", tuple(self.drop_columns))
        object.__setattr__(self, "numeric_columns", tuple(self.numeric_columns))


def _parse_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file, less any byte-order mark, newlines untranslated;
    :class:`IngestError` if not UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text: {exc}") from None


def load_csv(spec: DatasetSpec) -> Dataset:
    """Load, encode and scale a CSV file per ``spec``.

    Feature columns keep the header order, with each categorical column
    expanded in place into its sorted one-hot levels. The protected column
    never enters the feature matrix.
    """
    path = Path(spec.path)
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""), delimiter=spec.delimiter)
    # Each record with the file line it ends on; blank lines are skipped but counted.
    records = [(reader.line_num, r) for r in reader if r]
    if not records:
        raise IngestError(f"{path}: file is empty")
    header = [h.strip() for h in records[0][1]]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise IngestError(f"{path}: header repeats column names {repeated}")
    data_rows = records[1:]
    if not data_rows:
        raise IngestError(f"{path}: header only, no data rows")

    def col_index(name: str) -> int:
        if name not in header:
            raise IngestError(f"{path}: column {name!r} not in header {header}")
        return header.index(name)

    protected_idx = col_index(spec.protected_column)
    for name in spec.drop_columns:
        col_index(name)
    for name in spec.numeric_columns:
        col_index(name)
    dropped = {col_index(n) for n in spec.drop_columns} | {protected_idx}
    if len(dropped) == len(header):
        raise IngestError(
            f"{path}: no feature column remains once the protected and dropped columns are removed"
        )

    lines = [lineno for lineno, _ in data_rows]
    cleaned: list[list[str]] = []
    for lineno, row in data_rows:
        if len(row) != len(header):
            raise IngestError(
                f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
            )
        cells = [c.strip() for c in row]
        for j, cell in enumerate(cells):
            if cell == "":
                raise IngestError(
                    f"{path}:{lineno}: empty cell in column {header[j]!r}"
                )
        cleaned.append(cells)

    protected_values = [r[protected_idx] for r in cleaned]
    levels = sorted(set(protected_values))
    if len(levels) != 2:
        raise IngestError(
            f"{path}: protected column {spec.protected_column!r} has "
            f"{len(levels)} distinct values {levels[:6]}, expected exactly 2"
        )
    positive = spec.positive_label if spec.positive_label is not None else levels[1]
    if positive not in levels:
        raise IngestError(
            f"{path}: positive label {positive!r} not among observed values {levels}"
        )
    protected = np.array([1 if v == positive else 0 for v in protected_values])

    feature_cols: list[np.ndarray] = []
    forced_numeric = set(spec.numeric_columns)
    for j, name in enumerate(header):
        if j in dropped:
            continue
        raw = [r[j] for r in cleaned]
        parsed = [_parse_float(c) for c in raw]
        if name in forced_numeric:
            for lineno, cell, value in zip(lines, raw, parsed):
                if value is None:
                    raise IngestError(
                        f"{path}:{lineno}: column {name!r} is numeric but cell "
                        f"{cell!r} does not parse"
                    )
        if all(v is not None for v in parsed):
            col = np.array(parsed, dtype=np.float64)
            finite = np.isfinite(col)
            if not finite.all():
                i = int(np.argmin(finite))
                raise IngestError(
                    f"{path}:{lines[i]}: column {name!r} cell {raw[i]!r} is not a finite number"
                )
            if spec.scale == "minmax":
                lo, hi = float(col.min()), float(col.max())
                if not np.isfinite(hi - lo):
                    raise IngestError(
                        f"{path}: column {name!r} spans {lo!r} to {hi!r}, a range above "
                        f"the float maximum {float(np.finfo(np.float64).max)!r}; rescale it"
                    )
                col = (col - lo) / (hi - lo) if hi > lo else np.zeros_like(col)
            feature_cols.append(col)
        else:
            for level in sorted(set(raw)):
                feature_cols.append(
                    np.array([1.0 if c == level else 0.0 for c in raw])
                )

    features = np.column_stack(feature_cols)
    return Dataset(features=features, protected=protected)


def dataset_balance(data: Dataset) -> Fraction:
    """Balance of the whole dataset; errors if a protected group is absent."""
    zeros, ones = data.group_counts()
    if zeros == 0 or ones == 0:
        raise InfeasibilityError(
            "a protected group is absent; no fairlet decomposition exists for t > 0"
        )
    return balance_of(zeros, ones)
