"""Self-contained SVG charts and a text table from sweep records.

No plotting dependency: the figures are static artifacts, so the SVG is
emitted directly. Three panels mirror the benchmark layout: clustering cost
per k, balance per k (with the threshold dashed and the dataset balance
dotted), and cluster-size boxplots per (k, method) with the capacity
thresholds drawn as stepped lines. Box groups carry data-* attributes with
their five-number summaries so charts can be audited mechanically.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from .errors import ContractViolationError
from .metrics import size_dispersion

WIDTH, HEIGHT = 720, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 180, 36, 48

PALETTE = {
    "hier_fair_cap_mcf": "#1b9e77",
    "hier_fair_cap_vanilla": "#66c2a5",
    "kmed_fair_cap_mcf": "#7570b3",
    "kmed_fair_cap_vanilla": "#a6a3d9",
    "mcf_fairlet_kcenter": "#d95f02",
    "vanilla_fairlet_kcenter": "#fdae61",
    "vanilla_kmedoids": "#666666",
}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    raw = span / target
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if span / step <= target:
            break
    first = step * math.ceil(lo / step)
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 10))
        t += step
    return ticks


class _Canvas:
    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.parts: list[str] = []

    def x(self, v: float) -> float:
        frac = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, v: float) -> float:
        frac = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    def add(self, fragment: str) -> None:
        self.parts.append(fragment)

    def axes(self, title: str, x_label: str, y_label: str, x_ticks: Sequence[float]) -> None:
        x0, x1 = MARGIN_L, WIDTH - MARGIN_R
        y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
        self.add(
            f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
            'fill="none" stroke="#999"/>'
        )
        self.add(
            f'<text x="{(x0 + x1) / 2}" y="20" text-anchor="middle" '
            f'font-size="14" font-weight="bold">{title}</text>'
        )
        self.add(
            f'<text x="{(x0 + x1) / 2}" y="{HEIGHT - 10}" text-anchor="middle" '
            f'font-size="12">{x_label}</text>'
        )
        self.add(
            f'<text x="16" y="{(y0 + y1) / 2}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 16 {(y0 + y1) / 2})">{y_label}</text>'
        )
        for t in x_ticks:
            px = self.x(t)
            self.add(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 4}" stroke="#333"/>')
            self.add(
                f'<text x="{_fmt(px)}" y="{y0 + 16}" text-anchor="middle" font-size="10">{_fmt(t)}</text>'
            )
        for t in _nice_ticks(self.y_lo, self.y_hi):
            py = self.y(t)
            self.add(f'<line x1="{x0 - 4}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="#333"/>')
            self.add(
                f'<text x="{x0 - 6}" y="{_fmt(py + 3)}" text-anchor="end" font-size="10">{_fmt(t)}</text>'
            )

    def legend(self, entries: list[tuple[str, str]]) -> None:
        x = WIDTH - MARGIN_R + 10
        for i, (label, color) in enumerate(entries):
            y = MARGIN_T + 14 + 16 * i
            self.add(f'<rect x="{x}" y="{y - 8}" width="10" height="10" fill="{color}"/>')
            self.add(f'<text x="{x + 14}" y="{y}" font-size="10">{label}</text>')

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            '<rect width="100%" height="100%" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )


def _by_method(records: list[dict]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for rec in records:
        grouped.setdefault(rec["method"], []).append(rec)
    for recs in grouped.values():
        recs.sort(key=lambda r: r["k"])
    return grouped


def _check_records(records: list[dict]) -> None:
    if not records:
        raise ContractViolationError("no records to report on")


def _method_lines(
    canvas: _Canvas, grouped: dict[str, list[dict]], key: str, markers: bool
) -> list[tuple[str, str]]:
    """One polyline of ``key`` versus k per method, dotted at each k when
    ``markers``; returns the legend entries."""
    for method in sorted(grouped):
        color = PALETTE.get(method, "#000")
        xy = [(_fmt(canvas.x(r["k"])), _fmt(canvas.y(r[key]))) for r in grouped[method]]
        pts = " ".join(f"{x},{y}" for x, y in xy)
        canvas.add(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        if markers:
            for x, y in xy:
                canvas.add(f'<circle cx="{x}" cy="{y}" r="2.5" fill="{color}"/>')
    return [(m, PALETTE.get(m, "#000")) for m in sorted(grouped)]


def cost_chart(records: list[dict]) -> str:
    """Clustering cost versus k, one polyline per method."""
    _check_records(records)
    grouped = _by_method(records)
    ks = sorted({r["k"] for r in records})
    costs = [r["cost"] for r in records]
    canvas = _Canvas(min(ks) - 0.5, max(ks) + 0.5, 0.0, max(costs) * 1.05 or 1.0)
    canvas.axes("Clustering cost", "number of clusters k", "cost", ks)
    canvas.legend(_method_lines(canvas, grouped, "cost", markers=True))
    return canvas.render()


def balance_chart(records: list[dict], t: float, dataset_balance: float) -> str:
    """Balance versus k with the threshold dashed and dataset balance dotted."""
    _check_records(records)
    grouped = _by_method(records)
    ks = sorted({r["k"] for r in records})
    canvas = _Canvas(min(ks) - 0.5, max(ks) + 0.5, 0.0, 1.05)
    canvas.axes("Balance score", "number of clusters k", "balance", ks)
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    ty = canvas.y(t)
    canvas.add(
        f'<line class="threshold-t" x1="{x0}" y1="{_fmt(ty)}" x2="{x1}" y2="{_fmt(ty)}" '
        f'stroke="#c00" stroke-dasharray="6 4" data-t="{_fmt(t)}"/>'
    )
    dy = canvas.y(dataset_balance)
    canvas.add(
        f'<line class="dataset-balance" x1="{x0}" y1="{_fmt(dy)}" x2="{x1}" y2="{_fmt(dy)}" '
        f'stroke="#06c" stroke-dasharray="2 3" data-balance="{_fmt(dataset_balance)}"/>'
    )
    canvas.legend(
        _method_lines(canvas, grouped, "balance", markers=False)
        + [("threshold t", "#c00"), ("dataset balance", "#06c")]
    )
    return canvas.render()


def sizes_chart(records: list[dict], q_lines: dict[str, dict[int, int]]) -> str:
    """Cluster-size boxplots per (k, method); capacity thresholds as steps.

    ``q_lines`` maps a line label (e.g. "q hierarchical") to {k: q}. No
    cluster can reach a q above the row count n, so such a segment is not
    drawn, nor a line left with no segment; the y axis spans the sizes and
    the drawn q values.
    """
    _check_records(records)
    grouped = _by_method(records)
    methods = sorted(grouped)
    ks = sorted({r["k"] for r in records})
    n = max(sum(r["sizes"]) for r in records)  # each clustering covers all n rows
    q_lines = {
        label: {k: q for k, q in per_k.items() if k in ks and q <= n}
        for label, per_k in q_lines.items()
    }
    q_lines = {label: per_k for label, per_k in q_lines.items() if per_k}  # no empty legend entry
    drawn = [q for per_k in q_lines.values() for q in per_k.values()]
    max_size = max([max(r["sizes"]) for r in records] + drawn)
    canvas = _Canvas(-0.5, len(ks) - 0.5, 0.0, max_size * 1.08)
    canvas.axes("Cluster sizes", "number of clusters k", "cluster size", [])
    y0 = HEIGHT - MARGIN_B
    for gi, k in enumerate(ks):
        px = canvas.x(gi)
        canvas.add(
            f'<text x="{_fmt(px)}" y="{y0 + 16}" text-anchor="middle" font-size="10">{k}</text>'
        )
    group_w = (WIDTH - MARGIN_L - MARGIN_R) / len(ks)
    slot_w = group_w / (len(methods) + 1)
    box_w = slot_w * 0.7
    for gi, k in enumerate(ks):
        for mi, method in enumerate(methods):
            recs = [r for r in grouped[method] if r["k"] == k]
            if not recs:
                continue
            summary = size_dispersion(recs[0]["sizes"])
            cx = canvas.x(gi) + (mi - (len(methods) - 1) / 2) * slot_w
            color = PALETTE.get(method, "#000")
            attrs = " ".join(f'data-{key}="{_fmt(val)}"' for key, val in summary.items())
            parts = [
                f'<g class="box" data-method="{method}" data-k="{k}" {attrs}>'
            ]
            y_min, y_q1 = canvas.y(summary["min"]), canvas.y(summary["q1"])
            y_med, y_q3 = canvas.y(summary["median"]), canvas.y(summary["q3"])
            y_max = canvas.y(summary["max"])
            half = box_w / 2
            parts.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(y_min)}" x2="{_fmt(cx)}" y2="{_fmt(y_q1)}" stroke="{color}"/>'
            )
            parts.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(y_q3)}" x2="{_fmt(cx)}" y2="{_fmt(y_max)}" stroke="{color}"/>'
            )
            parts.append(
                f'<rect x="{_fmt(cx - half)}" y="{_fmt(y_q3)}" width="{_fmt(box_w)}" '
                f'height="{_fmt(max(y_q1 - y_q3, 0.75))}" fill="{color}" fill-opacity="0.35" '
                f'stroke="{color}"/>'
            )
            for yy in (y_min, y_max):
                parts.append(
                    f'<line x1="{_fmt(cx - half / 2)}" y1="{_fmt(yy)}" x2="{_fmt(cx + half / 2)}" '
                    f'y2="{_fmt(yy)}" stroke="{color}"/>'
                )
            parts.append(
                f'<line x1="{_fmt(cx - half)}" y1="{_fmt(y_med)}" x2="{_fmt(cx + half)}" '
                f'y2="{_fmt(y_med)}" stroke="{color}" stroke-width="2"/>'
            )
            parts.append("</g>")
            canvas.add("".join(parts))
    dash_styles = ["6 4", "2 3", "8 2"]
    for li, (label, per_k) in enumerate(sorted(q_lines.items())):
        dash = dash_styles[li % len(dash_styles)]
        segs = []
        for gi, k in enumerate(ks):
            if k not in per_k:
                continue
            y = canvas.y(per_k[k])
            segs.append(
                f'<line x1="{_fmt(canvas.x(gi) - group_w / 2)}" y1="{_fmt(y)}" '
                f'x2="{_fmt(canvas.x(gi) + group_w / 2)}" y2="{_fmt(y)}" '
                f'stroke="#c00" stroke-dasharray="{dash}" data-q="{per_k[k]}" data-k="{k}"/>'
            )
        canvas.add(f'<g class="q-line" data-label="{label}">{"".join(segs)}</g>')
    canvas.legend(
        [(m, PALETTE.get(m, "#000")) for m in methods]
        + [(label, "#c00") for label in sorted(q_lines)]
    )
    return canvas.render()


def text_table(records: list[dict], failures: list[dict] | None = None) -> str:
    """Fixed-width summary, one row per (method, k); a space leads each right-aligned column."""
    _check_records(records + (failures or []))
    header = f"{'method':<26} {'k':>3} {'status':>11} {'cost':>11} {'balance':>8} {'max':>5} {'min':>5} {'q':>5}"
    lines = [header, "-" * len(header)]
    rows: list[dict[str, Any]] = [dict(r, status=r.get("status", "ok")) for r in records]
    rows += [dict(f, status=f.get("status", "failed")) for f in (failures or [])]
    for r in sorted(rows, key=lambda r: (r["method"], r["k"])):
        if r["status"] == "ok":
            lines.append(
                f"{r['method']:<26} {r['k']:>3} {r['status']:>11} {r['cost']:>11.4f}"
                f" {r['balance']:>8.3f} {max(r['sizes']):>5} {min(r['sizes']):>5} {r['q']:>5}"
            )
        else:
            lines.append(f"{r['method']:<26} {r['k']:>3} {r['status']:>11}")
    return "\n".join(lines) + "\n"
