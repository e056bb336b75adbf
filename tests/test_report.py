import re
import xml.etree.ElementTree as ET

import pytest

from faircap.errors import ContractViolationError
from faircap.metrics import size_dispersion
from faircap.report import balance_chart, cost_chart, sizes_chart, text_table


def _records():
    return [
        {
            "method": "vanilla_kmedoids",
            "k": k,
            "status": "ok",
            "cost": 10.0 / k,
            "balance": 0.4 + 0.05 * k,
            "sizes": sorted([30 - k, 20, 10 + k], reverse=True),
            "q": 25,
            "t": 0.5,
            "seed": 0,
        }
        for k in (2, 4, 6)
    ] + [
        {
            "method": "kmed_fair_cap_mcf",
            "k": k,
            "status": "ok",
            "cost": 12.0 / k,
            "balance": 1.0,
            "sizes": sorted([21, 20, 19], reverse=True),
            "q": 21,
            "t": 0.5,
            "seed": 0,
        }
        for k in (2, 4, 6)
    ]


def _y_ticks(svg):
    return [float(v) for v in re.findall(r'text-anchor="end" font-size="10">([^<]+)<', svg)]


class TestCostChart:
    def test_renders_valid_xml_with_one_line_per_method(self):
        svg = cost_chart(_records())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert svg.count("<polyline") == 2

    def test_single_record_renders(self):
        svg = cost_chart(_records()[:1])
        ET.fromstring(svg)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolationError):
            cost_chart([])


class TestBalanceChart:
    def test_threshold_line_present(self):
        svg = balance_chart(_records(), t=0.5, dataset_balance=0.9)
        ET.fromstring(svg)
        assert 'class="threshold-t"' in svg
        assert 'data-t="0.5"' in svg
        assert "stroke-dasharray" in svg

    def test_dataset_balance_line_present(self):
        svg = balance_chart(_records(), t=0.5, dataset_balance=0.92)
        assert 'class="dataset-balance"' in svg
        assert 'data-balance="0.92"' in svg


class TestSizesChart:
    def test_box_values_match_dispersion_oracle(self):
        records = _records()
        svg = sizes_chart(records, q_lines={"q eps=1.01": {2: 21, 4: 11, 6: 8}})
        ET.fromstring(svg)
        boxes = re.findall(r'<g class="box" ([^>]*)>', svg)
        assert len(boxes) == len(records)
        by_key = {}
        for attrs in boxes:
            fields = dict(re.findall(r'data-([a-z0-9]+)="([^"]+)"', attrs))
            by_key[(fields["method"], int(fields["k"]))] = fields
        for rec in records:
            fields = by_key[(rec["method"], rec["k"])]
            expected = size_dispersion(rec["sizes"])
            for key in ("min", "q1", "median", "q3", "max"):
                assert float(fields[key]) == pytest.approx(expected[key])

    def test_q_lines_embedded(self):
        svg = sizes_chart(_records(), q_lines={"q eps=1.2": {2: 30, 4: 16, 6: 11}})
        assert 'data-label="q eps=1.2"' in svg
        assert 'data-q="30"' in svg
        assert 'data-q="16"' in svg

    def test_q_above_n_neither_drawn_nor_scaling_the_axis(self):
        # epsilon = 1e19 on 150 rows: clusters of 148 and 2 under q = 7.5e20
        record = dict(_records()[0], k=2, sizes=[148, 2], q=750000000000000000000)
        svg = sizes_chart([record], q_lines={"q eps=1e+19": {2: record["q"]}})
        ET.fromstring(svg)
        assert "data-q=" not in svg and "1e+19" not in svg  # no segment, no legend entry
        assert max(_y_ticks(svg)) < 1.08 * 150
        # a q within n is drawn and scales the axis; the one above n is not
        even = dict(record, sizes=[80, 70])
        svg = sizes_chart([even], q_lines={"q eps=1.6": {2: 120}, "q eps=1e+19": {2: record["q"]}})
        assert re.findall(r'data-q="([^"]+)"', svg) == ["120"]
        assert max(_y_ticks(sizes_chart([even], q_lines={}))) == 80
        assert max(_y_ticks(svg)) == 100

    def test_k_whose_q_exceeds_n_is_skipped_by_its_line(self):
        # at k = 1 and epsilon 1.2, q = 180 exceeds n = 150; k = 2's q = 90 is drawn
        records = [
            dict(_records()[0], k=1, sizes=[150], q=180),
            dict(_records()[0], k=2, sizes=[80, 70], q=90),
        ]
        svg = sizes_chart(records, q_lines={"q eps=1.2": {1: 180, 2: 90}})
        ET.fromstring(svg)
        assert re.findall(r'data-q="([^"]+)" data-k="([^"]+)"', svg) == [("90", "2")]


class TestTextTable:
    def test_one_row_per_record(self):
        table = text_table(_records())
        lines = [line for line in table.splitlines() if line and "---" not in line]
        assert len(lines) == 1 + len(_records())  # header + rows

    def test_failures_listed_with_status(self):
        table = text_table(
            _records(),
            failures=[{"method": "hier_fair_cap_mcf", "k": 2, "status": "infeasible"}],
        )
        assert "infeasible" in table

    def test_wide_values_keep_a_space_between_columns(self):
        # a value as wide as its column once ran into its neighbour: min
        # size 2 beside q = 7500000 read "27500000"
        wide = dict(
            _records()[0], method="hier_fair_cap_mcf", cost=12345678.25, sizes=[40, 2], q=7_500_000
        )
        header, _, row, *rest = text_table([wide] + _records()).splitlines()
        assert header.split() == ["method", "k", "status", "cost", "balance", "max", "min", "q"]
        assert row.split() == [
            "hier_fair_cap_mcf", "2", "ok", "12345678.2500", "0.500", "40", "2", "7500000"
        ]
        # values that fit their columns keep the widths 26, 4, 12, 12, 9, 6, 6 and 6
        assert {len(line) for line in [header] + rest} == {81}
