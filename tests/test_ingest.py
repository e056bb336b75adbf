from fractions import Fraction

import numpy as np
import pytest

from faircap.core import Dataset
from faircap.errors import ContractViolationError, InfeasibilityError, IngestError
from faircap.ingest import DatasetSpec, dataset_balance, load_csv


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BASIC = """age,color,score,sex
10,red,1.0,F
20,blue,2.0,M
30,red,3.0,F
"""


class TestLoadCsv:
    def test_one_hot_width(self, tmp_path):
        path = write(tmp_path, BASIC)
        data = load_csv(DatasetSpec(path=path, protected_column="sex"))
        # two numeric columns plus a two-level categorical
        assert data.features.shape == (3, 4)

    def test_minmax_scales_to_unit_interval(self, tmp_path):
        path = write(tmp_path, BASIC)
        data = load_csv(DatasetSpec(path=path, protected_column="sex"))
        assert data.features.min() >= 0.0
        assert data.features.max() <= 1.0
        # age column spans its range
        assert sorted(data.features[:, 0]) == [0.0, 0.5, 1.0]

    def test_scale_none_keeps_raw_values(self, tmp_path):
        path = write(tmp_path, BASIC)
        data = load_csv(DatasetSpec(path=path, protected_column="sex", scale="none"))
        assert sorted(data.features[:, 0]) == [10.0, 20.0, 30.0]

    def test_constant_numeric_column_becomes_zero(self, tmp_path):
        text = "v,c,sex\n5,a,F\n5,b,M\n5,a,F\n"
        data = load_csv(DatasetSpec(path=write(tmp_path, text), protected_column="sex"))
        assert (data.features[:, 0] == 0.0).all()

    def test_protected_excluded_and_mapped(self, tmp_path):
        path = write(tmp_path, BASIC)
        data = load_csv(DatasetSpec(path=path, protected_column="sex"))
        # lexicographically larger level 'M' maps to 1 by default
        assert data.protected.tolist() == [0, 1, 0]
        data = load_csv(
            DatasetSpec(path=path, protected_column="sex", positive_label="F")
        )
        assert data.protected.tolist() == [1, 0, 1]

    def test_drop_columns(self, tmp_path):
        path = write(tmp_path, BASIC)
        data = load_csv(
            DatasetSpec(path=path, protected_column="sex", drop_columns=("color",))
        )
        assert data.features.shape == (3, 2)

    def test_reload_is_identical(self, tmp_path):
        path = write(tmp_path, BASIC)
        spec = DatasetSpec(path=path, protected_column="sex")
        a, b = load_csv(spec), load_csv(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.protected, b.protected)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheets' "CSV UTF-8" starts with one; it once hid the first column's name
        text = "sex,age\nF,10\nM,20\nF,30\n"
        plain = load_csv(DatasetSpec(path=write(tmp_path, text), protected_column="sex"))
        marked = write(tmp_path, "\ufeff" + text, name="marked.csv")
        data = load_csv(DatasetSpec(path=marked, protected_column="sex"))
        assert np.array_equal(data.features, plain.features)
        assert np.array_equal(data.protected, plain.protected)

    def test_counts_match_raw_file_oracle(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = ["x,sex"]
        f_count = 0
        for i in range(57):
            sex = "F" if rng.random() < 0.4 else "M"
            f_count += sex == "F"
            rows.append(f"{rng.uniform():.4f},{sex}")
        path = write(tmp_path, "\n".join(rows) + "\n")
        data = load_csv(DatasetSpec(path=path, protected_column="sex"))
        assert data.n == 57
        zeros, ones = data.group_counts()
        assert ones == 57 - f_count  # M maps to 1
        assert zeros == f_count

    def test_semicolon_delimiter(self, tmp_path):
        text = 'age;sex\n"10";"F"\n"20";"M"\n'
        data = load_csv(
            DatasetSpec(path=write(tmp_path, text), protected_column="sex", delimiter=";")
        )
        assert data.n == 2

    def test_uci_student_file_shape(self, tmp_path):
        # format of the UCI student-performance files: semicolon separated,
        # quoted categoricals, and some quoted numeric cells
        text = (
            "school;sex;age;Mjob;G1;G2;G3\n"
            '"GP";"F";18;"at_home";"5";"6";6\n'
            '"GP";"F";17;"teacher";"7";"8";8\n'
            '"MS";"M";19;"other";"10";"11";11\n'
        )
        data = load_csv(
            DatasetSpec(path=write(tmp_path, text), protected_column="sex", delimiter=";")
        )
        assert data.n == 3
        # school (2 levels) + age + Mjob (3 levels) + G1 + G2 + G3
        assert data.features.shape[1] == 2 + 1 + 3 + 3
        assert data.protected.tolist() == [0, 0, 1]
        assert round(float(dataset_balance(data)), 3) == 0.5


class TestLoadCsvDiagnostics:
    def test_missing_column(self, tmp_path):
        path = write(tmp_path, BASIC)
        with pytest.raises(IngestError, match="column 'gender' not in header"):
            load_csv(DatasetSpec(path=path, protected_column="gender"))

    def test_too_many_protected_levels(self, tmp_path):
        text = "x,sex\n1,F\n2,M\n3,X\n"
        with pytest.raises(IngestError, match="has 3 distinct values"):
            load_csv(DatasetSpec(path=write(tmp_path, text), protected_column="sex"))

    def test_single_protected_level(self, tmp_path):
        text = "x,sex\n1,F\n2,F\n"
        with pytest.raises(IngestError, match="has 1 distinct values"):
            load_csv(DatasetSpec(path=write(tmp_path, text), protected_column="sex"))

    def test_unparseable_numeric_cell_names_row(self, tmp_path):
        text = "x,sex\n1,F\noops,M\n"
        with pytest.raises(IngestError, match="cell 'oops' does not parse") as err:
            load_csv(
                DatasetSpec(
                    path=write(tmp_path, text),
                    protected_column="sex",
                    numeric_columns=("x",),
                )
            )
        assert ":3:" in str(err.value)

    def test_non_finite_numeric_cell_names_row(self, tmp_path):
        for cell in ("nan", "inf", "1e400"):
            for scale in ("minmax", "none"):
                path = write(tmp_path, f"x,sex\n1,F\n{cell},M\n")
                with pytest.raises(IngestError, match="is not a finite number") as err:
                    load_csv(DatasetSpec(path=path, protected_column="sex", scale=scale))
                assert ":3: column 'x' cell " + repr(cell) in str(err.value), (cell, scale)

    def test_minmax_range_above_float_maximum_names_column(self, tmp_path):
        # each cell is finite, but hi - lo overflowed to inf: the scaled
        # column turned non-finite with RuntimeWarnings, and the error that
        # followed named neither the column nor the limit
        path = write(tmp_path, "x,y,sex\n1e308,1,F\n-1e308,2,M\n")
        with pytest.raises(IngestError) as err:
            load_csv(DatasetSpec(path=path, protected_column="sex"))
        assert str(err.value) == (
            f"{path}: column 'x' spans -1e+308 to 1e+308, a range above the float "
            "maximum 1.7976931348623157e+308; rescale it"
        )
        # unscaled, the same range squares past the float maximum
        with pytest.raises(ContractViolationError, match="features too large: "):
            load_csv(DatasetSpec(path=path, protected_column="sex", scale="none"))

    def test_repeated_header_name(self, tmp_path):
        # drop_columns once dropped the first age and kept the second
        path = write(tmp_path, "age,age,group\n1,2,a\n3,4,b\n")
        with pytest.raises(IngestError, match=r"repeats column names \['age'\]") as err:
            load_csv(DatasetSpec(path=path, protected_column="group", drop_columns=("age",)))
        assert str(path) in str(err.value)

    def test_empty_file(self, tmp_path):
        with pytest.raises(IngestError, match="file is empty"):
            load_csv(DatasetSpec(path=write(tmp_path, ""), protected_column="sex"))

    def test_header_only(self, tmp_path):
        with pytest.raises(IngestError, match="header only"):
            load_csv(DatasetSpec(path=write(tmp_path, "x,sex\n"), protected_column="sex"))

    def test_missing_cell_names_row(self, tmp_path):
        text = "x,sex\n1,F\n,M\n"
        with pytest.raises(IngestError, match="empty cell in column 'x'") as err:
            load_csv(DatasetSpec(path=write(tmp_path, text), protected_column="sex"))
        assert ":3:" in str(err.value)

    def test_unknown_positive_label(self, tmp_path):
        path = write(tmp_path, BASIC)
        with pytest.raises(IngestError, match="'X' not among observed values"):
            load_csv(
                DatasetSpec(path=path, protected_column="sex", positive_label="X")
            )

    def test_line_numbers_count_blank_lines(self, tmp_path):
        # blank lines were once dropped before the rows were numbered, so
        # each of these, failing on line 5, reported line 3 or 4
        for text, numeric, failure in (
            ("x,sex\n1,F\n\n2,M\n3\n", (), "expected 2 cells, got 1"),
            ("x,sex\n1,F\n\n\n2,\n", (), "empty cell in column 'sex'"),
            ("x,sex\n1,F\n\n2,M\noops,F\n", ("x",), "cell 'oops' does not parse"),
            ("x,sex\n1,F\n\n2,M\nnan,F\n", (), "cell 'nan' is not a finite number"),
        ):
            path = write(tmp_path, text)
            spec = DatasetSpec(path=path, protected_column="sex", numeric_columns=numeric)
            with pytest.raises(IngestError, match=failure) as err:
                load_csv(spec)
            assert str(err.value).startswith(f"{path}:5: "), text

    def test_bad_scale_rejected(self, tmp_path):
        with pytest.raises(ContractViolationError):
            DatasetSpec(path="x.csv", protected_column="sex", scale="zscore")

    def test_delimiter_must_be_one_character(self):
        for delimiter in ("", ";;"):
            with pytest.raises(ContractViolationError, match="one character"):
                DatasetSpec(path="x.csv", protected_column="sex", delimiter=delimiter)


class TestDatasetBalance:
    def _data(self, zeros, ones):
        protected = np.array([0] * zeros + [1] * ones)
        return Dataset(
            features=np.arange(float(zeros + ones))[:, None],
            protected=protected,
        )

    def test_equal_groups(self):
        assert dataset_balance(self._data(2000, 2000)) == 1

    def test_near_balanced(self):
        assert round(float(dataset_balance(self._data(1697, 1707))), 3) == 0.994

    def test_quarter(self):
        assert dataset_balance(self._data(10, 40)) == Fraction(1, 4)

    def test_absent_group_errors(self):
        with pytest.raises(InfeasibilityError):
            dataset_balance(self._data(0, 5))
