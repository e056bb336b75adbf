import configparser
import json
import re
import shlex
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from student_like import write_student_like

from faircap import baselines, capclust, errors, fairlets, ingest
from faircap.cli import (
    _SECTIONS,
    EXIT_ALL_INFEASIBLE,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    SweepConfig,
    main,
)
from faircap.metrics import RunRecord

README = Path(__file__).resolve().parents[1] / "README.md"


# The `faircap generate` flags of SMALL_SWEEP's data.
SMALL_DATA = ("--n", "48", "--balance", "1.0", "--clusters", "2", "--noise", "0.05", "--seed", "7")


def write_config(tmp_path, body, data_flags=SMALL_DATA, name="sweep.ini"):
    """Write ``body`` as a config file, with ``{data}`` replaced by the path
    of a CSV file that ``faircap generate`` writes with ``data_flags``."""
    data = tmp_path / "data.csv"
    assert main(["generate", "--out", str(data), *data_flags]) == EXIT_OK
    path = tmp_path / name
    path.write_text(body.replace("{data}", str(data)), encoding="utf-8")
    return path


SMALL_SWEEP = """
[dataset]
path = {data}
protected_column = group

[sweep]
methods = all
k = 2,3
seed = 7
"""


@pytest.fixture()
def sweep_dir(tmp_path):
    config = write_config(tmp_path, SMALL_SWEEP)
    out = tmp_path / "out"
    code = main(["run", str(config), "--output", str(out)])
    assert code == EXIT_OK
    return out


class TestQuickstartReference:
    def test_readme_quickstart_runs(self, tmp_path, monkeypatch):
        # the block's four faircap commands, with its heredoc as sweep.ini
        text = README.read_text(encoding="utf-8")
        section = re.split(r"\n##+ ", text.split("## CLI quickstart", 1)[1], 1)[0]
        block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
        heredoc = re.search(r"cat > sweep\.ini <<'EOF'\n(.*?\n)EOF\n", block, re.S).group(1)
        commands = [shlex.split(line) for line in block.splitlines() if line.startswith("faircap ")]
        assert [c[1] for c in commands] == ["generate", "run", "report", "validate"]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sweep.ini").write_text(heredoc, encoding="utf-8")
        for command in commands:
            assert main(command[1:]) == EXIT_OK, command
        # every file the section names, fairlets_<flavor>.json for both flavors
        named = set(re.findall(r"`(\w+\.(?:jsonl|csv|json|svg|txt))`", section))
        named |= {"fairlets_mcf.json", "fairlets_vanilla.json"}
        assert {"runs.jsonl", "trace.jsonl", "cost.svg", "summary.txt"} <= named
        for name in named:
            assert (tmp_path / "out" / name).is_file(), name
        assert (tmp_path / "toy.csv").is_file()


class TestConfigReference:
    def test_readme_config_reference_parses(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        block = re.search(r"### Config reference\n\n```ini\n(.*?)```", text, re.S).group(1)
        documented = configparser.ConfigParser()
        documented.read_string(block)
        # the documented keys are the parsed keys, and the [sweep] values the defaults
        for section, defaults in _SECTIONS.items():
            assert sorted(documented[section]) == sorted(defaults), section
        assert dict(documented["sweep"]) == _SECTIONS["sweep"]

        data = tmp_path / "student.csv"
        data.write_text("age;sex;G1;G2;school\n15;F;10;11;GP\n17;M;12;13;MS\n", encoding="utf-8")
        config = tmp_path / "sweep.ini"
        config.write_text(re.sub(r"(?m)^path = .*$", f"path = {data}", block), encoding="utf-8")
        cfg = SweepConfig(config)
        assert cfg.dataset_spec.drop_columns == ("G1", "G2")
        assert list(cfg.k_values) == [2, 4, 6, 8, 10, 12, 14]
        assert (cfg.t, cfg.lam, cfg.seed) == (Fraction(1, 2), 0.3, 0)
        rows = ingest.load_csv(cfg.dataset_spec)
        # age plus the two one-hot school levels; sex is the protected column
        assert rows.features.shape == (2, 3)
        assert rows.protected.tolist() == [0, 1]


class TestSidecarReference:
    def test_readme_sidecar_example_reads(self):
        text = README.read_text(encoding="utf-8")
        block = re.search(r"```json\n(.*?)```", text, re.S).group(1)
        decomp = fairlets.decomposition_from_json(block)
        assert fairlets.decomposition_to_json(decomp) == block.strip()
        assert decomp.row_to_fairlet.tolist() == [0, 0, 1, 2, 1, 2]
        assert decomp.centers.tolist() == [1, 2, 5]


class TestGenerate:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "toy.csv"
        code = main(
            ["generate", "--out", str(out), "--n", "50", "--balance", "0.5", "--seed", "3"]
        )
        assert code == EXIT_OK
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header == "x0,x1,group"

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["generate"])
        assert err.value.code == EXIT_USAGE

    def test_unwritable_path_is_data_error(self, tmp_path):
        target = tmp_path / "no-such-dir" / "toy.csv"
        assert main(["generate", "--out", str(target), "--n", "10"]) == EXIT_DATA

    def test_fewer_than_two_rows_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "toy.csv"
        for n in ("-5", "0", "1"):
            assert main(["generate", "--out", str(out), "--n", n]) == EXIT_DATA, n
            assert capsys.readouterr().err == "error: need at least 2 rows\n", n
            assert not out.exists(), n

    def test_noise_not_finite_and_nonnegative_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "toy.csv"
        for noise in ("-1", "nan", "inf"):
            assert main(["generate", "--out", str(out), "--noise", noise]) == EXIT_DATA, noise
            err = capsys.readouterr().err
            assert err == f"error: noise must be finite and nonnegative, got {float(noise)}\n"
            assert not out.exists(), noise


class TestRun:
    def test_record_count_is_methods_times_k(self, sweep_dir):
        lines = (sweep_dir / "runs.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        assert rows[0]["type"] == "provenance"
        runs = [r for r in rows if r["type"] == "run"]
        assert len(runs) == 7 * 2

    def test_ok_line_keys_are_the_record_fields(self, sweep_dir):
        lines = (sweep_dir / "runs.jsonl").read_text().splitlines()
        ok = [json.loads(line) for line in lines[1:]]
        ok = [r for r in ok if r["status"] == "ok"]
        assert ok
        for row in ok:
            assert set(row) == {"type", "status", *RunRecord._fields}

    def test_unscaled_features_past_the_float_range_write_nothing(self, tmp_path, capsys):
        # squared differences of 2e200 overflow: the run once exited 0 with
        # "cost": Infinity, which is not standard JSON, in all 7 records
        data = tmp_path / "big.csv"
        data.write_text("x,group\n1e200,a\n-1e200,b\n1,a\n2,b\n", encoding="utf-8")
        config = tmp_path / "big.ini"
        config.write_text(
            f"[dataset]\npath = {data}\nprotected_column = group\nscale = none\n\n"
            "[sweep]\nk = 2\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["run", str(config), "--output", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {data}: column 'x' spans -1e+200 to 1e+200; ")
        assert "features too large: " in err and err.count("\n") == 1
        assert "float maximum 1.7976931348623157e+308" in err
        assert not out.exists()

    def test_provenance_carries_defaults(self, sweep_dir):
        provenance = json.loads((sweep_dir / "runs.jsonl").read_text().splitlines()[0])
        params = provenance["params"]
        assert params["t"] == "1/2"
        assert params["lambda"] == 0.3
        assert params["epsilon_hierarchical"] == 1.2
        assert params["epsilon_partitioning"] == 1.01
        assert provenance["dataset"]["balance"] == 1.0

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, SMALL_SWEEP)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(config), "--output", str(out1)]) == EXIT_OK
        assert main(["run", str(config), "--output", str(out2)]) == EXIT_OK
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert names == [
            "fairlets_mcf.json", "fairlets_vanilla.json", "runs.jsonl", "summary.csv",
            "trace.jsonl",
        ]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_student_like_sweep_is_ok_and_byte_identical(self, tmp_path):
        # exact distance ties on the categorical table keep many knapsacks
        # from the two-class certificate, so this sweep runs kmed's batched DP
        write_student_like(tmp_path / "student.csv")
        config = tmp_path / "sweep.ini"
        config.write_text(
            "[dataset]\npath = student.csv\nprotected_column = sex\n\n"
            "[sweep]\nmethods = all\nk = 2,4\nseed = 7\n",
            encoding="utf-8",
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(config), "--output", str(out1)]) == EXIT_OK
        assert main(["run", str(config), "--output", str(out2)]) == EXIT_OK
        for name in ("runs.jsonl", "trace.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        runs = [json.loads(line) for line in (out1 / "runs.jsonl").read_text().splitlines()]
        runs = [r for r in runs if r["type"] == "run"]
        assert len(runs) == 7 * 2
        assert [(r["method"], r["k"]) for r in runs if r["status"] != "ok"] == []

    def test_output_defaults_to_sweep_out(self, tmp_path, monkeypatch):
        write_config(tmp_path, SMALL_SWEEP.replace("{data}", "data.csv"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "sweep.ini"]) == EXIT_OK
        assert (tmp_path / "sweep-out" / "runs.jsonl").exists()
        assert (tmp_path / "sweep-out" / "trace.jsonl").exists()
        # the sidecars are always written; the flags that once asked for them are gone
        for flag in ("--trace", "--export-decompositions"):
            with pytest.raises(SystemExit) as err:
                main(["run", "sweep.ini", flag])
            assert err.value.code == EXIT_USAGE, flag

    def test_records_in_canonical_order(self, sweep_dir):
        lines = (sweep_dir / "runs.jsonl").read_text().splitlines()[1:]
        keys = [(json.loads(l)["method"], json.loads(l)["k"]) for l in lines]
        assert keys == sorted(keys)

    def test_default_k_sweep_yields_49_records(self, tmp_path):
        config = write_config(
            tmp_path,
            """
[dataset]
path = {data}
protected_column = group

[sweep]
methods = all
seed = 3
""",
            data_flags=("--n", "48", "--balance", "0.8", "--seed", "3"),
        )
        out = tmp_path / "out"
        main(["run", str(config), "--output", str(out)])
        rows = [
            json.loads(line)
            for line in (out / "runs.jsonl").read_text().splitlines()[1:]
        ]
        # default k sweep is 2..14 step 2: 7 methods x 7 values, every cell
        # present whether it succeeded or was marked infeasible
        assert len(rows) == 49
        assert {r["k"] for r in rows} == {2, 4, 6, 8, 10, 12, 14}

    def test_summary_csv_has_expected_columns(self, sweep_dir):
        header = (sweep_dir / "summary.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "method", "k", "status", "cost", "balance",
            "max_size", "min_size", "q", "t", "seed",
        ]

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.ini")]) == EXIT_USAGE

    def test_bad_method_is_usage_error(self, tmp_path, capsys):
        # a list naming no method once ran nothing and exited 0
        for value in ("kmeans", ","):
            body = SMALL_SWEEP.replace("methods = all", f"methods = {value}")
            config = write_config(tmp_path, body)
            out = tmp_path / "o"
            assert main(["run", str(config), "--output", str(out)]) == EXIT_USAGE, value
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "sweep.methods" in err, value
            assert not out.exists()

    def test_each_error_class_has_one_outcome(self, tmp_path, monkeypatch, capsys):
        outcomes = {
            errors.ConfigError: ("config error: ", EXIT_USAGE),
            errors.IngestError: ("data error: ", EXIT_DATA),
            errors.InfeasibilityError: ("infeasible: ", EXIT_DATA),
            errors.ContractViolationError: ("error: ", EXIT_DATA),
            OSError: ("i/o error: ", EXIT_DATA),
        }
        # a new error class must be given an outcome here
        defined = {
            c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.FaircapError)
        }
        assert defined - {errors.FaircapError} == set(outcomes) - {OSError}
        config = write_config(tmp_path, SMALL_SWEEP)
        for cls, (prefix, code) in outcomes.items():
            def fail(spec, cls=cls):
                raise cls("boom")

            monkeypatch.setattr(ingest, "load_csv", fail)
            assert main(["run", str(config), "--output", str(tmp_path / "o")]) == code, cls
            assert capsys.readouterr().err == f"{prefix}boom\n", cls
        monkeypatch.undo()
        # within a sweep, a failed cell's record gets its class's status
        for cls in defined:
            def fail_cell(*args, cls=cls, **kwargs):
                raise cls("boom")

            monkeypatch.setattr(baselines, "pipeline", fail_cell)
            out = tmp_path / cls.__name__
            main(["run", str(config), "--output", str(out)])
            rows = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()[1:]]
            status = "infeasible" if cls is errors.InfeasibilityError else "error"
            assert {(r["status"], r["error"]) for r in rows} == {(status, "boom")}, cls

    def test_bad_sweep_number_is_config_error(self, tmp_path, capsys):
        for key, value in (
            ("epsilon_hierarchical", "nan"),
            ("epsilon_hierarchical", "inf"),
            ("epsilon_hierarchical", "0.5"),
            ("epsilon_partitioning", "0.5"),
            ("lambda", "inf"),
            ("t", "0"),
            ("t", "2"),
            ("t", "2/3"),
            ("seed", "-1"),
        ):
            # the key replaces SMALL_SWEEP's own seed line, if any
            body = SMALL_SWEEP.replace("seed = 7\n", "") + f"{key} = {value}\n"
            config = write_config(tmp_path, body)
            out = tmp_path / "o"
            assert main(["run", str(config), "--output", str(out)]) == EXIT_USAGE
            assert f"[sweep] {key}" in capsys.readouterr().err
            assert not out.exists()

    def test_bad_k_is_config_error(self, tmp_path, capsys):
        # a negative step once ran 10:2:-2 as k = 4, 6, 8, 10 and dropped 2
        # an empty range once read as "needs positive values"
        for value in ("10:2:-2", "2:10:0", "2:x", "1:2:3:4", "0,2", "10:2"):
            config = write_config(tmp_path, SMALL_SWEEP.replace("k = 2,3", f"k = {value}"))
            out = tmp_path / "o"
            assert main(["run", str(config), "--output", str(out)]) == EXIT_USAGE, value
            err = capsys.readouterr().err
            assert "sweep.k" in err, value
            assert not out.exists()
        assert err == "config error: sweep.k: '10:2' names no k value\n"

    def test_k_above_the_row_count_is_config_error(self, tmp_path, capsys):
        # k = 2:49 on 48 rows once ran the whole sweep and wrote every k
        # above 48 as a failed record
        config = write_config(tmp_path, SMALL_SWEEP.replace("k = 2,3", "k = 2:49"))
        out = tmp_path / "o"
        assert main(["run", str(config), "--output", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "config error: sweep.k: k = 49 exceeds the dataset's n = 48 rows, "
            "and no method forms more clusters than rows\n"
        )
        assert not out.exists()

    def test_k_range_is_not_built(self, tmp_path, capsys):
        # every value of 2:100000000 was once built as a tuple, then a set,
        # before any row was read: gigabytes, or a MemoryError; a stop past
        # the C size range ended in an OverflowError traceback
        for stop in (10**8, 10**20):
            config = write_config(tmp_path, SMALL_SWEEP.replace("k = 2,3", f"k = 2:{stop}"))
            tracemalloc.start()
            try:
                cfg = SweepConfig(config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, stop
            assert (cfg.k_values[0], cfg.k_values[-1]) == (2, stop)
            out = tmp_path / "o"
            assert main(["run", str(config), "--output", str(out)]) == EXIT_USAGE
            assert f"k = {stop} exceeds the dataset's n = 48 rows" in capsys.readouterr().err
            assert not (out / "runs.jsonl").exists()

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        # a typo once ran silently with the default lambda, and a generator
        # key once chose inline data over the CSV path
        for section, key in (
            ("sweep", "lamda"), ("sweep", "output_dir"), ("dataset", "generate"),
            ("dataset", "dims"),
        ):
            body = SMALL_SWEEP.replace(f"[{section}]\n", f"[{section}]\n{key} = 0.5\n")
            config = write_config(tmp_path, body)
            out = tmp_path / "o"
            assert main(["run", str(config), "--output", str(out)]) == EXIT_USAGE
            assert f"[{section}] unknown key {key!r}" in capsys.readouterr().err
            assert not out.exists()

    def test_missing_section_or_dataset_path_is_config_error(self, tmp_path, capsys):
        for body, message in (
            (SMALL_SWEEP.split("[sweep]")[0], "missing [sweep] section"),
            (SMALL_SWEEP.replace("path = {data}\n", ""), "[dataset] needs path and protected_column"),
        ):
            config = write_config(tmp_path, body)
            out = tmp_path / "o"
            assert main(["run", str(config), "--output", str(out)]) == EXIT_USAGE
            assert capsys.readouterr().err == f"config error: {config}: {message}\n"
            assert not out.exists()

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_SWEEP)
        config.write_bytes(config.read_bytes().replace(b"seed = 7", b"seed = \xff"))
        assert main(["run", str(config), "--output", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(config) in err

    def test_non_utf8_dataset_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_SWEEP)
        data = tmp_path / "data.csv"
        data.write_bytes(data.read_bytes().replace(b"group", b"gr\xffoup"))
        assert main(["run", str(config), "--output", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"{data}: not UTF-8 text" in err

    def test_config_with_byte_order_mark_parses(self, tmp_path):
        # it once hid the [dataset] header: "File contains no section headers"
        config = write_config(tmp_path, SMALL_SWEEP)
        plain = SweepConfig(config)
        config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        marked = SweepConfig(config)
        assert (marked.dataset_spec, marked.methods, marked.k_values) == (
            plain.dataset_spec, plain.methods, plain.k_values
        )

    def test_huge_epsilon_runs_kmed(self, tmp_path):
        # q = ceil(48 * 1e19 / 2) is past int64, which kmed's room arithmetic
        # once overflowed; a capacity above the total weight never binds
        body = SMALL_SWEEP.replace(
            "methods = all", "methods = kmed_fair_cap_mcf,kmed_fair_cap_vanilla"
        ).replace("seed = 7", "seed = 7\nepsilon_partitioning = 1e19")
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, body)), "--output", str(out)]) == EXIT_OK
        rows = [json.loads(l) for l in (out / "runs.jsonl").read_text().splitlines()[1:]]
        q = {2: 24 * 10**19, 3: 16 * 10**19}
        assert [(r["status"], r["q"]) for r in rows] == [("ok", q[2]), ("ok", q[3])] * 2
        assert main(["report", str(out)]) == EXIT_OK

    def test_no_feature_column_is_data_error(self, tmp_path, capsys):
        # both once ended in a numpy traceback and exit 1
        for text, drop in (("x,group\n1,a\n2,b\n", "x"), ("group\na\nb\n", "")):
            data = tmp_path / "d.csv"
            data.write_text(text, encoding="utf-8")
            config = write_config(
                tmp_path,
                "[dataset]\npath = d.csv\nprotected_column = group\n"
                f"drop_columns = {drop}\n[sweep]\nk = 2\n",
            )
            assert main(["run", str(config), "--output", str(tmp_path / "o")]) == EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {data}: no feature column remains"), text

    def test_bad_dataset_spec_is_config_error(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("x,group\n1,a\n2,b\n", encoding="utf-8")
        for line in ("delimiter = ;;", "scale = zscore", "drop_columns = 50%"):
            config = write_config(
                tmp_path,
                "[dataset]\npath = d.csv\nprotected_column = group\n"
                f"{line}\n[sweep]\nk = 2\n",
            )
            out = tmp_path / "o"
            assert main(["run", str(config), "--output", str(out)]) == EXIT_USAGE
            assert "[dataset]" in capsys.readouterr().err
            assert not out.exists()

    def test_infeasible_runs_marked_not_dropped(self, tmp_path):
        # k larger than the number of fairlets makes every method fail,
        # but the sweep still writes one marked row per cell
        config = write_config(
            tmp_path,
            """
[dataset]
path = {data}
protected_column = group

[sweep]
methods = hier_fair_cap_vanilla,kmed_fair_cap_vanilla
k = 8
seed = 1
""",
            data_flags=("--n", "12", "--balance", "1.0", "--seed", "1"),
        )
        out = tmp_path / "out"
        code = main(["run", str(config), "--output", str(out)])
        assert code == EXIT_ALL_INFEASIBLE
        rows = [
            json.loads(line)
            for line in (out / "runs.jsonl").read_text().splitlines()[1:]
        ]
        assert len(rows) == 2
        assert all(r["status"] == "infeasible" for r in rows)
        assert all("error" in r for r in rows)

    def test_error_runs_marked_and_reported(self, tmp_path, monkeypatch):
        # a broken precondition in one cell is an `error` record carrying its
        # message and a blank summary row; the sweep exits 2 and the report
        # lists the record and leaves the cell's box out of sizes.svg
        pipeline = baselines.pipeline

        def failing(method, data, params, **kwargs):
            if method == "mcf_fairlet_kcenter" and params.k < 4:
                raise errors.ContractViolationError(f"stage broke at k={params.k}")
            return pipeline(method, data, params, **kwargs)

        monkeypatch.setattr(baselines, "pipeline", failing)
        body = SMALL_SWEEP.replace("k = 2,3", "k = 2,3,4").replace(
            "methods = all", "methods = mcf_fairlet_kcenter,vanilla_fairlet_kcenter"
        )
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, body)), "--output", str(out)]) == EXIT_DATA
        rows = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()[1:]]
        assert [(r["method"], r["k"], r["status"], r.get("error")) for r in rows] == [
            ("mcf_fairlet_kcenter", 2, "error", "stage broke at k=2"),
            ("mcf_fairlet_kcenter", 3, "error", "stage broke at k=3"),
            ("mcf_fairlet_kcenter", 4, "ok", None),
        ] + [("vanilla_fairlet_kcenter", k, "ok", None) for k in (2, 3, 4)]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[1:3] == [f"mcf_fairlet_kcenter,{k},error,,,,,,," for k in (2, 3)]

        assert main(["report", str(out)]) == EXIT_OK
        table = (out / "summary.txt").read_text().splitlines()
        assert [line.split() for line in table if " error" in line] == [
            ["mcf_fairlet_kcenter", "2", "error"], ["mcf_fairlet_kcenter", "3", "error"]
        ]
        boxes = re.findall(r'data-method="(\w+)" data-k="(\d)"', (out / "sizes.svg").read_text())
        assert sorted(boxes) == [("mcf_fairlet_kcenter", "4")] + [
            ("vanilla_fairlet_kcenter", k) for k in "234"
        ]

    def test_kcenter_keeps_k_when_fairlet_centers_coincide(self, tmp_path):
        # three positions, six rows each: k = 4 and 5 once picked a center
        # again, and every record said k = 3
        points = [(0, 0), (1, 1), (2, 0)] * 6
        cells = "".join(f"{x},{y},{i % 2}\n" for i, (x, y) in enumerate(points))
        (tmp_path / "d.csv").write_text("x,y,group\n" + cells, encoding="utf-8")
        config = write_config(
            tmp_path,
            "[dataset]\npath = d.csv\nprotected_column = group\n[sweep]\n"
            "methods = mcf_fairlet_kcenter,vanilla_fairlet_kcenter\nk = 3,4,5\nseed = 0\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(config), "--output", str(out)]) == EXIT_OK
        rows = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()[1:]]
        assert [(r["method"], r["k"], len(r["sizes"])) for r in rows] == [
            (method, k, k)
            for method in ("mcf_fairlet_kcenter", "vanilla_fairlet_kcenter")
            for k in (3, 4, 5)
        ]

    def test_trace_and_decomposition_exports(self, tmp_path):
        config = write_config(tmp_path, SMALL_SWEEP)
        out = tmp_path / "out"
        assert main(["run", str(config), "--output", str(out)]) == EXIT_OK
        assert (out / "trace.jsonl").exists()
        assert (out / "fairlets_vanilla.json").exists()
        assert (out / "fairlets_mcf.json").exists()
        assert not (out / "fairlets_rows.json").exists()  # PAM's singletons
        events = [
            json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()
        ]
        assert any(e["event"] == "swap" or e["event"] == "assign" for e in events)

    def test_hier_sweep_shares_merges_with_the_results_of_one_k_sweeps(
        self, tmp_path, monkeypatch
    ):
        # the README data: k = 2 ends infeasible, and later k values replay
        # the merges it made before it stalled
        body = SMALL_SWEEP.replace("methods = all", "methods = hier_fair_cap_mcf,hier_fair_cap_vanilla")
        readme_data = ("--n", "150", "--balance", "0.8", "--clusters", "3", "--seed", "7")
        replayed = []
        start = capclust.MergeLog.start

        def start_spy(log, *args):
            replayed.append(start(log, *args))
            return replayed[-1]

        monkeypatch.setattr(capclust.MergeLog, "start", start_spy)

        def sweep(k):
            config = write_config(tmp_path, body.replace("k = 2,3", f"k = {k}"), readme_data)
            out = tmp_path / f"out-{k}"
            assert main(["run", str(config), "--output", str(out)]) in (EXIT_OK, EXIT_ALL_INFEASIBLE)
            lines = (out / "runs.jsonl").read_text(encoding="utf-8").splitlines()
            return lines[1:], (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()

        runs, trace = sweep("2:10:2")
        assert sum(replayed) > 0
        one_k = [sweep(k) for k in range(2, 11, 2)]
        assert sum(replayed[10:]) == 0  # each one-k sweep starts a new log
        assert any(json.loads(line)["status"] == "infeasible" for line in runs)
        def key(line):  # records and trace lines are in (method, k) order
            return json.loads(line)["method"], json.loads(line)["k"]

        assert runs == sorted((line for r, _ in one_k for line in r), key=key)
        assert trace == sorted((line for _, t in one_k for line in t), key=key)

    def test_capacitated_sweep_runs_at_any_epsilon(self, tmp_path):
        # at epsilon 1e30 q has 32 digits; it never binds, and hier once
        # overflowed int64 on it. Records keep the formula q.
        methods = "hier_fair_cap_mcf,hier_fair_cap_vanilla,kmed_fair_cap_mcf,kmed_fair_cap_vanilla"
        body = SMALL_SWEEP.replace(
            "methods = all",
            f"methods = {methods}\nepsilon_hierarchical = 1e30\nepsilon_partitioning = 1e30",
        ).replace("k = 2,3", "k = 2:10")
        readme_data = ("--n", "150", "--balance", "0.8", "--clusters", "3", "--seed", "7")
        config = write_config(tmp_path, body, readme_data)
        out = tmp_path / "out"
        assert main(["run", str(config), "--output", str(out)]) == EXIT_OK
        lines = (out / "runs.jsonl").read_text(encoding="utf-8").splitlines()[1:]
        records = [json.loads(line) for line in lines]
        assert len(records) == 4 * 9
        for r in records:
            assert r["status"] == "ok", r
            assert r["q"] == capclust.capacity_threshold(150, r["k"], 1e30) > 2**100
        assert main(["report", str(out)]) == EXIT_OK


class TestReport:
    def test_writes_all_panels(self, sweep_dir, tmp_path):
        rep = tmp_path / "rep"
        code = main(["report", str(sweep_dir), "--output", str(rep)])
        assert code == EXIT_OK
        for name in ("cost.svg", "balance.svg", "sizes.svg", "summary.txt"):
            assert (rep / name).exists(), name

    def test_balance_panel_has_threshold_line(self, sweep_dir):
        code = main(["report", str(sweep_dir)])
        assert code == EXIT_OK
        svg = (sweep_dir / "balance.svg").read_text()
        assert 'class="threshold-t"' in svg
        assert 'data-t="0.5"' in svg

    def test_runs_jsonl_path_reports_beside_it(self, sweep_dir):
        # without --output, the file form once tried to make runs.jsonl a directory
        assert main(["report", str(sweep_dir / "runs.jsonl")]) == EXIT_OK
        for name in ("cost.svg", "balance.svg", "sizes.svg", "summary.txt"):
            assert (sweep_dir / name).exists(), name

    def test_missing_sweep_is_data_error(self, tmp_path):
        assert main(["report", str(tmp_path / "nowhere")]) == EXIT_DATA

    def test_non_utf8_runs_jsonl_is_data_error(self, sweep_dir, capsys):
        runs = sweep_dir / "runs.jsonl"
        runs.write_bytes(runs.read_bytes().replace(b'"ok"', b'"\xff"', 1))
        assert main(["report", str(sweep_dir)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"{runs}: not UTF-8 text" in err

    def test_malformed_runs_jsonl_is_data_error(self, tmp_path, capsys):
        provenance = {
            "type": "provenance", "dataset": {"n": 10, "balance": 1.0},
            "params": {"t": "1/2", "k": [2], "epsilon_hierarchical": 1.2,
                       "epsilon_partitioning": 1.01},
        }
        record = {"type": "run", "status": "ok", "method": "vanilla_kmedoids", "k": 2,
                  "cost": 1.0, "balance": 0.5, "sizes": [5, 5], "q": 6}
        good = [json.dumps(provenance), json.dumps(record)]
        bad = {
            "not JSON": (good[0] + "\n{not json", ":2: not valid JSON"),
            "not an object": (good[0] + "\n[1, 2]", ":2: expected a JSON object"),
            "provenance without params": (
                json.dumps({k: v for k, v in provenance.items() if k != "params"})
                + "\n" + good[1],
                ":1: provenance line lacks params.t",
            ),
            "ok record without k": (
                good[0] + "\n" + json.dumps({k: v for k, v in record.items() if k != "k"}),
                ":2: ok line lacks k",
            ),
        }
        # mistyped or out of range; a k or n below 1 and an epsilon below 1
        # once reached capacity_threshold and failed with no path or line
        mistyped = {
            ("ok", "k"): ("2", True, 0, -3), ("ok", "q"): (6.0, 0), ("ok", "cost"): ("x", None),
            ("ok", "balance"): ("0.5",), ("ok", "sizes"): ([5, "5"], [], 10, [11, -1]),
            ("ok", "method"): (3,), ("failed", "k"): ("2", 0), ("failed", "method"): (None,),
        }
        failed = {"type": "run", "status": "infeasible", "method": "hier_fair_cap_mcf", "k": 2}
        for (kind, key), values in mistyped.items():
            base = record if kind == "ok" else failed
            for value in values:
                line = json.dumps(dict(base, **{key: value}))
                bad[f"{kind} {key}={value!r}"] = (
                    good[0] + "\n" + line, f":2: {kind} line's {key} must be"
                )
        bad["ok cost=NaN"] = (
            good[0] + "\n" + json.dumps(dict(record, cost=float("nan"))),
            ":2: ok line's cost must be a finite number",
        )
        params = provenance["params"]
        for key, change in {
            "params.t": {"params": dict(params, t="abc")},
            "dataset.n": {"dataset": {"n": 0, "balance": 1.0}},
            "params.k": {"params": dict(params, k=[2, 0])},
            "params.epsilon_hierarchical": {"params": dict(params, epsilon_hierarchical=0.5)},
            "params.epsilon_partitioning": {"params": dict(params, epsilon_partitioning=-2)},
        }.items():
            bad[f"provenance {key}"] = (
                json.dumps(dict(provenance, **change)) + "\n" + good[1],
                f":1: provenance line's {key} must be",
            )
        bad["provenance numeric params.t"] = (
            json.dumps(dict(provenance, params=dict(params, t=0.5))) + "\n" + good[1],
            ":1: provenance line's params.t must be",
        )
        bad["no provenance line"] = (good[1], ": missing provenance line")
        bad["provenance line only"] = (good[0], ": no run records to report on")
        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join(good) + "\n")
        assert main(["report", str(path), "--output", str(tmp_path / "rep")]) == EXIT_OK
        for name, (text, message) in bad.items():
            path.write_text(text + "\n")
            assert main(["report", str(path), "--output", str(tmp_path / "rep")]) == EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {path}:") and message in err, name


class TestValidate:
    def test_valid_decomposition_accepted(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_SWEEP)
        out = tmp_path / "out"
        main(["run", str(config), "--output", str(out)])
        code = main(["validate", str(config), "--decomposition", str(out / "fairlets_mcf.json")])
        assert code == EXIT_OK
        assert "valid decomposition" in capsys.readouterr().out

    def test_relative_data_path_is_read_from_the_config_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        qs = tmp_path / "qs"
        qs.mkdir()
        write_config(qs, SMALL_SWEEP.replace("{data}", "data.csv"))
        monkeypatch.chdir(tmp_path)
        code = main(["run", "qs/sweep.ini", "--output", "qs/out"])
        assert code == EXIT_OK
        provenance = json.loads((qs / "out" / "runs.jsonl").read_text().splitlines()[0])
        assert provenance["dataset"]["path"] == "data.csv"  # as written
        code = main(["validate", "qs/sweep.ini", "--decomposition", "qs/out/fairlets_mcf.json"])
        assert code == EXIT_OK, capsys.readouterr().err
        assert "valid decomposition" in capsys.readouterr().out

    def test_export_validates_at_its_own_sweeps_t(self, tmp_path, capsys):
        # 12 of 42 rows are protected, so at t = 1/3 some MCF fairlets hold
        # three majority rows: balance 1/3, below the old fixed --t of 1/2
        body = SMALL_SWEEP.replace("methods = all", "methods = mcf_fairlet_kcenter")
        config = write_config(
            tmp_path, body.replace("k = 2,3", "k = 2\nt = 1/3"),
            data_flags=("--n", "42", "--balance", "0.4", "--seed", "7"),
        )
        out = tmp_path / "out"
        code = main(["run", str(config), "--output", str(out)])
        assert code == EXIT_OK
        decomposition = str(out / "fairlets_mcf.json")
        assert main(["validate", str(config), "--decomposition", decomposition]) == EXIT_OK
        assert "valid decomposition" in capsys.readouterr().out
        half = tmp_path / "half.ini"
        half.write_text(config.read_text().replace("t = 1/3", "t = 1/2"), encoding="utf-8")
        assert main(["validate", str(half), "--decomposition", decomposition]) == EXIT_DATA
        assert "below threshold 1/2" in capsys.readouterr().out

    def test_tampered_decomposition_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path, SMALL_SWEEP, data_flags=("--n", "8", "--balance", "1.0", "--seed", "2")
        )
        # all four protected-1 rows in one fairlet violates balance
        from faircap.ingest import DatasetSpec, load_csv

        data = load_csv(DatasetSpec(path=tmp_path / "data.csv", protected_column="group"))
        labels = data.protected.tolist()
        bad = json.dumps({"row_to_fairlet": labels, "centers": [labels.index(0), labels.index(1)]})
        decomp_path = tmp_path / "bad.json"
        decomp_path.write_text(bad)
        code = main(["validate", str(config), "--decomposition", str(decomp_path)])
        assert code == EXIT_DATA
        assert "violation" in capsys.readouterr().out

    def test_file_of_fewer_rows_reports_the_row_count(self, tmp_path, capsys):
        config = write_config(
            tmp_path, SMALL_SWEEP, data_flags=("--n", "8", "--balance", "1.0", "--seed", "2")
        )
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"row_to_fairlet": [0] * 7, "centers": [0]}))
        code = main(["validate", str(config), "--decomposition", str(path)])
        assert code == EXIT_DATA
        out = capsys.readouterr().out
        assert out.endswith("\nviolation: decomposition covers 7 rows, dataset has 8\n")

    def test_malformed_input_is_an_error_not_a_traceback(self, tmp_path, capsys):
        config = write_config(
            tmp_path, SMALL_SWEEP, data_flags=("--n", "8", "--balance", "1.0", "--seed", "2")
        )
        good = {"row_to_fairlet": [0, 0, 1, 1, 2, 2, 3, 3], "centers": [0, 2, 4, 6]}
        path = tmp_path / "bad.json"
        entries = "must be a list of int64 integers"
        bad_files = {
            "not JSON": ("{not json", "not valid JSON"),
            "a list, not an object": (json.dumps([good]), "must be a JSON object"),
            "missing key": (json.dumps({"centers": good["centers"]}), f"row_to_fairlet {entries}"),
            "bool entry": (json.dumps(dict(good, centers=[0, 2, 4, True])), f"centers {entries}"),
            "float entry": (json.dumps(dict(good, centers=[0, 2, 4, 6.0])), f"centers {entries}"),
            "string entry": (
                json.dumps(dict(good, row_to_fairlet=["0", 0, 1, 1, 2, 2, 3, 3])),
                f"row_to_fairlet {entries}",
            ),
            "entry beyond int64": (
                json.dumps(dict(good, row_to_fairlet=[2**70, 0, 1, 1, 2, 2, 3, 3])),
                f"row_to_fairlet {entries}",
            ),
            "id out of range": (
                json.dumps(dict(good, row_to_fairlet=[0, 0, 1, 1, 2, 2, 3, 4])),
                "fairlet ids must lie in 0..3",
            ),
            "center outside its fairlet": (
                json.dumps(dict(good, centers=[0, 2, 4, 5])),
                "fairlets [3] have a center that is not one of their rows",
            ),
            "rows but no centers": (
                json.dumps({"row_to_fairlet": [0, 0], "centers": []}),
                "no fairlets for 2 rows",
            ),
            "not UTF-8": (b'{"centers": "\xff"}', f"{path}: not UTF-8 text"),
        }
        for name, (text, message) in bad_files.items():
            if isinstance(text, bytes):
                path.write_bytes(text)
            else:
                path.write_text(text)
            code = main(["validate", str(config), "--decomposition", str(path)])
            assert code == EXIT_DATA, name
            err = capsys.readouterr().err
            assert message in err, name
            prefix = "data error: " if name == "not UTF-8" else "error: "
            assert err.startswith(prefix), name
        # the threshold comes from the config, checked like `faircap run` checks it
        for t in ("abc", "1/0", "2/3"):
            bad_t = tmp_path / "bad_t.ini"
            bad_t.write_text(config.read_text() + f"t = {t}\n", encoding="utf-8")
            assert main(["validate", str(bad_t), "--decomposition", str(path)]) == EXIT_USAGE, t
            assert "[sweep] t" in capsys.readouterr().err, t
