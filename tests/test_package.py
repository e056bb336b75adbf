import os
import re
import subprocess
import sys
from pathlib import Path

import faircap


def test_all_names_resolve_without_duplicates():
    assert len(faircap.__all__) == len(set(faircap.__all__))
    for name in faircap.__all__:
        assert getattr(faircap, name) is not None, name


def _run_fresh(script, timeout=120):
    """Run ``script`` in a fresh interpreter that imports this checkout's faircap.
    A child stuck in native code fails the test at the timeout instead of
    holding the whole run."""
    src = str(Path(faircap.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr


def test_mcf_decompose_does_not_load_scipy_optimize():
    # scipy.optimize costs about 10 MiB of resident memory and 0.15 s of
    # import time; the fairlet grouping is numpy alone, so no scipy module
    # at all may load
    _run_fresh(
        "import sys\n"
        "from fractions import Fraction\n"
        "import faircap\n"
        "data = faircap.make_blobs(n=12, balance=0.5, clusters=2, seed=1)\n"
        "faircap.mcf_decompose(data, Fraction(1, 2), seed=1)\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )


def test_cli_sweep_does_not_load_scipy_spatial(tmp_path):
    # importing scipy (scipy.spatial for distances, the sparse matching for
    # fairlets) cost about 0.33 s and 36 MiB in every CLI process; a CLI run
    # plus report must load no scipy module at all
    from test_cli import SMALL_SWEEP, write_config

    config = write_config(tmp_path, SMALL_SWEEP)
    out = str(tmp_path / "out")
    _run_fresh(
        "import sys\n"
        "from faircap import cli\n"
        f"assert cli.main(['run', {str(config)!r}, '--output', {out!r}]) == 0\n"
        f"assert cli.main(['report', {out!r}]) == 0\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )


def test_kmedoids_run_does_not_load_numpy_ma(tmp_path):
    # numpy 2 loads numpy.ma on first use, about 15 ms, from np.unique
    # without return arguments and np.setdiff1d without assume_unique; the
    # k-medoids stages call neither, and kmed's room repair picks its
    # movable points with a boolean mask, no set routine
    from test_cli import SMALL_SWEEP, write_config

    methods = "kmed_fair_cap_mcf, kmed_fair_cap_vanilla, vanilla_kmedoids"
    config = write_config(tmp_path, SMALL_SWEEP.replace("methods = all", f"methods = {methods}"))
    out = str(tmp_path / "out")
    _run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "eager = 'numpy.ma' in sys.modules  # numpy versions that load it at import\n"
        "from faircap import cli\n"
        "from faircap.capclust import _repair_room\n"
        f"assert cli.main(['run', {str(config)!r}, '--output', {out!r}]) == 0\n"
        "x = np.array([0.0, 1.0, 5.0, 6.0, 2.0])\n"
        "taken, room = np.array([0, 0, 1, 1, -1]), np.array([1, 2])\n"
        "weights, med = np.array([1, 1, 1, 1, 2]), np.array([0, 3])\n"
        "assert _repair_room(4, taken, room, med, abs(x[:, None] - x), weights) == 0\n"
        "assert taken.tolist() == [0, 1, 1, 1, -1]\n"
        "assert eager or 'numpy.ma' not in sys.modules\n"
    )


def test_mcf_decompose_returns_on_the_matching_hang_input():
    # scipy's sparse matching never returned on this input, in native code
    # that Ctrl-C could not stop
    _run_fresh(
        "from fractions import Fraction\n"
        "import numpy as np\n"
        "import faircap\n"
        "x = np.random.default_rng(9).uniform(size=(30, 1))\n"
        "data = faircap.Dataset(features=x, protected=np.arange(30) % 2)\n"
        "decomp = faircap.mcf_decompose(data, Fraction(1, 2), seed=0)\n"
        "assert faircap.validate(decomp, data, Fraction(1, 2)).violations == ()\n",
        timeout=5,
    )


def test_benchmark_tracer_reads_every_counter(tmp_path, monkeypatch):
    # perfbench/tracer.py wraps module attributes from outside the package
    # and reads each stage result's .trace, decomp.fairlets, fl.weight and
    # ValidationReport.violations; a renamed one shows up here as a missing
    # span or a reader_error.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from test_cli import SMALL_SWEEP, write_config
    from tracer import Tracer

    from faircap import cli

    config = write_config(tmp_path, SMALL_SWEEP)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["run", str(config), "--output", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    assert [span for span in tracer.spans if "reader_error" in span] == []
    decomposition = {"count", "weight_classes", "cost", "violations"}
    counters = {
        "capclust.hierarchical": {"merges"},
        "capclust.kmedoids": {"swap_rounds"},
        "fairlets.mcf_decompose": decomposition,
        "fairlets.vanilla_decompose": decomposition,
        "baselines.kmedoids_vanilla": set(),
        "core.medoid_index": {"bytes"},
    }
    for name, keys in counters.items():
        spans = [span for span in tracer.spans if span["name"] == name]
        assert spans, name
        for span in spans:
            assert keys <= span.keys(), (name, span)
            if keys == decomposition:
                assert span["violations"] == [] and span["count"] > 0, span


def test_readme_library_use_runs():
    # the two python blocks of README "Library use" share one namespace:
    # the second reads the first's data
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert len(namespace["clustering"].representatives) == 4
