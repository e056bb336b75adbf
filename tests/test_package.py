import os
import subprocess
import sys
from pathlib import Path

import faircap


def test_all_names_resolve_without_duplicates():
    assert len(faircap.__all__) == len(set(faircap.__all__))
    for name in faircap.__all__:
        assert getattr(faircap, name) is not None, name


def _run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports this checkout's faircap."""
    src = str(Path(faircap.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_mcf_decompose_does_not_load_scipy_optimize():
    # scipy.optimize costs about 10 MiB of resident memory and 0.15 s of
    # import time; the fairlet matching must stay on scipy.sparse.csgraph
    _run_fresh(
        "import sys\n"
        "from fractions import Fraction\n"
        "import faircap\n"
        "data = faircap.make_blobs(n=12, balance=0.5, clusters=2, seed=1)\n"
        "faircap.mcf_decompose(data, Fraction(1, 2), seed=1)\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
    )


def test_cli_sweep_does_not_load_scipy_spatial(tmp_path):
    # scipy.spatial costs about 7 MiB of resident memory and 0.15 s of
    # import time in every CLI process; distances come from numpy alone
    from test_cli import SMALL_SWEEP, write_config

    config = write_config(tmp_path, SMALL_SWEEP)
    _run_fresh(
        "import sys\n"
        "from faircap import cli\n"
        f"assert cli.main(['run', {str(config)!r}, '--output', {str(tmp_path / 'out')!r}]) == 0\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy.spatial')]\n"
        "assert not loaded, loaded\n"
    )


def test_benchmark_tracer_reads_every_counter(tmp_path, monkeypatch):
    # perfbench/tracer.py wraps module attributes from outside the package
    # and reads KnapsackInstance fields, each stage result's .trace,
    # decomp.fairlets, fl.weight and ValidationReport.violations; a renamed
    # one shows up here as a missing span or a reader_error
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
        "capclust.knapsack_select": {"items", "cells", "classes"},
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
