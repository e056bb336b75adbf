import os
import subprocess
import sys
from pathlib import Path

import faircap


def test_all_names_resolve_without_duplicates():
    assert len(faircap.__all__) == len(set(faircap.__all__))
    for name in faircap.__all__:
        assert getattr(faircap, name) is not None, name


def test_mcf_decompose_does_not_load_scipy_optimize():
    # scipy.optimize costs about 10 MiB of resident memory and 0.15 s of
    # import time; the fairlet matching must stay on scipy.sparse.csgraph
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import faircap\n"
        "data = faircap.make_blobs(n=12, balance=0.5, clusters=2, seed=1)\n"
        "faircap.mcf_decompose(data, Fraction(1, 2), seed=1)\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
    )
    src = str(Path(faircap.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
