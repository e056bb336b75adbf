"""One benchmark child process: set up a workload, then optionally sweep it.

Run by ``run.py`` as ``python3 child.py '<spec json>'`` in a fresh process,
with ``PYTHONPATH`` pointing at the checkout's ``src/``. The child

1. imports faircap and checks that it came from that ``src/``;
2. writes the dataset with ``faircap generate`` and the sweep INI file;
3. in ``sweep`` mode, runs ``faircap run`` and then ``faircap report``
   through ``faircap.cli.main``, optionally with the tracer installed.

Its last line of standard output is one JSON object with monotonic clock
readings (``time.monotonic`` is system-wide, so the parent can subtract its
own spawn time), the exit codes and the child's peak RSS. A traced child
also writes its spans to ``spans.json`` in its working directory.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer


def write_config(spec: dict, csv_path: Path, ini_path: Path) -> None:
    ini_path.write_text(
        "[dataset]\n"
        f"path = {csv_path}\n"
        "protected_column = group\n"
        "\n"
        "[sweep]\n"
        f"methods = {spec['methods']}\n"
        f"k = {spec['k']}\n"
        f"t = {spec['t']}\n"
        f"seed = {spec['seed']}\n",
        encoding="utf-8",
    )


def main() -> int:
    spec = json.loads(sys.argv[1])

    import faircap
    from faircap import cli

    src = Path(spec["src"]).resolve()
    faircap_file = Path(faircap.__file__).resolve()
    if src not in faircap_file.parents:
        print(f"faircap was imported from {faircap_file}, not from {src}", file=sys.stderr)
        return 2

    # Paths relative to the child's working directory keep the provenance
    # line, and so the output digests, independent of where the run happens.
    csv_path = Path("data.csv")
    ini_path = Path("sweep.ini")
    out_dir = Path("out")
    code = cli.main([
        "generate", "--out", str(csv_path), "--n", str(spec["n"]),
        "--balance", str(spec["balance"]), "--clusters", str(spec["clusters"]),
        "--seed", str(spec["seed"]),
    ])
    if code != 0:
        print(f"faircap generate exited with {code}", file=sys.stderr)
        return 2
    write_config(spec, csv_path, ini_path)
    result: dict = {"ready": time.monotonic(), "faircap_file": str(faircap_file)}

    if spec["mode"] == "sweep":
        tracer = Tracer() if spec["trace"] else None
        if tracer is not None:
            tracer.install()
            root = tracer.open("cli.run")
        result["run_start"] = time.monotonic()
        result["run_code"] = cli.main(["run", str(ini_path), "--output", str(out_dir)])
        result["run_end"] = time.monotonic()
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
        result["report_code"] = cli.main(["report", str(out_dir)])
        result["report_end"] = time.monotonic()
        if tracer is not None:
            Path("spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
        # ru_maxrss is in KiB on Linux.
        result["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
