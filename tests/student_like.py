"""A seeded table shaped like UCI student-mat, the paper's data regime.

Run as a script, ``python tests/student_like.py OUT.csv [SEED]`` writes the
table to OUT.csv; it needs numpy alone.
"""

import sys
from pathlib import Path

import numpy as np


def write_student_like(path, seed=0):
    """Write a seeded 395-row CSV shaped like UCI student-mat: a binary
    ``sex`` column, 14 categorical columns of 2-5 levels and 3 small-integer
    columns. Its one-hot rows tie many distances exactly, as the paper's
    mostly categorical data does."""
    rng = np.random.default_rng(seed)
    n = 395
    columns = {"sex": rng.choice(["F", "M"], n, p=[0.53, 0.47])}
    for c, levels in enumerate(rng.integers(2, 6, 14)):
        weights = rng.dirichlet(np.ones(levels))
        columns[f"cat{c}"] = rng.choice([f"v{v}" for v in range(levels)], n, p=weights)
    columns["age"] = rng.integers(15, 23, n)
    columns["failures"] = rng.choice(4, n, p=[0.79, 0.12, 0.05, 0.04])
    columns["studytime"] = rng.integers(1, 5, n)
    lines = [",".join(columns)]
    lines += [",".join(str(col[i]) for col in columns.values()) for i in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit("usage: python student_like.py OUT.csv [SEED]")
    write_student_like(Path(sys.argv[1]), *(int(a) for a in sys.argv[2:]))
