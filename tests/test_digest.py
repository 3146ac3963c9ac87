"""The benchmark workloads' output, pinned by tools/output_digest.py.

A change that alters any item's exit code or stdout on purpose updates
these lines and says so.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEED_1 = [
    "certify seed 1: 173 items, 0 nonzero exits, "
    "sha256 b10a77554f0dff97daa5f07035fb22e9fa80edf3737455bf0ccf3014c409230f",
    "sweep seed 1: 120 items, 0 nonzero exits, "
    "sha256 50875ba4eb37eeea4221987af1d12af1a26a2d5c79a6ad94084a91acd6f1aba2",
    "construct seed 1: 390 items, 0 nonzero exits, "
    "sha256 a2126bf15094b3d3dece09e0f593275f920273f7bacebf16d4b870b120fc01fc",
]


def test_workload_output_is_unchanged():
    # in a subprocess: the runner silences root logging for the whole process
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"), "--seeds", "1"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == SEED_1
