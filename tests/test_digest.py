"""The benchmark workloads' output, pinned by tools/output_digest.py.

A change that alters any item's exit code or stdout on purpose updates
these lines and says so.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = [  # seeds 1, 2 and 3 of each workload, as --seeds 1 2 3 prints them
    "certify seed 1: 173 items, 0 nonzero exits, "
    "sha256 1746082f34121a947166e8dbda0330c4d06fbe129dd1cd4e6f7abce5e7714475",
    "certify seed 2: 173 items, 0 nonzero exits, "
    "sha256 bd6271654d605dffa179aa09b9650c13f1e3207b1cc9f6d7f2060b5c28ae4bed",
    "certify seed 3: 173 items, 0 nonzero exits, "
    "sha256 23476bbafc19ba50b74430500ff8be076654ac9c97268d28e2c083005f65e9b3",
    "sweep seed 1: 120 items, 0 nonzero exits, "
    "sha256 50875ba4eb37eeea4221987af1d12af1a26a2d5c79a6ad94084a91acd6f1aba2",
    "sweep seed 2: 120 items, 0 nonzero exits, "
    "sha256 5991aed9af99b4c458ffd193956f3ad63e46803971a8a8cdafdafcabaf71b303",
    "sweep seed 3: 120 items, 0 nonzero exits, "
    "sha256 4db4166baa7b5c9f126ecb6cd59e6dc5c3fcfff4f46bb7e834caf7f3f93ae9eb",
    "construct seed 1: 390 items, 0 nonzero exits, "
    "sha256 a2126bf15094b3d3dece09e0f593275f920273f7bacebf16d4b870b120fc01fc",
    "construct seed 2: 390 items, 0 nonzero exits, "
    "sha256 b53b6bcff24992c8c1ad947e2db0ea16be9d08579ecfc7c1f24dd18f18b7cf9a",
    "construct seed 3: 390 items, 0 nonzero exits, "
    "sha256 9b2c11f942eb9c7ed5004bcc81bca4f408c5c06f93ebb777a593c38703ec8edc",
]


def test_workload_output_is_unchanged():
    # in a subprocess: the runner silences root logging for the whole process
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"),
                           "--seeds", "1", "2", "3"], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == DIGESTS
