"""Pinned output digests of the jet-scaling benchmark workload.

Each run pushes seeded generated fifth-order equations of 16, 32 and 64
terms through the whole pipeline (adjoint, nsa_check, determining system,
conserved vectors, normalization, divergence) and prints one sha256 over
every op's output.  The digests below were recorded before the
conservation-law code was rewritten; any change to an output on these
large sums changes them.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

JET_SCALING_DIGESTS = {
    1: "1c1d6cc6575dc40db645bdb6e4096d8f41f9bedcec6d7dfb767f152ca6d2f657",
    2: "596733206d70b85216fd3110d27396a36e4be695d2ec9f8d20ccf172038dccfb",
    3: "4ae8232ea67a22c8a7d2a390ff08d28c3f608c37c8a2149ff625b99220b3d696",
}


@pytest.mark.parametrize("seed", sorted(JET_SCALING_DIGESTS))
def test_jet_scaling_digest_is_unchanged(seed):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "jet-scaling",
            "--seed", str(seed), "--seconds", "0", "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    digests = re.findall(r"^digest: (\w+)$", proc.stdout, re.MULTILINE)
    assert digests == [JET_SCALING_DIGESTS[seed]]
    assert '"failed": 0' in proc.stdout
