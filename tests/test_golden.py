"""Byte-for-byte regression of the command-line outputs.

``golden_cli.json`` holds, for every packaged fixture, the exit code and
standard output of ``fmt``, ``adjoint``, ``check-nsa``, ``determining``,
``check-symmetry --symmetry S``, ``conslaw --symmetry S --normalize`` and
``conslaw --symmetry S --json`` (S is the fixture's declared symmetry),
plus ``catalog verify --json``.  The file is a fixed record: refactors of
the engine must reproduce it exactly, so no test ever rewrites it.
"""

import json
from pathlib import Path

from nsakit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden_cli.json"


def test_cli_outputs_match_golden_record(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) == 15 * 7 + 1
    for case in cases:
        code = main(list(case["argv"]))
        got = {"argv": case["argv"], "exit": code, "stdout": capsys.readouterr().out}
        assert got == case
