"""Importing the package stays light: ``dataclasses`` alone pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``, about 0.6 MB and several
milliseconds per fresh interpreter, which every CLI call pays; ``json``
is loaded only when a report is rendered as JSON."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ["dataclasses", "inspect", "json"]


def test_import_does_not_load_dataclasses_or_inspect():
    # the probe itself must not import json
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import qcongruence; "
            f"print(repr([m for m in {HEAVY!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
