"""Importing the package stays cheap.

sympy is imported only inside ``verify_mapping``, and scipy only by tests.
subprocess is imported only when the compiled loop is first built, so no
compiler starts at import. The check runs in a fresh interpreter, because
this test session has already imported all three.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_neither_sympy_nor_scipy():
    code = (
        "import sys, ptc_lab, ptc_lab.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules}"
        " & {'sympy', 'scipy', 'subprocess'}))"
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
