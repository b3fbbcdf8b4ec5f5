"""Runtime import hygiene: the package and its CLI never load oracle-only code."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_runtime_imports_leave_numpy_and_the_oracles_out():
    probe = ("import json, sys, twistedgl, twistedgl.cli; "
             "print(json.dumps([m for m in ('numpy', 'twistedgl.oracles') "
             "if m in sys.modules]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert json.loads(out) == []
