"""numpy is the only declared numeric dependency: the package must import
and run with scipy unavailable, even where scipy is installed."""

import json
import os
import subprocess
import sys

import beurling

SCRIPT = """
import importlib, pkgutil, runpy, sys
sys.modules["scipy"] = None  # any import of scipy or of a submodule now fails
import beurling
for info in pkgutil.iter_modules(beurling.__path__):
    if info.name != "__main__":  # the entry point runs below
        importlib.import_module("beurling." + info.name)
sys.argv = ["beurling", "verify", "example-2.4"]
runpy.run_module("beurling", run_name="__main__")
"""


def test_every_module_and_verify_run_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(beurling.__file__)))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)[0]["passed"] is True
