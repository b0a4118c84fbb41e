import os
import subprocess
import sys
from pathlib import Path

import radspec
from radspec import analysis, frobenius, spectrum

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_names_resolve_and_match_module_lists():
    assert all(hasattr(radspec, name) for name in radspec.__all__)
    modules = analysis.__all__ + frobenius.__all__ + spectrum.__all__
    assert len(set(modules)) == len(modules)
    assert set(radspec.__all__) == set(modules)


def test_cli_import_does_not_load_scipy():
    # the runtime dependencies are numpy and click only
    probe = "import sys, radspec.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
