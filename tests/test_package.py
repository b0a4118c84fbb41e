import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import radspec
from radspec import analysis, frobenius, spectrum

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_all_names_resolve_and_match_module_lists():
    assert all(hasattr(radspec, name) for name in radspec.__all__)
    modules = analysis.__all__ + frobenius.__all__ + spectrum.__all__
    assert len(set(modules)) == len(modules)
    assert set(radspec.__all__) == set(modules)


def test_no_module_imports_a_private_spectrum_name():
    # the eigenvalue stage has one entry point, spectrum.eigenvalues
    paths = [path for path in (SRC / "radspec").glob("*.py") if path.stem != "spectrum"]
    assert {path.stem for path in paths} >= {"analysis", "checks", "cli"}
    private = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level, node.module) in ((1, "spectrum"), (0, "radspec.spectrum"))):
                private += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert private == []


def test_routes_share_no_module():
    # the exact and the numeric route are independent: neither imports the other
    for route, other in (("frobenius", "spectrum"), ("spectrum", "frobenius")):
        for node in ast.walk(ast.parse((SRC / "radspec" / f"{route}.py").read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                dotted = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                assert other not in {part for name in dotted for part in name.split(".")}, \
                    (route, ast.unparse(node))


def test_cli_import_does_not_load_scipy():
    # the runtime dependencies are numpy and click only; mpmath and sympy may be
    # installed alongside, but the library must not import them; the Gauss-Legendre
    # rule is stored, so numpy.polynomial is not imported either
    probe = ("import sys, radspec.cli; "
             "print(sorted({'scipy', 'mpmath', 'sympy', 'numpy.polynomial'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_readme_library_example_runs():
    # the README must not keep a name the package dropped
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
