import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import uotpool
from uotpool import learning, numerics, pooling, solvers

SUBMODULES = (learning, numerics, pooling, solvers)


def test_all_is_union_of_submodule_lists():
    expected = [name for mod in SUBMODULES for name in mod.__all__] + ["__version__"]
    assert len(set(expected)) == len(expected)
    assert sorted(uotpool.__all__) == sorted(expected)
    for name in uotpool.__all__:
        assert getattr(uotpool, name) is not None


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_imports_across_modules():
    offenders = []
    for path in sorted(Path(uotpool.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "uotpool":
                continue
            offenders += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if _is_private(alias.name)]
    assert offenders == []


def test_readme_example_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {})


def test_import_does_not_load_scipy():
    # scipy is a test oracle only; importing the package and its CLI must not pull it in.
    code = ("import sys, uotpool, uotpool.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(Path(uotpool.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
