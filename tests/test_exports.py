"""Every exported name exists, the package re-exports only exported names, the
README's library example runs against the source tree and its commands parse."""
import ast
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import critwin
from critwin import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(critwin.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"critwin.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_only_names_in_their_modules_all():
    tree = ast.parse(Path(critwin.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"critwin.{node.module}")
        missing = [a.name for a in node.names if a.name not in module.__all__]
        assert missing == [], node.module


def test_readme_library_example_runs():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_readme_commands_parse():
    # a README example naming a removed flag or command fails here, unrun
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```bash\n(.*?)```", readme, flags=re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    argvs = (shlex.split(line, comments=True) for line in lines)
    commands = [argv[1:] for argv in argvs if argv[:1] == ["critwin"]]
    assert {argv[0] for argv in commands} == {
        "verify", "simulate-graph", "simulate-chain", "continuum"
    }
    parser = cli._build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: critwin {shlex.join(argv)}")
