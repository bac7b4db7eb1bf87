"""The package surface: what ``import magicswitch`` loads and exports."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import magicswitch

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def fresh_modules(code):
    """The ``magicswitch`` submodules a fresh interpreter holds after ``code``."""
    src = str(Path(magicswitch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.startswith('magicswitch.')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_import_does_not_load_multiprocessing():
    # A sweep runs in one process: neither importing the package nor running
    # a sweep or a threshold search through the CLI loads a process pool.
    src = str(Path(magicswitch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"""
import sys, magicswitch
def pools():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent"))
print(pools())
from magicswitch import cli
for argv in (["fig2", "--grid", "0:0.02:0.01"], ["figs1", "--grid", "0.01:0.03:0.01"],
             ["threshold", "--measure", "fig2_channel_robustness", "--bracket", "0.2:0.4"]):
    assert cli.main(["-q", *argv, "--out", {os.devnull!r}]) == 0, argv
print(pools())
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_public_api_matches_readme():
    text = README.read_text()
    section = text.split("### Public API", 1)[1].split("\n#", 1)[0]
    documented = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section))
    assert documented == set(magicswitch.__all__)
    assert len(magicswitch.__all__) == len(set(magicswitch.__all__))


def test_bare_import_loads_no_submodule():
    assert fresh_modules("import magicswitch") == "[]"


def test_setup_probe_skips_the_sweep_layer_and_the_cli():
    # The benchmark's set-up probe calls rom_state, channel_robustness and
    # mana_state through the package namespace; none of them needs the sweep
    # layer or the CLI, so a process that only asks for them compiles neither.
    loaded = fresh_modules(f"from perfbench.setup_probe import main; main({str(ROOT / 'src')!r})")
    for name in ("experiments", "qswitch", "cli"):
        assert f"'magicswitch.{name}'" not in loaded
    assert "'magicswitch.lp'" in loaded and "'magicswitch.phasespace'" in loaded


def test_submodule_resolves_after_a_bare_import():
    loaded = fresh_modules("import magicswitch; print(magicswitch.lp.__name__)")
    assert "'magicswitch.lp'" in loaded and "'magicswitch.experiments'" not in loaded


def test_public_names_are_their_home_objects():
    for name, home in magicswitch._HOMES.items():
        assert getattr(magicswitch, name) is getattr(importlib.import_module(f"magicswitch.{home}"), name)


def test_star_import_binds_all_and_dir_lists_it():
    namespace = {}
    exec("from magicswitch import *", namespace)
    assert set(magicswitch.__all__) <= set(namespace)
    assert set(magicswitch.__all__) <= set(dir(magicswitch))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        magicswitch.no_such_name
    assert not hasattr(magicswitch, "no.such.module")


# ---------------------------------------------------------------------------
# Private names: one home per test seam
# ---------------------------------------------------------------------------

SUBMODULES = {info.name for info in pkgutil.iter_modules(magicswitch.__path__)}
BY_NAME = {"setattr", "setitem", "delattr", "delitem", "getattr", "spy"}  # calls naming an attribute in a string


def _private(name):
    return isinstance(name, str) and name.startswith("_") and not name.endswith("__")


def private_reaches(path):
    """``(line, rule)`` where test file ``path`` reaches a private package
    name: "attribute", one of a module not the file's own (``<name>`` or
    ``_<name>`` for ``test_<name>.py``, the package ``""`` for
    ``test_package.py``) read or imported; "by name", one named in a string
    to a monkeypatch, ``getattr`` or ``spy`` call."""
    tree, stem = ast.parse(path.read_text()), path.stem.removeprefix("test_")
    own = "" if stem == "package" else next((m for m in (stem, "_" + stem) if m in SUBMODULES), None)
    modules, reaches = {}, set()  # local name -> the package ("") or a submodule
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "magicswitch":
                    modules[alias.asname or "magicswitch"] = parts[-1] if alias.asname else ""
                    if any(_private(part) and part != own for part in parts[1:]):
                        reaches.add((node.lineno, "attribute"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "magicswitch":
            home = node.module.partition(".")[2]
            for alias in node.names:
                target = alias.name if not home and alias.name in SUBMODULES else home
                if target != home:  # a submodule, imported whole
                    modules[alias.asname or alias.name] = target
                if _private(alias.name) and target != own:
                    reaches.add((node.lineno, "attribute"))

    def module_of(node):
        if isinstance(node, ast.Attribute) and module_of(node.value) == "" and node.attr in SUBMODULES:
            return node.attr
        return modules.get(node.id) if isinstance(node, ast.Name) else None

    def rooted(node):  # whether the object is reached through a package module
        if isinstance(node, ast.Call):
            return rooted(node.func) or any(map(rooted, node.args))
        return rooted(node.value) if isinstance(node, (ast.Attribute, ast.Subscript)) else module_of(node) is not None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and module_of(node.value) not in (None, own):
            reaches.add((node.lineno, "attribute"))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in BY_NAME:
            args = [getattr(arg, "value", None) for arg in node.args]
            dotted = any(isinstance(a, str) and a.startswith("magicswitch.") and "._" in a for a in args)
            if dotted or any(rooted(target) and _private(name) for target, name in zip(node.args, args[1:])):
                reaches.add((node.lineno, "by name"))
    return sorted(reaches)


def test_private_seams_live_in_conftest():
    # A private package name a test needs has one home, a helper in
    # conftest.py, so that renaming or moving it edits one line there.  No
    # test patches one by name but the private kernel's own suite.
    found = [
        f"{path.name}:{line} ({rule})"
        for path in sorted((ROOT / "tests").glob("*.py")) if path.name != "conftest.py"
        for line, rule in private_reaches(path) if rule == "attribute" or path.name != "test_simplex.py"
    ]
    assert found == []
