"""The package surface: what ``import magicswitch`` loads and exports."""

import importlib
import os
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
    # Only a parallel sweep needs the process pool, and it imports it then.
    src = str(Path(magicswitch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, magicswitch; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
