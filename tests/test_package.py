"""The package surface: what ``import magicswitch`` loads and exports."""

import os
import re
import subprocess
import sys
from pathlib import Path

import magicswitch

README = Path(__file__).resolve().parents[1] / "README.md"


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
