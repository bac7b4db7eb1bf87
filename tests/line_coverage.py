"""Line-coverage gate for ``src/magicswitch``, on the standard library alone.

Runs tier-1 (``pytest -q --continue-on-collection-errors`` from the repository
root) in this process under ``sys.settrace``, and fails when tier-1 fails or
when a line of the package that can run was left unrun: every line must
run.  A line can run when a code object compiled from its file maps an
instruction to it (``co_lines``).  Tests that start a subprocess are not
counted.  Neither is anything run while ``tracemalloc`` traces: recording a
line allocates memory, which a test that reads its peak would see.

    python tests/line_coverage.py

pytest does not collect this file.
"""

import os
import sys
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "magicswitch"


def executable_lines(path: Path) -> set:
    """The lines of ``path`` that some code object compiled from it runs."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def run_traced(args: list) -> tuple:
    """pytest's exit code for ``args``, run in process, and the (file, line)
    pairs of the package that ran."""
    prefix = f"{PACKAGE}{os.sep}"
    ran = set()

    def on_line(frame, event, arg):
        if event == "line" and not tracemalloc.is_tracing():
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        if tracemalloc.is_tracing() or not frame.f_code.co_filename.startswith(prefix):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return status, ran


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    status, ran = run_traced(["-q", "--continue-on-collection-errors"])
    total, unrun = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - {n for f, n in ran if f == str(path)}):
            unrun.append((path.name, line, source[line - 1].strip()))

    print(f"line coverage: {total - len(unrun)} of {total} executable lines of {PACKAGE.relative_to(ROOT)} ran")
    for name, line, text in unrun:
        print(f"unrun: {name}:{line}: {text}")
    if status != 0:
        print(f"tier-1 failed under the tracer: pytest exit code {int(status)}")
    return 1 if unrun or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
