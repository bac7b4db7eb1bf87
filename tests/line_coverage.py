"""Line-coverage gate for ``src/magicswitch``, on the standard library alone.

Runs tier-1 (``pytest -q --continue-on-collection-errors`` from the repository
root) in this process under ``sys.settrace``, and fails when tier-1 fails or
when a line of the package that can run was left unrun and is not in
``ALLOWED``.  A line can run when a code object compiled from its file maps
an instruction to it (``co_lines``).  Tests that start a subprocess are not
counted.  Neither is anything run while ``tracemalloc`` traces: recording a
line allocates memory, which a test that reads its peak would see.

    python tests/line_coverage.py

An ``ALLOWED`` entry is keyed by file name and by the line's source text,
stripped, so an edit elsewhere in the file does not move it; its value says
why no input reaches the line.  An entry that names no unrun line fails the
gate too, so the list only shrinks.  pytest does not collect this file.
"""

import os
import sys
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "magicswitch"

ALLOWED = {
    ("_simplex.py", "return SimplexResult(status, np.zeros(n), np.nan, np.zeros(m), it0 + it1)"):
        "phase 1 starts at the dual repair's primal feasible basis and minimizes the sum of the artificials, "
        "which is bounded below by 0, under Bland's rule, which cannot cycle: it ends optimal",
}


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
    total, unrun, allowed = 0, [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - {n for f, n in ran if f == str(path)}):
            text = source[line - 1].strip()
            (allowed if (path.name, text) in ALLOWED else unrun).append((path.name, line, text))
    stale = set(ALLOWED) - {(name, text) for name, _, text in allowed}

    print(f"line coverage: {total - len(unrun) - len(allowed)} of {total} executable lines of "
          f"{PACKAGE.relative_to(ROOT)} ran; {len(allowed)} allowed unrun")
    for name, line, text in unrun:
        print(f"unrun and not allowed: {name}:{line}: {text}")
    for name, text in sorted(stale):
        print(f"allowed, but no unrun line of {name} reads: {text}")
    if status != 0:
        print(f"tier-1 failed under the tracer: pytest exit code {int(status)}")
    return 1 if unrun or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
