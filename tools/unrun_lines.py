"""Print each line of ``src/densevoc`` that no tier-1 test runs.

Runs the test suite in this process under ``sys.settrace``, leaving out the
criterion-11 performance tests (they repeat, at scale, code that other tests
run), and prints ``path:line: source`` for every line that holds code and
never ran. Lines run only inside worker processes (``--jobs`` above 1) are
not seen. Standard library only; the script always exits 0, since the list
is a report, not a gate::

    PYTHONPATH=src python tools/unrun_lines.py
"""

from __future__ import annotations

import dis
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "densevoc"


def code_lines(path: Path) -> set[int]:
    """The lines where the bytecode of some code object in the file starts a line."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # a module starts at line 0
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def main() -> int:
    ran: dict[str, set[int]] = {os.path.realpath(p): set() for p in SRC.glob("*.py")}
    traced: dict[str, set[int] | None] = {}  # co_filename -> the lines run in that file, None outside src/

    def on_line(frame, event, arg):
        if event == "line":
            traced[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            traced[name] = ran.get(os.path.realpath(name))
        return None if traced[name] is None else on_line

    threading.settrace(on_call)
    sys.settrace(on_call)  # before the tests import densevoc, so its module-level lines count
    try:
        status = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", "-k", "not criterion_11"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = []
    for name, lines in sorted(ran.items()):
        path = Path(name)
        source = path.read_text().splitlines()
        rel = path.relative_to(os.path.realpath(ROOT))
        unrun += [f"{rel}:{n}: {source[n - 1].strip()}" for n in sorted(code_lines(path) - lines)]
    print(f"\n{len(unrun)} lines of src/densevoc that no test runs (pytest exit status {int(status)}):")
    print("\n".join(unrun))
    return 0


if __name__ == "__main__":
    sys.exit(main())
