"""List the function-body lines of ``src/hamfactor`` that the tier-1 suite never runs.

Usage, from the repository root::

    python tests/unrun_lines.py [pytest arguments]

The script runs the suite in this process (the tier-1 pytest options, then
any arguments given) under a ``sys.settrace`` hook that follows only frames
of files under ``src/hamfactor``. It then prints ``file:line: source`` for
every line inside a function, lambda or comprehension body that never ran,
and a count. Module and class bodies are not listed. Code that runs only in
a subprocess the suite starts (``perfbench``'s runs, the CLI import probe)
is not counted. pytest does not collect this file: its name does not match
``test_*.py``. It exits with pytest's status.
"""

from __future__ import annotations

import inspect
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hamfactor"


def body_lines(path: Path) -> set[int]:
    """Line numbers that carry instructions of a function body in ``path``, def lines excluded."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(const for const in code.co_consts if inspect.iscode(const))
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines() if line is not None and line != code.co_firstlineno)
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import hamfactor
    import pytest

    if Path(hamfactor.__file__).parent != PACKAGE:
        raise SystemExit(f"hamfactor imported from {hamfactor.__file__}, not {PACKAGE}")

    prefix = str(PACKAGE) + "/"
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = body_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in ran:
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} of {total} function-body lines in {PACKAGE.relative_to(ROOT)} never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
