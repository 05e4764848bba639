"""Run a Python command in this process under a line tracer and print, for
each module of ``src/sphenergy``, the executable lines that never ran.

The command is what ``python`` itself would take, a module after ``-m`` or
a script path, with its arguments:

    PYTHONPATH=src python3 tools/linetrace.py -m pytest -q
    PYTHONPATH=src python3 tools/linetrace.py tests/test_golden.py --fingerprint

The tracer is installed with ``sys.settrace`` and ``threading.settrace``
before the command starts, so it sees the package's imports too.  Child
processes are not traced: lines that only a subprocess runs (the CLI tests
start ``python -m sphenergy.cli``) are reported as never run.  A module's
executable lines are those its compiled code objects, nested ones included,
map bytecode to (``co_lines``).  The report follows the command's own
output, and the tool exits with the command's status.  Tracing about
doubles the command's time.  Standard library only; no options of its own.
"""

import os
import runpy
import sys
import threading
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sphenergy"


def executable_lines(path: Path) -> set[int]:
    """The lines that the compiled code objects of the file map bytecode to."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def spans(lines: list[int]) -> str:
    """Ascending line numbers as comma-separated runs: 1-3, 7, 9-10."""
    runs = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> None:
    if not argv or argv == ["-m"]:
        sys.exit(__doc__)
    ran = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
    seen = {}  # co_filename -> the set of lines run in that file, or None

    def lines_of(filename):
        if filename not in seen:
            seen[filename] = ran.get(os.path.realpath(filename))
        return seen[filename]

    def trace(frame, event, arg):
        hits = lines_of(frame.f_code.co_filename)
        if hits is None:
            return None
        hits.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    # As python itself sets them: sys.path[0] is the current directory for
    # -m and the script's directory for a script.
    module = argv[0] == "-m"
    sys.argv = argv[1:] if module else argv
    sys.path[0] = os.getcwd() if module else os.path.dirname(os.path.abspath(argv[0]))
    status = 0
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        if module:
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        status = exc.code
    finally:
        sys.settrace(None)
        threading.settrace(None)
        total = 0
        print("executable lines of src/sphenergy never run:")
        for path, hits in ran.items():
            missed = sorted(executable_lines(Path(path)) - hits)
            total += len(missed)
            print(f"  {Path(path).name:16} {len(missed):4}  {spans(missed)}".rstrip())
        print(f"  {'total':16} {total:4}")
    sys.exit(status)


if __name__ == "__main__":
    main(sys.argv[1:])
