"""Line census: the lines of src/ngd that the tier-1 suite never runs.

    python tests/line_census.py [pytest arguments]

runs the tier-1 suite in this process under `sys.settrace`, then prints,
module by module, every executable line of src/ngd that never ran, with
the reason EXPLAINED gives for it, and exits 1 if some line has none.

The tracer sees this process only, so a line that the tests reach only
through a `python -m ngd.cli` subprocess counts as not run; EXPLAINED
says so for each.  Tracing about doubles the suite's wall time, which is
why this is a script and not a test: pytest collects only test_*.py.
Wall-clock budgets in the suite may fail under the tracer; the census
does not depend on them.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ngd"

# module -> {a fragment of a line's source: why that line may stay unrun}
EXPLAINED = {
    "cli.py": {
        "sys.exit(main())":
            "the console-script guard; tests start it as a subprocess",
        "except BrokenPipeError":
            "a closed stdout pipe; tested through a subprocess",
        "os.dup2(os.open(os.devnull":
            "a closed stdout pipe; tested through a subprocess",
    },
    "dsl.py": {
        'raise TypeError(f"not a term node: {node!r}")':
            "defensive: only a hand-built syntax tree reaches it",
    },
}


def executable_lines(path: Path) -> set:
    """The lines of path that hold code, less each function's header
    line, which runs when the function is defined."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        own = {line for _, _, line in code.co_lines() if line is not None}
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(args) -> tuple:
    """(pytest's exit code, {file name: the lines of src/ngd that ran})."""
    ran = {}
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            local(frame, "line", None)
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(args) -> int:
    code, ran = traced_run(args or [str(ROOT / "tests")])
    unexplained = total = 0
    print(f"\npytest exit code {code}\n")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(str(path), set()))
        total += len(lines)
        print(f"{path.name}: {len(missed)} of {len(lines)} executable "
              f"lines not run")
        reasons = EXPLAINED.get(path.name, {})
        for line in missed:
            text = source[line - 1].strip()
            why = next((w for frag, w in reasons.items() if frag in text),
                       None)
            unexplained += why is None
            print(f"  {line:4d}  {text}\n        -> {why or 'UNEXPLAINED'}")
    print(f"\n{total} executable lines; {unexplained} not run and "
          f"unexplained")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
