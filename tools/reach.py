"""List the lines of ``src/dirpareto`` that the CLI goldens and the gallery
never execute.

    python tools/reach.py                 # the CLI goldens and the gallery entries
    python tools/reach.py --perfbench 31  # and one pass of each perfbench workload, seed 31

A ``sys.settrace`` probe, standard library only.  It imports the package
from ``src/`` under the trace, runs every fixture of ``tests/cli_golden``
through ``cli.main`` and every gallery entry through ``examples run``
(reports go to a temporary directory), and with ``--perfbench`` builds each
workload of ``perfbench/`` at the given seed and calls each of its queries
once.  A line counts as executable when the compiled module maps an
instruction to it, and as reached when the trace saw it run (a ``def`` line
also when its function was called).  The unreached lines are printed as
ranges per file, each with the text of its first line.  Nothing is written
under ``perfbench/`` or ``src/``: bytecode caching is off.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dirpareto"
GOLDEN = ROOT / "tests" / "cli_golden"
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("wl_gallery", "wl_lp", "wl_grid", "wl_cli")


def executable_lines(path: Path) -> set:
    """Every line that an instruction of the compiled file maps to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


class Probe:
    """Records (file, line) for every line run in a file of the package."""

    def __init__(self):
        self.prefix = str(PACKAGE) + "/"
        self.reached = set()

    def global_trace(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.prefix):
            return None
        self.reached.add((path, frame.f_code.co_firstlineno))
        return self.local_trace

    def local_trace(self, frame, event, arg):
        if event == "line":
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self.local_trace


def run_goldens(main, work: Path) -> None:
    for path in sorted(GOLDEN.glob("*.json")):
        fx = json.loads(path.read_text(encoding="utf-8"))
        problem = work / f"{path.stem}.problem.json"
        problem.write_text(json.dumps(fx["problem"]), encoding="utf-8")
        main([fx["command"], "--problem", str(problem), "--out", str(work / path.stem),
              *fx["flags"]])


def run_gallery(main, names, work: Path) -> None:
    for name in names:
        main(["examples", "run", name, "--out", str(work / "gallery" / name)])


def run_perfbench(dp, seed: int, work: Path) -> None:
    sys.path.insert(0, str(PERFBENCH))
    for name in WORKLOADS:
        wl = importlib.import_module(name).build(dp, seed, work / name)
        for q in wl.queries:
            if q.prepare is not None:
                q.prepare()
            try:
                q.call()
            except Exception:  # an error answer is a reached path like any other
                pass


def ranges(lines):
    """Sorted ints as (first, last) runs of consecutive numbers."""
    out = []
    for n in sorted(lines):
        if out and n == out[-1][1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--perfbench", type=int, metavar="SEED",
                    help="also run one pass of each perfbench workload at this seed")
    args = ap.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PACKAGE.parent))
    probe = Probe()
    sys.settrace(probe.global_trace)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            import dirpareto
            from dirpareto.cli import main as cli_main
            from dirpareto.gallery import gallery_names
            run_goldens(cli_main, Path(tmp))
            run_gallery(cli_main, gallery_names(), Path(tmp))
            if args.perfbench is not None:
                run_perfbench(dirpareto, args.perfbench, Path(tmp) / "perfbench")
    finally:
        sys.settrace(None)

    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = {n for n in lines if (str(path), n) not in probe.reached}
        total += len(lines)
        unreached += len(missed)
        text = path.read_text(encoding="utf-8").splitlines()
        for first, last in ranges(missed):
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"{path.relative_to(ROOT)}:{span}  {text[first - 1].strip()}")
    print(f"{unreached} of {total} executable lines never executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
