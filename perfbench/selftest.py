"""Self-test of the benchmark itself (takes a few minutes).

    python3 perfbench/selftest.py

Checks that
  * the deterministic counts repeat exactly across two traced runs at one seed,
    on every workload;
  * a different seed changes the generated inputs (gallery excepted: frozen);
  * all sixteen gallery runs reproduce their frozen reports, with no failure;
  * every run prints exactly the metrics BENCHMARK.json names.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    p = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"FAIL {workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    counts = next((json.loads(ln.split(":", 1)[1]) for ln in lines
                   if ln.startswith("deterministic counts:")), None)
    return json.loads(lines[-1]), counts, p.stdout


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        raise SystemExit(1)


def fingerprints(seed):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import importlib

    import dirpareto
    import run as bench
    out = {}
    for name, module in bench.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            wl = importlib.import_module(module).build(dirpareto, seed, Path(tmp) / "w")
            out[name] = wl.fingerprint()
    return out


def main() -> int:
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    names = [w["name"] for w in SPEC["workloads"]]

    a, b = fingerprints(1), fingerprints(2)
    for name in names:
        if name == "gallery":
            expect(a[name] == b[name], "gallery inputs are frozen (seed-independent)")
        else:
            expect(a[name] != b[name], f"{name}: seed 2 generates other inputs than seed 1")

    for name in names:
        r1, c1, out1 = run(name, 7, 1)
        r2, c2, _ = run(name, 7, 1)
        expect(set(r1["metrics"]) == per_layer, f"{name}: traced run prints the per_layer metrics")
        expect(c1 == c2, f"{name}: deterministic counts repeat at one seed {c1}")
        if name == "gallery":
            expect(r1["failed"] == 0 and "frozen runs: 16" in out1
                   and "known seed-state failures 0" in out1,
                   "gallery: all 16 frozen runs reproduce, nothing fails")
            # 1 at the seed state (set-curve-halfplane L-arc: samples 0, no
            # note); flagging it is a fix, not a failure
            expect(c1["certify.vacuous_unflagged"] in (0, 1),
                   f"gallery: certify.vacuous_unflagged = {c1['certify.vacuous_unflagged']}")
        r0, _, _ = run(name, 7, 0)
        expect(set(r0["metrics"]) == end_to_end, f"{name}: untraced run prints the end_to_end metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
