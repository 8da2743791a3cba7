"""The benchmark's own tests: its answer key and its tracing.

Usage: python3 perfbench/selfcheck.py     (from the root of a source tree)

1. The Witt dimension used for the abelian answers agrees with a brute-force
   count of Lyndon words (aperiodic necklaces).
2. Every pinned multiplier answer is re-derived by running `baerkit` at the
   detected class bound k and again at `--class-bound k+1`.
3. Results known in closed form: the Schur multiplier of a dihedral group of
   order 2^m (m >= 3) is Z2, and by the Kuenneth formula
   M(D8 x Z2) = M(D8) + M(Z2) + (D8^ab (x) Z2) = Z2^3.
4. Two traced workers on the same input count the same operations.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from workloads import D8_X_Z2, WORKLOADS, dihedral, multiplier, render, witt

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def lyndon_count(k: int, m: int) -> int:
    """Words of length m over k letters strictly smaller than every proper
    rotation."""
    return sum(
        all(w < w[i:] + w[:i] for i in range(1, m))
        for w in itertools.product(range(k), repeat=m)
    )


def run_worker(job, workdir: Path, trace: bool = False) -> dict:
    path = workdir / f"{job.name}.grp"
    path.write_text(render(job, random.Random(0)), encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "1" if trace else "0",
         *job.argv(str(path))],
        capture_output=True, text=True, env=ENV, cwd=ROOT, check=True, timeout=600,
    ).stdout
    return json.loads(out.splitlines()[-1])


def fields(report: dict) -> dict[str, str]:
    return dict(line.split("=", 1) for line in report["output"].splitlines())


def main() -> int:
    failures = 0

    def check(ok: bool, what: str):
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)

    for k, m in [(2, 4), (3, 4), (4, 3), (4, 4), (3, 5)]:
        check(witt(k, m) == lyndon_count(k, m), f"witt({k},{m}) = {witt(k, m)}")

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        workdir = Path(tmp)
        pinned = [
            job for name in ("dihedral-deep", "abelian-wide")
            for job in WORKLOADS[name] if job.groups[0].name.startswith("D")
        ]
        closed_form = [
            multiplier(dihedral(8), 1, (2,)),
            multiplier(dihedral(16), 1, (2,)),
            multiplier(D8_X_Z2, 1, (2, 2, 2)),
        ]
        for job in pinned + closed_form:
            want = ",".join(map(str, job.torsion))
            first = fields(run_worker(job, workdir))
            check(first["torsion"] == want,
                  f"{job.name}: torsion {first['torsion']} (k={first['class_bound']})")
            if job in closed_form:
                continue
            k = int(first["class_bound"])
            again = fields(run_worker(replace(job, class_bound=k + 1), workdir))
            check(again["torsion"] == want,
                  f"{job.name}: torsion {again['torsion']} at --class-bound {k + 1}")

        job = WORKLOADS["semidirect-verify"][0]
        a, b = (run_worker(job, workdir, trace=True)["trace"] for _ in range(2))
        check(a["calls"] == b["calls"] and a["counts"] == b["counts"],
              f"{job.name}: traced operation counts repeat")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
