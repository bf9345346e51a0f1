"""Self-test of the input generators.

For each workload: one seed must give byte-identical inputs twice, two
seeds must give different inputs, and generating must not call any layer
the benchmark traces (solver, bounds, heuristics, search, memo, service).
``run.py`` runs :func:`check` for its own workload and seed on every run;
``python3 perfbench/selftest.py`` checks all workloads on a few seeds.
"""

from __future__ import annotations

import os
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [p for p in (SRC, HERE) if p not in sys.path]

import gen  # noqa: E402
import tracing  # noqa: E402


def check(workload: str, seed: int, seconds: float) -> List[str]:
    """Problems found with the generator of ``workload`` (empty if none)."""
    recorder = tracing.Recorder()
    generate = gen.GENERATORS[workload]
    with tracing.install(recorder, service=True):
        first = generate(seed, seconds)
        again = generate(seed, seconds)
        other = generate(seed + 1, seconds)
    problems = []
    if gen.digest(first) != gen.digest(again):
        problems.append(f"{workload}: seed {seed} gave different inputs twice")
    if gen.digest(first) == gen.digest(other):
        problems.append(f"{workload}: seeds {seed} and {seed + 1} agree")
    called = sorted({span[3] for span in recorder.spans})
    if called:
        problems.append(f"{workload}: generation called {', '.join(called)}")
    return problems


def main() -> int:
    problems = []
    for workload in gen.WORKLOADS:
        for seed in (0, 1, 12345):
            problems += check(workload, seed, seconds=5.0)
    for problem in problems:
        print(problem)
    print("generator self-test:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
