"""Self-test of the traced run: trace tiny inputs twice and require every
work counter (``*.calls``, ``*.unknowns``, ``*.cells``, ``*.builds``) to
repeat exactly.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  Exit code 0 when the counters repeat.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import run
import tracer
import workloads

COUNTED = (".calls", ".unknowns", ".cells", ".builds")


def counters(inputs: list[tuple[str, ...]], workdir: Path) -> dict:
    traces = []
    for i, args in enumerate(inputs):
        out = workdir / f"trace-{i}.json"
        res = run.invoke(run.traced_cli(out, args), workdir, traced=True)
        if res.rc not in (0, 2) or not out.is_file():
            raise SystemExit(f"traced invocation {' '.join(args)} failed with exit code {res.rc}")
        traces.append(json.loads(out.read_text()))
    return {name: value for name, (value, _) in tracer.summarize(traces).items() if name.endswith(COUNTED)}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as work:
        workdir = Path(work)
        spec = workdir / "C3.json"
        spec.write_text(json.dumps(workloads.strat_algebra("C", 3, random.Random(0))))
        # The hw fixtures go through the corpus thread pool; C_3 over Q through
        # the eps routes (strat, analyze, homological).
        inputs = [("corpus", "--filter", "hw"), ("check", str(spec), "--mode", "eps")]
        first, second = counters(inputs, workdir), counters(inputs, workdir)
    moved = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    for name, value in first.items():
        print(f"{name} = {value}{'  MOVED to %s' % second[name] if name in moved else ''}")
    if moved or not any(first.values()):
        print(f"FAIL: {len(moved)} counters differ between two traces of the same input")
        return 1
    print(f"OK: {len(first)} counters repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
