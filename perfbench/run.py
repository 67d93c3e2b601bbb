"""stratakit benchmark: seeded CLI workloads, end-to-end timing, a traced run per layer.

    python3 perfbench/run.py --workload corpus|path-gf3|strat-q --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it measures the ``src/`` tree of that
checkout.  It drives the CLI the way a user does: one fresh interpreter per
invocation, in a closed loop with one client.  A workload is a fixed list of
invocations (a pass, see workloads.py); the run repeats the pass while
another one fits in S seconds, and always makes one.

With ``--trace 0`` it reports the end-to-end metrics:

  setup_s      median wall time of a fresh interpreter importing stratakit.cli
  wall_s       wall time of a pass: the sum over its invocations of each one's
               mean over the run's passes
  cpu_s        the same for user+sys CPU time
  op_p50_s     median over the pass's invocations of each one's mean wall time
  peak_rss_mb  largest max RSS of one invocation

The four times are scaled to the speed of a quiet host.  On a shared host
the same code runs up to twice as slowly while another tenant loads the
core, in spells that last from a fraction of a second to minutes.  So the
benchmark and its children share one CPU, and a fixed kernel (probe.py) is
timed before and after every timed child and every PROBE_EVERY_S while it
runs, with the child stopped meanwhile.  Each time is multiplied by
probe.REFERENCE_S over the run's mean probe time.  Means, not medians, go
into the scaling: a spell that slows a share of the run slows the mean of
both the program and the probe by that share.

With ``--trace 1`` it makes one plain pass and one pass under tracer.py, and
reports the per-layer metrics of the traced pass plus its overhead.

Every report is checked (see ``problem``); an invocation that fails a check
counts in ``failed``.  Human-readable lines go first; the last line of
standard output is the JSON result.  Exit code 2 means the benchmark could
not measure the checkout at all, and no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import probe
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ENTRY = "import sys; from stratakit.cli import main; sys.exit(main())"  # the console script
SETUP = "import stratakit.cli, stratakit; print(stratakit.__file__)"
# Cold starts per run: some before the first pass, more after each pass, so
# that setup_s samples the whole run rather than its first seconds.
SETUP_FIRST, SETUP_PER_PASS = 3, 2
DEADLINE_S = 120.0       # per invocation
PROBE_EVERY_S = 0.5      # host speed probes while a timed child runs
RUN_LIMIT_S = 150.0      # no new pass starts after this


class BenchError(RuntimeError):
    """The checkout cannot be measured."""


@dataclass
class Result:
    wall: float
    cpu: float
    rss_mb: float
    rc: int | None       # None: killed at the deadline
    stdout: str


def child_env(traced: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "STRATAKIT_SEED"}
    env["PYTHONPATH"] = str(SRC)
    if traced:
        # Set iteration order decides a few hundred Poset.leq calls; fixing the
        # hash seed makes every traced counter repeat exactly.
        env["PYTHONHASHSEED"] = "0"
    return env


def invoke(argv: list[str], workdir: Path, traced: bool = False, probes: list | None = None) -> Result:
    """Run one child to completion; wall time, its own rusage, exit code and stdout.

    With ``probes``, the host speed is probed before and after the child and
    while it runs (see ``probe_while_running``); the time the child spent
    stopped for that is not counted in its wall time.
    """
    out_path = workdir / "stdout"
    paused = 0.0
    if probes is not None:
        probes.append(probe.probe())
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, cwd=ROOT,
                                env=child_env(traced))
        # The child is reaped only after the timer has stopped, so the timer
        # can never signal a recycled pid.
        timer = threading.Timer(DEADLINE_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            if probes is None:
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            else:
                paused = probe_while_running(proc.pid, probes)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            elapsed = time.perf_counter() - start
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
    if probes is not None:
        probes.append(probe.probe())
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = elapsed >= DEADLINE_S
    return Result(elapsed - paused, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  None if timed_out else proc.returncode, out_path.read_text(errors="replace"))


def probe_while_running(pid: int, probes: list) -> float:
    """Wait until the child exits, probing the host every PROBE_EVERY_S.

    The child is stopped while the probe runs, so the probe has the CPU the
    child runs on to itself and samples the speed the child was getting.
    Returns the time the child was stopped.
    """
    paused = 0.0
    fd = os.pidfd_open(pid)
    try:
        exited = select.poll()
        exited.register(fd, select.POLLIN)
        while not exited.poll(PROBE_EVERY_S * 1000):
            t = time.perf_counter()
            os.kill(pid, signal.SIGSTOP)
            info = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
            if info.si_code == os.CLD_STOPPED:
                probes.append(probe.probe())
            os.kill(pid, signal.SIGCONT)
            paused += time.perf_counter() - t
    finally:
        os.close(fd)
    return paused


def cli(args) -> list[str]:
    return [sys.executable, "-c", ENTRY, *args]


def traced_cli(trace_out: Path, args) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), str(trace_out), *args]


def verdicts(res: Result) -> dict | str:
    """The report's name -> verdict map, or why the output is not a sound report."""
    if res.rc is None:
        return f"overran the {DEADLINE_S:.0f} s deadline"
    if res.rc not in (0, 2):
        return f"exit code {res.rc}"
    try:
        report = json.loads(res.stdout)
        checks = report["checks"]
        summary = report["summary"]["verdict"]
        names = {c["name"]: c["verdict"] for c in checks}
    except (ValueError, KeyError, TypeError):
        return "stdout is not a report"
    if report.get("tool") != "stratakit" or len(names) != len(checks):
        return "stdout is not a report"
    for c in checks:
        if c["verdict"] == "ERROR" or (isinstance(c["witness"], dict) and "ROUTE-DISAGREEMENT" in c["witness"]):
            return f"{c['name']}: {c['verdict']} {json.dumps(c['witness'])[:200]}"
    if (res.rc == 0) != (summary == "PASS"):
        return f"exit code {res.rc} with summary {summary}"
    return names


def problem(res: Result, expect: dict | None) -> str | None:
    got = verdicts(res)
    if isinstance(got, str):
        return got
    if expect is None:
        return "no reference"
    if got != expect:
        diff = sorted(k for k in set(got) | set(expect) if got.get(k) != expect.get(k))
        return "verdicts differ from the reference: " + ", ".join(
            f"{k}={got.get(k)} (want {expect.get(k)})" for k in diff[:5])
    return None


def cold_start(workdir: Path, probes: list) -> float:
    """Wall time of a fresh interpreter importing stratakit.cli, from this checkout only."""
    res = invoke([sys.executable, "-c", SETUP], workdir, probes=probes)
    if res.rc != 0:
        raise BenchError(f"importing stratakit.cli failed with exit code {res.rc}")
    imported = Path(res.stdout.strip()).resolve()
    if SRC.resolve() not in imported.parents:
        raise BenchError(f"imported stratakit from {imported}, not from {SRC}")
    return res.wall


def identity() -> dict:
    """The commit when the checkout is a git tree, and a digest of the measured sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "stratakit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"stratakit": str(SRC / "stratakit"), "commit": commit, "src_sha256": digest.hexdigest()}


def references(calls, workdir: Path) -> list[dict | None]:
    """Expected verdicts per call; twin references come from an untimed GF(3) run."""
    out = []
    for call in calls:
        if call.twin is None:
            out.append(call.expect)
            continue
        got = verdicts(invoke(cli(call.twin), workdir))
        if isinstance(got, str):
            print(f"reference for {call.label} failed: {got}", file=sys.stderr)
            got = None
        out.append(got)
    return out


def run_pass(calls, refs, workdir: Path, failures: list, traced: bool = False,
             probes: list | None = None) -> tuple[list[Result], list[dict]]:
    results, traces = [], []
    for i, (call, ref) in enumerate(zip(calls, refs)):
        if traced:
            trace_out = workdir / f"trace-{i}.json"
            res = invoke(traced_cli(trace_out, call.args), workdir, traced=True)
            if trace_out.is_file():
                traces.append(json.loads(trace_out.read_text()))
        else:
            res = invoke(cli(call.args), workdir, probes=probes)
        why = problem(res, ref)
        if why is not None:
            failures.append(f"{call.label}: {why}")
        results.append(res)
    return results, traces


def measure(calls, refs, workdir: Path, seconds: float, failures: list, setups: list,
            probes: list) -> list[list[Result]]:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(calls, refs, workdir, failures, probes=probes)[0])
        setups += [cold_start(workdir, probes) for _ in range(SETUP_PER_PASS)]
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > min(seconds, RUN_LIMIT_S):
            return passes


def end_to_end(setups: list[float], passes: list[list[Result]], probes: list[float]) -> dict:
    """The end-to-end metrics, scaled to the speed of a quiet host (see probe.py)."""
    scale = probe.REFERENCE_S / statistics.mean(probes)
    per_call = list(zip(*passes))  # one tuple of results per invocation of the pass
    wall = [statistics.mean(r.wall for r in rs) for rs in per_call]
    cpu = [statistics.mean(r.cpu for r in rs) for rs in per_call]
    print(f"host_slowdown={1 / scale:.3f} probes={len(probes)} raw: setup_s={statistics.median(setups):.4f} "
          f"wall_s={sum(wall):.4f} cpu_s={sum(cpu):.4f}")
    return {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "wall_s": (sum(wall) * scale, "s"),
        "cpu_s": (sum(cpu) * scale, "s"),
        "op_p50_s": (statistics.median(wall) * scale, "s"),
        "peak_rss_mb": (max(r.rss_mb for rs in per_call for r in rs), "MB"),
    }


def source_lines() -> dict:
    pkg = SRC / "stratakit"
    out = {f"loc.{m}": (len((pkg / f"{m}.py").read_text().splitlines()) if (pkg / f"{m}.py").is_file() else 0,
                        "lines")
           for m in tracer.LAYERS}
    out["loc.src"] = (sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")), "lines")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[int, int, dict]:
    if not (SRC / "stratakit" / "cli.py").is_file():
        raise BenchError(f"no stratakit package under {SRC}")
    calls = workloads.build(workload, seed, workdir)
    invoke(cli(calls[0].args[:1] + ("--help",)), workdir)  # warm-up: compiles __pycache__
    probe.probe()  # warm-up of the probe itself
    probes: list[float] = []  # host speed samples, interleaved with the timed children
    setups = [cold_start(workdir, probes) for _ in range(SETUP_FIRST)]
    print(" ".join(f"{k}={v}" for k, v in identity().items()))
    refs = references(calls, workdir)
    failures: list[str] = []
    if trace:
        plain, _ = run_pass(calls, refs, workdir, failures)
        traced, traces = run_pass(calls, refs, workdir, failures, traced=True)
        if len(traces) != len(calls):
            failures.append(f"{len(calls) - len(traces)} traced invocations wrote no trace")
        metrics = tracer.summarize(traces)
        metrics["trace.overhead_ratio"] = (sum(r.wall for r in traced) / sum(r.wall for r in plain), "ratio")
        metrics.update(source_lines())
        attempted = 2 * len(calls)
    else:
        passes = measure(calls, refs, workdir, seconds, failures, setups, probes)
        metrics = end_to_end(setups, passes, probes)
        for call, rs in zip(calls, zip(*passes)):
            print(f"{call.label}: wall_s " + " ".join(f"{r.wall:.3f}" for r in rs))
        attempted = len(calls) * len(passes)
        print(f"passes={len(passes)} invocations_per_pass={len(calls)}")
    for f in failures:
        print(f"FAILED {f}")
    failed = len(failures)
    print(f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.4f}")
    return attempted, failed, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["corpus", "path-gf3", "strat-q"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running child is killed and reaped
    # and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # One CPU for the benchmark and every child it starts: the speed probe
    # then samples the CPU the program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
            attempted, failed, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(work))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
