"""Benchmark of the treeshift command line, one command per process.

    python3 bench/run.py --workload free-ball --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is taken from ``src/``.  The
run builds its input files through the library from the seed (set-up,
timed several times), then runs whole passes over the workload's command
list until ``--seconds`` have gone by.  Each command is a fresh
``python -m treeshift.cli`` process, started only after the previous one
has ended (a closed loop with one client).  Every command's exit status
and output are checked: the first time against ``reference.py``, after
that byte for byte against the first output.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` each command runs under
``launch.py`` instead, passes alternate between spans and counts, and the
metrics are the per-layer ones of ``layers.py``.

The host's speed drifts by up to 40 % from minute to minute, and by as much
within a run.  So every set-up and, with ``--trace 0``, every timed command
sits between two runs of ``calibrate.py`` (a fixed task that runs no
``treeshift`` code), and its time is reported scaled by ``CAL_REF_S`` over
the mean of those two: the time it would take on a host where the
calibration task takes ``CAL_REF_S``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import add, metrics
from workloads import WORKLOADS, malformed_ok

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
CAL_REF_S = 0.25  # reported times are scaled to a calibration task of this length


class Spawner:
    """Client of ``spawner.py``, which starts every process of the run so
    that a command's peak resident set is its own, not this process's."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], out: str, err: str) -> tuple[float, int, int]:
        """Run one process with stdout and stderr in files; wall seconds from
        spawn to exit, exit status and peak resident set in KiB."""
        self.proc.stdin.write(json.dumps([argv, out, err]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner ended with status {self.proc.wait()}")
        seconds, rc, kib = json.loads(reply)
        return seconds, rc, kib

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def calibrate(spawner: Spawner, out: str, err: str) -> float:
    """Wall seconds of one calibration process."""
    seconds, rc, _ = spawner.run([sys.executable, str(BENCH / "calibrate.py")], out, err)
    if rc != 0:
        raise SystemExit(f"error: calibration task exited with {rc}")
    return seconds


def scale(times: list[float], cals: list[float]) -> list[float]:
    """Each time scaled by CAL_REF_S over the mean of the calibrations run
    right before and right after it (``cals`` has one more entry)."""
    return [t * CAL_REF_S * 2 / (before + after)
            for t, before, after in zip(times, cals, cals[1:])]


class Run:
    """One benchmark run: the commands, their checks and their timings."""

    def __init__(self, workload, spawner: Spawner):
        self.workload = workload
        self.spawner = spawner
        self.passes = 0
        self.verified: dict[tuple, str] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.cmd_s: dict[str, list[float]] = {}  # wall seconds as measured
        self.pass_s: dict[str | None, list[float]] = {}
        self.cal_s: list[float] = []
        self.scaled_cmd_s: list[float] = []  # untraced commands, scaled to CAL_REF_S
        self.scaled_pass_s: list[float] = []
        self.peak_kib = 0
        self.totals: dict[str, list[dict]] = {"spans": [], "counts": []}

    def one_pass(self, mode: str | None) -> None:
        total: dict = {}
        times: list[float] = []  # the pass's well-formed commands
        cals: list[float] = []  # untraced: a calibration before each of them and after the last
        out, err = self.workload.path("stdout.txt"), self.workload.path("stderr.txt")
        record = self.workload.path("trace.json")
        for cmd in self.workload.commands(self.passes):
            if mode is None:
                argv = [sys.executable, "-m", "treeshift.cli", *cmd.args]
            else:
                argv = [sys.executable, str(BENCH / "launch.py"), mode, record, *cmd.args]
            if mode is None and not cmd.malformed:
                cals.append(calibrate(self.spawner, out, err))
            seconds, rc, kib = self.spawner.run(argv, out, err)
            self.attempted += 1
            self.peak_kib = max(self.peak_kib, kib)
            with open(out) as handle:
                stdout = handle.read()
            if cmd.malformed:
                with open(err) as handle:
                    self.failed += not malformed_ok(rc, handle.read())
                continue
            ok = self._check(cmd, rc, stdout)
            self.failed += rc != 0
            self.correct &= ok
            times.append(seconds)
            self.cmd_s.setdefault(cmd.kind, []).append(seconds)
            if mode is not None and ok:
                with open(record) as handle:
                    add(total, json.load(handle))
        self.passes += 1
        self.pass_s.setdefault(mode, []).append(sum(times))
        if mode is None:
            cals.append(calibrate(self.spawner, out, err))
            self.cal_s += cals
            scaled = scale(times, cals)
            self.scaled_cmd_s += scaled
            self.scaled_pass_s.append(sum(scaled))
        else:
            self.totals[mode].append(total)

    def _check(self, cmd, rc: int, stdout: str) -> bool:
        key = tuple(cmd.args)
        if key in self.verified:
            return rc == 0 and stdout == self.verified[key]
        try:
            ok = cmd.check(rc, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            print(f"check of {' '.join(cmd.args)} raised {exc!r}", file=sys.stderr)
            ok = False
        if ok:
            self.verified[key] = stdout
        else:
            print(f"wrong output (exit {rc}): {' '.join(cmd.args)}", file=sys.stderr)
        return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "treeshift" / "cli.py").is_file():
        print(f"error: no treeshift sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.chdir(ROOT)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import treeshift.cli  # noqa: F401  imported before set-up is timed

    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    # a terminated run still stops its spawner and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spawner = Spawner(env)
    try:
        workload = WORKLOADS[args.workload](args.seed, work.relative_to(ROOT))
        warm = [sys.executable, "-m", "treeshift.cli", "builtin", "n0"]
        out, err = workload.path("stdout.txt"), workload.path("stderr.txt")
        setup_s, cals = [], [calibrate(spawner, out, err)]
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            spawner.run(warm, out, err)
            workload.build()
            setup_s.append(time.perf_counter() - start)
            cals.append(calibrate(spawner, out, err))
        setup_s = scale(setup_s, cals)
        run = Run(workload, spawner)
        # every pass runs the whole list, so failed/attempted is the same in every run
        modes = ["spans", "counts"] if args.trace else [None]
        deadline = time.perf_counter() + args.seconds
        while run.passes < len(modes) or time.perf_counter() < deadline:
            run.one_pass(modes[run.passes % len(modes)])
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)

    for kind, times in run.cmd_s.items():
        print(f"{kind:<24} {len(times):3d} runs    median {statistics.median(times) * 1e3:8.1f} ms")
    for mode, times in run.pass_s.items():
        print(f"pass ({mode or 'untraced'}) {len(times):3d} passes  "
              f"median {statistics.median(times):.3f} s")
    if args.trace:
        result = metrics(run.totals["spans"], run.totals["counts"])
    else:
        print(f"calibration {len(run.cal_s):3d} runs    "
              f"median {statistics.median(run.cal_s) * 1e3:8.1f} ms (reference {CAL_REF_S * 1e3:.0f} ms)")
        result = {
            "cmd_ms": {"value": statistics.median(run.scaled_cmd_s) * 1e3, "unit": "ms"},
            "pass_s": {"value": statistics.median(run.scaled_pass_s), "unit": "s"},
            "peak_rss_mb": {"value": run.peak_kib / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        }
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
