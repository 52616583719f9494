"""The quizeval benchmark: one command that generates a workload from a seed,
drives the real CLI (``quizeval run`` then ``quizeval analyze``, each in a
fresh process), checks the outputs and prints the metrics.

Usage (from the repository root):

    python3 bench/run.py --workload replay-wide --seed 1 --seconds 60 --trace 0

Workloads (see workload.py; both are closed loops: the CLI's own pool of 2
workers, each waiting for its reply):

* ``replay-wide``: 10,112 questions with 1 KB images through the replay
  backend; exercises corpus loading, transcript save/load and the offline
  analysis layers (gazetteer, graphs, report).
* ``live-images-flaky-llm``: 1,264 questions with 200 KB incompressible
  images against a loopback stub that answers in 2 ms and serves a fixed
  failure schedule, then ``analyze --extractor llm`` against the same stub;
  exercises image reads, request-body encoding, HTTP, memory held per
  in-flight question, text-only bodies and the retry path, including one
  question that never succeeds.

Each repetition (run, then analyze) is timed end to end, and repetitions
continue while they fit in ``--seconds``. ``setup_s`` is reported as the
median of the repetitions; every other end-to-end figure as their trimmed
mean (see ``trimmed_mean``).
With ``--trace 1`` the repetitions alternate untraced and traced, and the
per-layer metrics come from the traced ones. Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
non-zero when a correctness check fails.

This process only orchestrates. Generation, checking and every stage run
in child processes, because a child inherits its parent's peak RSS in
``ru_maxrss``; keeping this process small keeps the stages' figures clean.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LEXICON = SRC / "quizeval" / "data" / "lexicon.json"
WORK_ROOT = ROOT / ".bench_work"
DEADLINE_SECONDS = 170.0
CALIBRATION_LOOP = 300_000



@dataclass
class Stage:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    spawned: float
    probe: dict = field(default_factory=dict)


@dataclass
class Repetition:
    traced: bool
    metrics: dict[str, float]
    failed: int
    problems: list[str]
    digest: str | None
    layer: dict[str, float] | None
    seconds: float


def stage_env(work: Path) -> dict[str, str]:
    """Fixed, minimal environment: no proxy variables, fixed hash seed.

    ``requests`` scans ``os.environ`` for proxies on every call, so the size
    of the environment would otherwise move the client's CPU cost.
    """
    home = work / "home"
    home.mkdir(parents=True, exist_ok=True)
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "HOME": str(home),
        "LANG": "C.UTF-8",
        "LC_ALL": "C.UTF-8",
        "PYTHONHASHSEED": "0",
        "QUIZEVAL_API_KEY": "bench-key",
    }


def calibrate() -> float:
    """Milliseconds for a fixed CPU loop; recorded, never used to normalise."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return (time.perf_counter() - start) * 1000.0


class Runner:
    """Starts child processes with the pinned environment and a deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = stage_env(work)

    def remaining(self) -> float:
        return max(0.0, self.deadline - time.monotonic())

    def stage(self, name: str, cli_args: list[str], out_dir: Path, trace: bool = False) -> Stage:
        """Run one quizeval CLI stage and take its rusage from ``wait4``."""
        probe = out_dir / f"{name}.probe.json"
        cmd = [sys.executable, str(BENCH / "stage.py"), "--src", str(SRC), "--probe", str(probe)]
        cmd += (["--trace"] if trace else []) + ["--"] + cli_args
        with open(out_dir / f"{name}.log", "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.work, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(self.remaining(), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = Stage(
            code=proc.returncode,
            wall_s=ended - spawned,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            spawned=spawned,
        )
        if probe.exists():
            result.probe = json.loads(probe.read_text(encoding="utf-8"))
        return result

    def helper(self, script: str, args: list[str]) -> dict:
        """Run a benchmark helper script and parse its JSON output."""
        done = subprocess.run(
            [sys.executable, str(BENCH / script)] + args, env=self.env, cwd=self.work,
            capture_output=True, text=True, timeout=self.remaining(),
        )
        if done.returncode != 0:
            raise RuntimeError(f"{script} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
        return json.loads(done.stdout)


class Stub:
    """The loopback chat-completions stub, one process per run."""

    def __init__(self, runner: Runner, data: Path, root: Path, log: Path):
        port_file = runner.work / "stub.port"
        port_file.unlink(missing_ok=True)
        cmd = [
            sys.executable, str(BENCH / "stub.py"), "--data", str(data), "--root", str(root),
            "--port-file", str(port_file),
        ]
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(cmd, env=runner.env, cwd=runner.work, stdout=self._log, stderr=subprocess.STDOUT)
        limit = time.monotonic() + min(30.0, runner.remaining())
        while not port_file.exists():
            if self.proc.poll() is not None or time.monotonic() > limit:
                self.stop()
                raise RuntimeError(f"stub did not start; see {log}")
            time.sleep(0.01)
        self.port = int(port_file.read_text(encoding="utf-8"))
        self.url = f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def control(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def repetition(
    runner: Runner, spec: workload.Spec, stub: Stub | None, inputs: Path, shape: dict, index: int, traced: bool
) -> Repetition:
    """One run stage and one analyze stage, then the checks."""
    rep_dir = runner.work / f"rep{index}"
    shutil.rmtree(runner.work / f"rep{index - 1}", ignore_errors=True)
    run_out, analyze_out = rep_dir / "run", rep_dir / "analyze"
    run_out.mkdir(parents=True)
    analyze_out.mkdir(parents=True)
    n, forced = shape["questions"], shape["forced_errors"]
    started = time.monotonic()
    problems: list[str] = []
    if stub:
        stub.control("/_reset")
    analyze = None
    stats = None
    engine = ["--model", workload.MODEL_ID, "--max-tokens", str(workload.MAX_TOKENS)]
    run_args = ["run", "--manifest", str(inputs / "manifest.json"), "--backend", spec.backend,
                "--parallelism", str(workload.PARALLELISM), "--out", str(run_out)] + engine
    run_args += ["--endpoint", stub.url] if stub else ["--fixture", str(inputs / "fixture.json")]
    run = runner.stage("run", run_args, rep_dir, traced)
    if run.code != 0:
        problems.append(f"run stage exited {run.code}; see {rep_dir / 'run.log'}")
    else:
        analyze_args = ["analyze", "--transcript", str(run_out / "transcript.json"),
                        "--manifest", str(inputs / "manifest.json"), "--out", str(analyze_out),
                        "--extractor", spec.extractor]
        if spec.extractor == "llm":
            analyze_args += ["--endpoint", stub.url] + engine
        analyze = runner.stage("analyze", analyze_args, rep_dir, traced)
        if analyze.code != 0:
            problems.append(f"analyze stage exited {analyze.code}; see {rep_dir / 'analyze.log'}")
    if stub:
        stats = stub.control("/_stats")
        (rep_dir / "stub_stats.json").write_text(json.dumps(stats), encoding="utf-8")

    if stats is not None:
        problems += [f"stub verification failed: {msg}" for msg in stats["verify_failures"][:3]]
        if stats["verified"] == 0:
            problems.append("stub verified no request body")
        if stats["status"].get("400"):
            problems.append(f"{stats['status']['400']} requests carried no routable case token")
        first_request = stats["first_run_arrival"]
        billed_run, billed = stats["run_ok"], stats["status"].get("200", 0)
    else:
        first_request = run.probe.get("first_call")
        billed_run = billed = run.probe.get("calls", 0)
    if billed_run != n - forced:
        problems.append(f"run stage made {billed_run} billed calls for {n} questions")

    client_errors, wrong, digest, layer = 0, n, None, None
    if analyze is not None and analyze.code == 0:
        checked = runner.helper("check.py", ["--inputs", str(inputs), "--rep", str(rep_dir)] + (["--traced"] if traced else []))
        client_errors, wrong, digest, layer = checked["client_errors"], checked["wrong"], checked["digest"], checked["layer"]
        problems += checked["problems"]
    # A failed stage or check fails every question of the repetition.
    failed = n if problems or wrong else 0
    nan = float("nan")
    metrics = {
        "setup_s": (first_request - run.spawned) if first_request else nan,
        "run_qps": n / run.wall_s,
        "run_cpu_ms_per_q": run.cpu_s * 1000.0 / n,
        "run_peak_rss_mb": run.maxrss_mb,
        "analyze_vps": n / analyze.wall_s if analyze else nan,
        "analyze_cpu_ms_per_v": analyze.cpu_s * 1000.0 / n if analyze else nan,
        "analyze_peak_rss_mb": analyze.maxrss_mb if analyze else nan,
        "engine_calls_per_q": billed / n,
        "ok_share": 1.0 - min(n, client_errors + failed) / n,
        "run_wall_s": run.wall_s,
        "analyze_wall_s": analyze.wall_s if analyze else nan,
    }
    return Repetition(
        traced=traced, metrics=metrics, failed=failed, problems=problems, digest=digest, layer=layer,
        seconds=time.monotonic() - started,
    )


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and the per-layer metrics, as
    BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def median(reps: list[Repetition], name: str) -> float:
    return statistics.median(rep.metrics[name] for rep in reps) if reps else float("nan")


def trimmed_mean(reps: list[Repetition], name: str) -> float:
    """Mean of the repetitions without the lowest and the highest value.

    The host's speed flips between a fast and a slow state within seconds,
    so one repetition's figure is a mixture of the two. A median of a few
    repetitions lands on one state or the other; a mean averages the mixture
    and spreads less from run to run. Dropping the two extremes keeps one
    stalled repetition from moving it.
    """
    values = sorted(rep.metrics[name] for rep in reps)
    if len(values) > 2:
        values = values[1:-1]
    return statistics.fmean(values) if values else float("nan")


def summarize(reps: list[Repetition], name: str) -> float:
    """One run's figure for an end-to-end metric."""
    return median(reps, name) if name == "setup_s" else trimmed_mean(reps, name)


def prepare(runner: Runner, name: str, seed: int) -> tuple[Path, dict]:
    """Write the bundled sample through the CLI and scale it into the workload."""
    sample_dir = runner.work / "sample"
    sample = runner.stage("sample", ["sample", "--out", str(sample_dir)], runner.work)
    if sample.code != 0:
        raise RuntimeError(f"quizeval sample exited {sample.code}; see {runner.work / 'sample.log'}")
    inputs = runner.work / "inputs"
    shape = runner.helper("workload.py", [
        "--workload", name, "--seed", str(seed), "--sample-manifest", str(sample_dir / "manifest.json"),
        "--lexicon", str(LEXICON), "--out", str(inputs),
    ])
    return inputs, shape


def main() -> int:
    # Turn SIGTERM into an exception so that the stub and any running stage
    # are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description="quizeval benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workload.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_SECONDS
    if not (SRC / "quizeval" / "cli.py").is_file() or not LEXICON.is_file():
        print(f"error: no quizeval sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = declared_metrics()

    spec = workload.WORKLOADS[args.workload]
    work = WORK_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, deadline)
    calibration = [calibrate()]
    inputs, shape = prepare(runner, args.workload, args.seed)
    n = shape["questions"]
    print(f"workload {args.workload}: seed {args.seed}, {n} questions, {spec.image_bytes} B images, "
          f"backend {spec.backend}, extractor {spec.extractor}, parallelism {workload.PARALLELISM}")
    print(f"host: nproc {os.cpu_count()}, python {platform.python_version()}, calibration {calibration[0]:.1f} ms")

    stub = None
    if spec.backend == "live":
        stub = Stub(runner, inputs / "stub.json", inputs, work / "stub.log")
    reps: list[Repetition] = []
    try:
        started = time.monotonic()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep = repetition(runner, spec, stub, inputs, shape, len(reps), traced)
            reps.append(rep)
            calibration.append(calibrate())
            shown = " ".join(f"{k}={rep.metrics[k]:.4g}" for k in end_to_end_units)
            print(f"rep {len(reps) - 1}{' traced' if traced else ''}: {shown} ({rep.seconds:.1f} s)")
            for problem in rep.problems:
                print(f"  CHECK FAILED: {problem}")
            if rep.problems:
                break
            longest = max(r.seconds for r in reps)
            need_pair = bool(args.trace) and len(reps) % 2 == 1
            if time.monotonic() + longest > deadline - 5.0:
                break
            if time.monotonic() - started + longest > args.seconds and not need_pair:
                break
    finally:
        if stub:
            stub.stop()

    digests = {r.digest for r in reps}
    problems = [p for r in reps for p in r.problems]
    if len(digests) != 1 or None in digests:
        problems.append(f"report.json digests differ between repetitions: {sorted(map(str, digests))}")
    untraced = [r for r in reps if not r.traced]
    traced_reps = [r for r in reps if r.traced]
    if args.trace and not any(r.layer for r in traced_reps):
        problems.append("no traced repetition completed")
    correct = not problems
    failed = sum(r.failed for r in reps) or (0 if correct else n)

    figures = {k: summarize(untraced, k) for k in end_to_end_units}
    print(f"{args.workload}: {len(untraced)} untraced repetitions (setup_s: median; others: trimmed mean)")
    for name, unit in end_to_end_units.items():
        print(f"  {name:<22} {figures[name]:>14.6g} {unit}")
    print(f"  {'failed_share':<22} {1.0 - figures['ok_share']:>14.6g} ratio")
    print(f"report.json sha256 without timestamp and endpoint URL: {', '.join(sorted(map(str, digests)))}")
    print(f"host calibration ms: before {calibration[0]:.1f}, after {calibration[-1]:.1f}, "
          f"median {statistics.median(calibration):.1f}")

    if args.trace:
        layer = tracing.median_metrics([r.layer for r in traced_reps if r.layer]) if correct else {}
        for stage in ("run", "analyze"):
            overhead = median(traced_reps, f"{stage}_wall_s") - median(untraced, f"{stage}_wall_s")
            layer[f"trace.{stage}_overhead_ms"] = 1000.0 * overhead
        layer["host.calibration_ms"] = statistics.median(calibration)
        print(f"per-layer metrics, medians of {len(traced_reps)} traced repetitions")
        missing = [name for name in per_layer_units if name not in layer]
        if missing and correct:
            raise RuntimeError(f"per-layer metrics missing: {missing}")
        for name, unit in per_layer_units.items():
            print(f"  {name:<34} {layer.get(name, float('nan')):>14.6g} {unit}")
        out_metrics = {
            name: {"value": layer[name], "unit": unit} for name, unit in per_layer_units.items() if name in layer
        }
    else:
        out_metrics = {name: {"value": figures[name], "unit": unit} for name, unit in end_to_end_units.items()}

    if not correct:
        # Metrics of failed stages are undefined; keep the line valid JSON.
        for metric in out_metrics.values():
            if metric["value"] != metric["value"]:
                metric["value"] = 0.0
    result = {"correct": correct, "attempted": n * len(reps), "failed": failed, "metrics": out_metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
