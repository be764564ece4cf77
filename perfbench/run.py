"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload pipeline-20k --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from its
`src/`. A run generates the inputs in their own process (cached under
`.perfbench-work/` by workload, seed and code), runs timed passes, each in
a fresh single-threaded process, times the program's set-up in those and
in further fresh interpreters, checks every pass's outputs, and prints as
its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. The line before it holds the raw timings of the run.

Every measured process runs on one vCPU, beside a host probe that times a
small fixed loop on that vCPU every few milliseconds. Each time is reported
at a fixed reference speed of the host: it is scaled by the probe's mean
speed during the measured interval over its reference speed, so that a host
whose speed drifts reports steady figures. See perfbench/README.md for the workloads, what each metric
means, and the measurements behind the scaling.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("pipeline-20k", "ppl-order5", "dedup-dense", "clean-io")
# Fresh interpreters whose set-up time is sampled, the measuring ones included.
SETUP_REPEATS = 7
# No pass process starts that would end after this, whatever `--seconds` says.
PASS_BUDGET_S = 120.0
# The host probe sleeps this long between samples; a sample takes 70-200
# us, so the probe takes 1-4% of the vCPU.
PROBE_INTERVAL_S = 0.005
# Time of one probe sample at the reference speed: the fast state of a
# vCPU of the reference host (a 2.1 GHz Xeon VM, Python 3.11).
PROBE_REFERENCE_S = 70e-6
# A run ends within 180 s; no child may outlive this.
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "tokens_per_s": "tokens/s", "peak_rss_mib": "MiB"}
BENCH_LAYERS = {"trace.overhead_s": "s", "host.probe_s": "s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def probe() -> float:
    """Time of a fixed pure-Python loop that allocates, hashes and counts
    strings the way the program does, without calling the program."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(300):
        word = str(i * 7919 % 10_007)
        counts[word] = counts.get(word, 0) + 1
    return time.perf_counter() - t0


class HostProbe:
    """Samples the speed of the vCPU this process is pinned to, on a thread
    of its own, while the measured children run on the same vCPU.

    The host changes a vCPU's speed by up to 2x many times a second, and
    the share of slow time drifts over minutes. `scale(t0, t1)` is the
    factor that takes a time measured over [t0, t1] to the reference speed:
    the probe's mean speed (1 / sample time) in the interval times its
    reference time. Sample starts use `time.perf_counter`, the system-wide
    monotonic clock, so children can report intervals on it."""

    def __init__(self) -> None:
        self.samples: list = []  # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.samples.append((time.perf_counter(), probe()))

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        window = [d for s, d in self.samples if t0 <= s <= t1]
        if not window:  # shorter than one sampling interval
            window = [min(self.samples, key=lambda sample: abs(sample[0] - (t0 + t1) / 2))[1]]
        return PROBE_REFERENCE_S * statistics.fmean(1 / d for d in window)


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one vCPU: the
    probe must run where the measured process runs."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def code_key() -> str:
    """Digest of the code that determines inputs and outputs."""
    h = hashlib.sha256()
    for path in sorted(SRC.joinpath("lexcorpus").glob("*.py")) + [BENCH / "gen.py", BENCH / "worker.py"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # One thread per process, and string hashing that does not vary by run.
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left


def ensure_inputs(workload: str, seed: int, key: str, env: dict, deadline: Deadline) -> Path:
    inputs = WORK / "inputs" / f"{workload}-s{seed}-{key}"
    if not (inputs / "inputs.json").is_file():
        # Keep one input set per workload: the large corpora add up.
        for old in (WORK / "inputs").glob(f"{workload}-s*"):
            shutil.rmtree(old)
        argv = [sys.executable, str(BENCH / "gen.py"), "--workload", workload, "--seed", str(seed),
                "--out", str(inputs)]
        try:
            subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=deadline.left(), stdout=subprocess.DEVNULL)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"input generation failed: {exc}") from exc
    return inputs


def worker(workload: str, inputs: Path, out: Path, mode: str, env: dict, deadline: Deadline,
           trace: bool = False) -> dict:
    """Run one worker process. Returns its result line, parsed, plus
    `spawned` and `ready`, the times at which it was started and reported
    set-up done, and `process_s` (spawn to exit)."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--inputs", str(inputs),
            "--out", str(out), "--mode", mode]
    if trace:
        argv.append("--trace")
    spawned = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=deadline.left()):
                raise BenchError(f"{mode} worker did not finish set-up within the run's time limit")
        ready_line = proc.stdout.readline()
        ready = time.perf_counter()
        rest, _ = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the run's time limit") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    process_s = time.perf_counter() - spawned
    if ready_line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{mode} worker failed (exit {proc.returncode})")
    result = {}
    if mode == "pass":
        try:
            result = json.loads(rest.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise BenchError(f"pass worker printed no result: {rest!r}") from exc
    result.update(spawned=spawned, ready=ready, process_s=process_s)
    return result


def check_passes(workload: str, seed: int, key: str, inputs: Path, out: Path, passes: list) -> str:
    """Fill in each pass's `problems` and `identity`. The run's first pass
    that completes gets the workload's full check, and so does every pass
    after one that failed it. Every pass must also write the same bytes as
    the reference: the first output of this workload, seed and code that
    passed the check. Returns where the reference came from: `earlier run`,
    `this run`, or `none` when no pass passed the check."""
    import checks

    ref_path = WORK / "refs" / f"{workload}-s{seed}-{key}.json"
    reference = json.loads(ref_path.read_text(encoding="utf-8")) if ref_path.is_file() else None
    origin = "earlier run" if reference is not None else "none"
    full_check = True
    for p in passes:
        p["identity"] = "not compared"
        if p["error"] is not None:
            p["problems"] = ["pass raised: " + p["error"].strip().splitlines()[-1]]
            continue
        pass_dir = out / f"pass-{p['pass']}" / "output"
        problems = checks.check(workload, inputs, pass_dir) if full_check else []
        full_check = bool(problems)
        digest = checks.digests(pass_dir)
        if reference is None and not problems:
            reference, origin = digest, "this run"
            p["identity"] = "reference"
            ref_path.parent.mkdir(parents=True, exist_ok=True)
            ref_path.write_text(json.dumps(digest, sort_keys=True) + "\n", encoding="utf-8")
        elif reference is not None:
            p["identity"] = "identical" if digest == reference else "differs"
            if digest != reference:
                changed = sorted(k for k in set(digest) | set(reference) if digest.get(k) != reference.get(k))
                problems.append(f"outputs differ from an earlier pass of this seed: {changed}")
        p["problems"] = problems
        shutil.rmtree(pass_dir)
    return origin


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    deadline = Deadline(DEADLINE_S)
    env = child_env()
    key = code_key()
    cpu = pin_to_one_cpu()
    inputs = ensure_inputs(workload, seed, key, env, deadline)
    meta = json.loads((inputs / "inputs.json").read_text(encoding="utf-8"))
    out = WORK / "run" / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    passes: list = []
    setups: list = []
    with HostProbe() as host:
        # One fresh process per pass, until the next would end after `seconds`.
        # A traced run alternates untraced and traced processes, one of each at least.
        started = time.perf_counter()
        while True:
            k = len(passes)
            traced = trace and k % 2 == 1
            result = worker(workload, inputs, out / f"pass-{k}", "pass", env, deadline, traced)
            result.update({"pass": k, "traced": traced})
            passes.append(result)
            if not traced:
                setups.append(result)
            elapsed = time.perf_counter() - started
            if len(passes) >= (2 if trace else 1) and elapsed + result["process_s"] > min(seconds, PASS_BUDGET_S):
                break
        while not trace and len(setups) < SETUP_REPEATS:
            setups.append(worker(workload, inputs, out / f"setup-{len(setups)}", "setup", env, deadline))
    for p in passes:
        p["wall_s"] = p["raw_wall_s"] * host.scale(p["t0"], p["t1"])
    setup_raw = [s["ready"] - s["spawned"] for s in setups]
    setup_samples = [r * host.scale(s["spawned"], s["ready"]) for r, s in zip(setup_raw, setups)]

    reference = check_passes(workload, seed, key, inputs, out, passes)
    failed = sum(1 for p in passes if p["problems"])
    compared = sum(1 for p in passes if p["identity"] in ("identical", "differs"))
    if not compared:
        # One pass that made the reference, or no pass that passed its check.
        sys.stderr.write(f"perfbench: {workload}: no output was compared for byte identity "
                         f"(reference: {reference})\n")

    def median_of(field: str, traced: bool) -> float:
        """Median over the passes of one kind that succeeded, or over all
        of that kind if none did."""
        kind = [p for p in passes if p["traced"] == traced]
        return statistics.median(p[field] for p in [p for p in kind if not p["problems"]] or kind)

    wall_s = median_of("wall_s", traced=False)
    probe_s = statistics.median(d for _, d in host.samples)
    if trace:
        import tracer

        # Span times are scaled like pass times, over the whole traced process.
        layers = []
        for p in passes:
            if p["traced"]:
                scale = host.scale(p["spawned"], p["t1"])
                layers.append({name: value * scale if tracer.LAYER_METRICS[name] == "s" else value
                               for name, value in p["layers"].items()})
        values = {name: statistics.median(layer[name] for layer in layers) for name in tracer.LAYER_METRICS}
        values["trace.overhead_s"] = median_of("wall_s", traced=True) - wall_s
        values["host.probe_s"] = probe_s
        units = {**tracer.LAYER_METRICS, **BENCH_LAYERS}
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "tokens_per_s": meta["tokens"] / wall_s,
            "peak_rss_mib": median_of("peak_rss_mib", traced=False),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    raw = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu": cpu,
        "input_tokens": meta["tokens"],
        "input_docs": meta["docs"],
        "setup_s": setup_samples,
        "setup_raw_s": setup_raw,
        "passes": [
            {k: p[k] for k in ("pass", "traced", "wall_s", "raw_wall_s", "cpu_s", "peak_rss_mib", "identity",
                               "problems")}
            for p in passes
        ],
        "identity_compared": compared,
        "identity_reference": reference,
        "probe_samples": len(host.samples),
        "probe_fastest_s": min(d for _, d in host.samples),
        "probe_median_s": probe_s,
    }
    summary = {"correct": failed == 0, "attempted": len(passes), "failed": failed, "metrics": metrics}
    return raw, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lexcorpus" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no lexcorpus sources under {SRC}; run it inside a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    summaries = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            raw, summary = run(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            sys.stderr.write(f"perfbench: {workload}: {exc}\n")
            return 1
        name = f"{time.strftime('%Y%m%dT%H%M%S')}-{workload}-s{args.seed}-t{args.trace}.json"
        (results / name).write_text(json.dumps({"raw": raw, "result": summary}, indent=1) + "\n", encoding="utf-8")
        print(json.dumps({"raw": raw}))
        summaries[workload] = summary
    if len(summaries) == 1:
        print(json.dumps(summary))
        return 0
    for workload, summary in summaries.items():
        shown = ", ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in summary["metrics"].items())
        print(f"{workload}: {shown}; {summary['failed']} of {summary['attempted']} passes failed")
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {f"{w}.{k}": m for w, s in summaries.items() for k, m in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
