"""One measured process: set up one workload, then run one timed pass.

    python3 perfbench/worker.py --workload W --inputs DIR --out DIR \
        --mode setup|pass [--trace]

The process receives only the generated input directory. It prints `ready`
once set-up is done, so the parent can time set-up from its own clock,
starting before the interpreter was spawned. In `pass` mode it then runs
one pass, which writes into `DIR/output`, and prints one JSON line with the
pass's start and end on `time.perf_counter` (the system-wide monotonic
clock, which the parent's host probe uses too), its wall and CPU time,
peak resident set and, with `--trace`, the per-layer metrics of its set-up and
pass. Outputs are checked by the parent, never here, so checking adds
nothing to this process's memory or time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from lexcorpus import corpus
from lexcorpus.corpus import WhitespaceTokenizer

TOK = WhitespaceTokenizer()


# -- workloads: set-up returns the state a pass needs -------------------------


def setup_pipeline(inputs: Path, meta: dict, scratch: Path) -> dict:
    # run_pipeline validates the config and loads the ruleset itself, so
    # those are part of the pass.
    from lexcorpus import cli

    return {"cfg": cli.load_config(inputs / meta["config"]), "cli": cli}


def pass_pipeline(state: dict, out: Path) -> None:
    cfg = state["cfg"]
    cfg.out_dir = out
    state["cli"].run_pipeline(cfg)


def setup_ppl(inputs: Path, meta: dict, scratch: Path) -> dict:
    from lexcorpus import lm

    seed_docs = list(corpus.read_documents(inputs / meta["seed_corpus"]))
    model = lm.train_lm(seed_docs, TOK, order=5)
    scratch.mkdir(parents=True, exist_ok=True)
    lm.save_lm(model, scratch / "lm.json")
    model = lm.load_lm(scratch / "lm.json")
    return {"lm": lm, "model": model, "seed_docs": seed_docs, "corpus": inputs / meta["corpus"]}


def pass_ppl(state: dict, out: Path) -> None:
    lm = state["lm"]
    docs = list(corpus.read_documents(state["corpus"]))
    threshold = lm.calibrate_threshold(state["model"], state["seed_docs"], TOK, percentile=99.0)
    kept, dropped, report = lm.filter_by_perplexity(docs, state["model"], TOK, threshold=threshold)
    corpus.write_documents(kept, out / "kept.jsonl")
    corpus.write_documents(dropped, out / "dropped.jsonl")
    (out / "filter_report.json").write_text(report.to_json() + "\n", encoding="utf-8")


def setup_dedup(inputs: Path, meta: dict, scratch: Path) -> dict:
    from lexcorpus import dedup

    return {"dedup": dedup, "corpus": inputs / meta["corpus"], "seed": meta["seed"]}


def pass_dedup(state: dict, out: Path) -> None:
    dedup = state["dedup"]
    docs = list(corpus.read_documents(state["corpus"]))
    unique, exact = dedup.exact_dedup(docs, TOK)
    final, near = dedup.near_dedup(unique, seed=state["seed"], tok=TOK)
    corpus.write_documents(final, out / "deduped.jsonl")
    report = dedup.DedupReport(
        clusters=exact.clusters + near.clusters,
        exact_removed=exact.exact_removed,
        near_removed=near.near_removed,
        tokens_before=exact.tokens_before,
        tokens_after=near.tokens_after,
    )
    (out / "dedup_report.json").write_text(report.to_json() + "\n", encoding="utf-8")


def setup_clean(inputs: Path, meta: dict, scratch: Path) -> dict:
    from lexcorpus import cli

    return {"cli": cli, "corpus": inputs / meta["corpus"]}


def pass_clean(state: dict, out: Path) -> None:
    main = state["cli"].main
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for argv in (
            ["normalize", "-i", str(state["corpus"]), "-o", str(out / "normalized.jsonl")],
            ["filter-rules", "-i", str(out / "normalized.jsonl"), "-o", str(out / "filtered.jsonl")],
        ):
            code = main(argv)
            if code != 0:
                raise RuntimeError(f"lexcorpus {argv[0]} exited with {code}")
    # The messages name the pass directory; keep them comparable across passes.
    (out / "stdout.txt").write_text(printed.getvalue().replace(str(out), "OUT"), encoding="utf-8")


WORKLOADS = {
    "pipeline-20k": (setup_pipeline, pass_pipeline),
    "ppl-order5": (setup_ppl, pass_ppl),
    "dedup-dense": (setup_dedup, pass_dedup),
    "clean-io": (setup_clean, pass_clean),
}


def setup(workload: str, inputs: Path, scratch: Path) -> dict:
    meta = json.loads((inputs / "inputs.json").read_text(encoding="utf-8"))
    return WORKLOADS[workload][0](inputs, meta, scratch)


def run_pass(workload: str, state: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    WORKLOADS[workload][1](state, out)


# -- measurement ---------------------------------------------------------------


def peak_rss_mib() -> float:
    """Peak resident set of this process's own address space (`VmHWM`).
    `ru_maxrss` would also count the parent's peak: a child that the parent
    starts with vfork and exec inherits it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "pass"))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    state = setup(args.workload, Path(args.inputs), out / "setup")
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.mode == "setup":
        return 0

    error = None
    t0, cpu0 = time.perf_counter(), time.process_time()
    try:
        run_pass(args.workload, state, out / "output")
    except Exception:
        error = traceback.format_exc()
        sys.stderr.write(error)
    t1 = time.perf_counter()
    result = {
        "t0": t0,
        "t1": t1,
        "raw_wall_s": t1 - t0,
        "cpu_s": time.process_time() - cpu0,
        "error": error,
        "peak_rss_mib": peak_rss_mib(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
