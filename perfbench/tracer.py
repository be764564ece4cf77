"""In-memory span tracer wrapped around the call sites lexcorpus uses.

`Tracer.install()` replaces public functions of the six measured modules
with wrappers that record a span (name, start, end, parent) per call and
count the work each call did; `uninstall()` puts every original back.
No file under `src/` changes: the wrappers sit on module and class
attributes, which is where the program looks its callees up at call time
(`lm.filter_by_perplexity`, `cli.write_documents`, `CorpusReader.__iter__`).

`layer_metrics()` turns the spans and counts of one traced process, its
set-up and its pass, into the per-layer metrics. A span's self time is its
duration minus the durations of its direct children; calls are sequential,
so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

from lexcorpus import cleaning, cli, corpus, dedup, lm, mix

SPAN_SITES = (
    # (owner, attribute, span name)
    (corpus.CorpusReader, "__iter__", "corpus.read"),
    (corpus, "write_documents", "corpus.write"),
    (cli, "write_documents", "corpus.write"),
    (cleaning, "normalize_text", "cleaning.normalize"),
    (cleaning, "clean_text", "cleaning.clean"),
    (lm, "train_lm", "lm.train"),
    (lm, "save_lm", "lm.save"),
    (lm, "load_lm", "lm.load"),
    (lm, "calibrate_threshold", "lm.calibrate"),
    (lm, "filter_by_perplexity", "lm.filter"),
    (lm.NGramLM, "paragraph_log_probs", "lm.score"),
    (dedup, "exact_dedup", "dedup.exact"),
    (dedup, "near_dedup", "dedup.near"),
    (dedup, "minhash_signature", "dedup.sign"),
    (mix, "assemble_mix", "mix.assemble"),
    (cli, "run_pipeline", "cli.run"),
    (cli, "main", "cli.run"),
)


class Tracer:
    """Records spans and counts while installed. One tracer per process."""

    def __init__(self) -> None:
        # [name, start, end, parent index or None]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._saved: List[tuple] = []
        self._threshold = dedup.DEFAULT_THRESHOLD

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.remove(idx)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr: str, wrapper: Callable, original: Callable) -> None:
        setattr(owner, attr, functools.wraps(original)(wrapper))
        self._saved.append((owner, attr, original))

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        after = _AFTER.get(name)
        tracer = self

        if name == "corpus.read":
            def wrapper(reader):
                idx = tracer._open(name)
                try:
                    yield from original(reader)
                finally:
                    tracer._close(idx)
                    tracer.count("corpus.docs_read", reader.count)
                    tracer.count("corpus.skipped", reader.skipped)
        else:
            def wrapper(*args, **kwargs):
                if name == "dedup.near":
                    tracer._threshold = _argument(original, args, kwargs, "threshold")
                idx = tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if after is not None:
                    after(tracer, result, original, args, kwargs)
                return result

        self._replace(owner, attr, wrapper, original)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SPAN_SITES:
            self._wrap(owner, attr, name)
        # Candidate verification runs about a million times a pass on
        # dedup-dense, so it is counted, not spanned.
        original = dedup.estimate_jaccard
        tracer = self

        def estimate_jaccard(sig_a, sig_b):
            result = original(sig_a, sig_b)
            tracer.count("dedup.candidate_pairs")
            if result >= tracer._threshold:
                tracer.count("dedup.verified_pairs")
            return result

        self._replace(dedup, "estimate_jaccard", estimate_jaccard, original)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _argument(fn: Callable, args: tuple, kwargs: dict, name: str):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# -- counters computed from a call's result -----------------------------------


def _after_write(tracer: Tracer, result, original, args, kwargs) -> None:
    tracer.count("corpus.docs_written", result)
    path = _argument(original, args, kwargs, "path")
    tracer.count("corpus.bytes_written", os.path.getsize(path))


def _after_cleaning(tracer: Tracer, result, original, args, kwargs) -> None:
    # Only document-level calls count; clean_text calls normalize_text itself.
    if tracer._stack and tracer.spans[tracer._stack[-1]][0].startswith("cleaning."):
        return
    tracer.count("cleaning.docs")
    if not result:
        tracer.count("cleaning.emptied")


def _after_train(tracer: Tracer, result, original, args, kwargs) -> None:
    tracer.count("lm.ngrams", sum(len(table) for table in result.counts))


def _after_filter(tracer: Tracer, result, original, args, kwargs) -> None:
    dropped = result[1]
    tracer.count("lm.paragraphs_dropped", sum(len(cleaning.split_paragraphs(d.text)) for d in dropped))


def _after_score(tracer: Tracer, result, original, args, kwargs) -> None:
    tracer.count("lm.paragraphs_scored")
    tracer.count("lm.tokens_scored", len(result))


def _after_sign(tracer: Tracer, result, original, args, kwargs) -> None:
    tracer.count("dedup.signatures")
    tracer.count("dedup.shingles", result.shingle_count)


def _after_exact(tracer: Tracer, result, original, args, kwargs) -> None:
    tracer.count("dedup.exact_removed", result[1].exact_removed)


def _after_near(tracer: Tracer, result, original, args, kwargs) -> None:
    tracer.count("dedup.near_removed", result[1].near_removed)


_AFTER = {
    "corpus.write": _after_write,
    "cleaning.normalize": _after_cleaning,
    "cleaning.clean": _after_cleaning,
    "lm.train": _after_train,
    "lm.filter": _after_filter,
    "lm.score": _after_score,
    "dedup.sign": _after_sign,
    "dedup.exact": _after_exact,
    "dedup.near": _after_near,
}


# -- metrics -----------------------------------------------------------------

# name -> unit
LAYER_METRICS = {
    "corpus.read_s": "s",
    "corpus.write_s": "s",
    "corpus.docs_read": "count",
    "corpus.docs_written": "count",
    "corpus.mib_written": "MiB",
    "corpus.skipped": "count",
    "cleaning.normalize_s": "s",
    "cleaning.clean_s": "s",
    "cleaning.docs": "count",
    "cleaning.emptied": "count",
    "lm.train_s": "s",
    "lm.save_s": "s",
    "lm.load_s": "s",
    "lm.ngrams": "count",
    "lm.calibrate_s": "s",
    "lm.filter_s": "s",
    "lm.score_s": "s",
    "lm.filter_self_s": "s",
    "lm.paragraphs_scored": "count",
    "lm.tokens_scored": "count",
    "lm.paragraphs_dropped": "count",
    "dedup.exact_s": "s",
    "dedup.sign_s": "s",
    "dedup.signatures": "count",
    "dedup.shingles": "count",
    "dedup.near_s": "s",
    "dedup.verify_s": "s",
    "dedup.candidate_pairs": "count",
    "dedup.verified_pairs": "count",
    "dedup.verify_yield": "ratio",
    "dedup.exact_removed": "count",
    "dedup.near_removed": "count",
    "mix.assemble_s": "s",
    "cli.run_s": "s",
    "cli.self_s": "s",
}

# metric -> span name whose total duration it reports
_TOTALS = {
    "corpus.read_s": "corpus.read",
    "corpus.write_s": "corpus.write",
    "cleaning.clean_s": "cleaning.clean",
    "lm.train_s": "lm.train",
    "lm.save_s": "lm.save",
    "lm.load_s": "lm.load",
    "lm.calibrate_s": "lm.calibrate",
    "lm.filter_s": "lm.filter",
    "lm.score_s": "lm.score",
    "dedup.exact_s": "dedup.exact",
    "dedup.sign_s": "dedup.sign",
    "dedup.near_s": "dedup.near",
    "mix.assemble_s": "mix.assemble",
    "cli.run_s": "cli.run",
}
# metric -> span name whose self time it reports
_SELF = {
    "lm.filter_self_s": "lm.filter",
    "dedup.verify_s": "dedup.near",
    "cli.self_s": "cli.run",
}
_COUNTS = (
    "corpus.docs_read",
    "corpus.docs_written",
    "corpus.skipped",
    "cleaning.docs",
    "cleaning.emptied",
    "lm.ngrams",
    "lm.paragraphs_scored",
    "lm.tokens_scored",
    "lm.paragraphs_dropped",
    "dedup.signatures",
    "dedup.shingles",
    "dedup.candidate_pairs",
    "dedup.verified_pairs",
    "dedup.exact_removed",
    "dedup.near_removed",
)


def layer_metrics(spans: List[list], counts: Counter) -> Dict[str, float]:
    """Per-layer metrics from the spans and counts. A layer that did not
    run reports 0."""
    child_time: Dict[int, float] = defaultdict(float)
    for _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    normalize_top = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        if name == "cleaning.normalize" and (parent is None or spans[parent][0] != "cleaning.clean"):
            normalize_top += end - start
    out: Dict[str, float] = {}
    for metric, name in _TOTALS.items():
        out[metric] = total[name]
    for metric, name in _SELF.items():
        out[metric] = self_time[name]
    out["cleaning.normalize_s"] = normalize_top
    for key in _COUNTS:
        out[key] = counts.get(key, 0)
    out["corpus.mib_written"] = counts.get("corpus.bytes_written", 0) / 2**20
    candidates = out["dedup.candidate_pairs"]
    out["dedup.verify_yield"] = out["dedup.verified_pairs"] / candidates if candidates else 0.0
    return out
