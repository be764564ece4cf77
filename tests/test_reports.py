"""Golden JSON of every report type: the exact `to_json()` text of a small
hand-built instance, so that the shared serializer cannot drift."""

from __future__ import annotations

import pytest

from lexcorpus.dedup import DedupReport
from lexcorpus.evaluation import EvalReport, PerplexityReport, PredictionRecord
from lexcorpus.lm import FilterReport
from lexcorpus.mix import MixManifest, MixValidation

GOLDEN = [
    (
        FilterReport(
            threshold=12.5,
            granularity="paragraph",
            kept_docs=2,
            dropped_docs=1,
            per_source={"freelaw": {"kept_tokens": 30, "dropped_tokens": 4}},
        ),
        '{\n  "dropped_docs": 1,\n  "granularity": "paragraph",\n  "kept_docs": 2,\n  "per_source": {\n'
        '    "freelaw": {\n      "dropped_tokens": 4,\n      "kept_tokens": 30\n    }\n  },\n'
        '  "threshold": 12.5\n}',
    ),
    (
        DedupReport(
            clusters=[("a", ["b", "c"])],
            exact_removed=1,
            near_removed=1,
            tokens_before=40,
            tokens_after=20,
            candidate_pairs=3,
            verified_pairs=1,
        ),
        '{\n  "candidate_pairs": 3,\n  "clusters": [\n    {\n      "kept": "a",\n      "removed": [\n'
        '        "b",\n        "c"\n      ]\n    }\n  ],\n  "exact_removed": 1,\n  "near_removed": 1,\n'
        '  "tokens_after": 20,\n  "tokens_before": 40,\n  "verified_pairs": 1\n}',
    ),
    (
        MixManifest(
            seed=3,
            total_tokens=10,
            per_source={"freelaw": {"documents": 2, "ids_digest": "ab", "realized_tokens": 10, "requested_tokens": 9}},
        ),
        '{\n  "per_source": {\n    "freelaw": {\n      "documents": 2,\n      "ids_digest": "ab",\n'
        '      "realized_tokens": 10,\n      "requested_tokens": 9\n    }\n  },\n  "seed": 3,\n'
        '  "total_tokens": 10\n}',
    ),
    (
        MixValidation(
            tolerance=0.05,
            per_source={"freelaw": {"deviation": 0.0, "pass": True, "realized_fraction": 1.0, "target_fraction": 1.0}},
        ),
        '{\n  "passed": true,\n  "per_source": {\n    "freelaw": {\n      "deviation": 0.0,\n'
        '      "pass": true,\n      "realized_fraction": 1.0,\n      "target_fraction": 1.0\n    }\n  },\n'
        '  "tolerance": 0.05\n}',
    ),
    (
        EvalReport(per_task={"t": 0.5}, per_category={"rule_recall": 0.5}, overall=0.5, abstain_rate=0.25),
        '{\n  "abstain_rate": 0.25,\n  "overall": 0.5,\n  "per_category": {\n    "rule_recall": 0.5\n  },\n'
        '  "per_task": {\n    "t": 0.5\n  }\n}',
    ),
    (
        PerplexityReport(
            scorer="lm", baseline=None, per_category={"kept": {"documents": 2.0, "iqr": 0.5, "median": 3.0}}
        ),
        '{\n  "baseline": null,\n  "per_category": {\n    "kept": {\n      "documents": 2.0,\n'
        '      "iqr": 0.5,\n      "median": 3.0\n    }\n  },\n  "scorer": "lm"\n}',
    ),
    (
        PredictionRecord(task="t", index=1, raw_output="Oui — «Yes»", parsed="Yes", gold="No"),
        '{"gold": "No", "index": 1, "parsed": "Yes", "raw_output": "Oui — «Yes»", "task": "t"}',
    ),
    (
        PredictionRecord(task="t", index=2, raw_output="", parsed="ABSTAIN", gold="No", failure="backend: down"),
        '{"failure": "backend: down", "gold": "No", "index": 2, "parsed": "ABSTAIN", "raw_output": "", "task": "t"}',
    ),
]


@pytest.mark.parametrize(
    "report, text",
    GOLDEN,
    ids=[
        "filter",
        "dedup",
        "mix-manifest",
        "mix-validation",
        "eval",
        "perplexity",
        "prediction",
        "prediction-failed",
    ],
)
def test_report_json_is_pinned(report, text):
    assert report.to_json() == text
