"""Golden SHA-256 digests of every file, stdout and stderr that CI's
"every report-writing subcommand" step writes on the 1k demo
(`python -m lexcorpus.synthdata --seed 7`), so that an output change from
one commit to the next cannot go undeclared.

The steps below mirror that CI step, run in process. The absolute demo
path in printed lines is replaced by `<demo>` before hashing. A change that
means to move output rewrites the digest file with
`PYTHONPATH=src python tests/test_demo_digests.py` in the same commit, and
names the files whose digests moved in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Dict

from lexcorpus import cli
from lexcorpus.synthdata import write_pipeline_inputs

DIGESTS = Path(__file__).parent / "data" / "demo_digests.json"

_MIX_SPEC = (
    '{"entries": [{"source": "freelaw", "fraction": 0.9}, {"source": "wikipedia", "fraction": 0.1}],'
    ' "token_budget": 20000, "seed": 3}\n'
)
_PROMPT = (
    "Decide.\n\nQuestion: Is a verbal lease binding?\nAnswer: Yes\n\n"
    "Question: Is a forged deed valid?\nAnswer: No\n"
)


def _run(name: str, *argv: str, demo: Path) -> None:
    """`lexcorpus argv > name.stdout 2> name.stderr` in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    assert code == 0, f"lexcorpus {' '.join(argv)} exited {code}: {err.getvalue()}"
    for suffix, stream in (("stdout", out), ("stderr", err)):
        Path(f"{name}.{suffix}").write_text(stream.getvalue().replace(str(demo), "<demo>"), encoding="utf-8")


def demo_digests(root: Path) -> Dict[str, str]:
    """Run the report step under `root`; the SHA-256 of each file it writes
    into its reports directory, by path relative to that directory."""
    demo = (root / "reports-demo").resolve()
    write_pipeline_inputs(demo, seed=7)
    reports = root / "reports"
    reports.mkdir()
    cwd = os.getcwd()
    os.chdir(reports)
    try:
        _run("pipeline", "pipeline", "--config", f"{demo}/config.json", demo=demo)
        (demo / "out").rename("pipeline")
        _run("dedup", "dedup", "-i", "pipeline/03_pplfiltered.jsonl", "-o", "deduped.jsonl", "--report", "dedup.json",
             "--clusters", "clusters.tsv", demo=demo)
        _run("mine", "mine-ngrams", "-i", "pipeline/01_normalized.jsonl", "-o", "ngrams.tsv", "-n", "3", "--top-k",
             "25", demo=demo)
        _run("gen", "gen-instructions", "--examples", f"{demo}/examples.jsonl", "-o", "conversations.jsonl",
             "--corpus-out", "instructions.jsonl", demo=demo)
        with open(demo / "examples.jsonl", encoding="utf-8") as fh:
            Path("bench.txt").write_text(json.loads(fh.readline())["input_text"] + "\n", encoding="utf-8")
        _run("decon", "decontaminate", "-i", "conversations.jsonl", "-o", "decontaminated.jsonl", "--task-dir",
             f"{demo}/tasks", "--benchmark-file", "bench.txt", demo=demo)
        _run("eval", "eval", "--task-dir", f"{demo}/tasks", "--mmlu-dir", f"{demo}/mmlu", "--report", "eval.json",
             "--dump", "predictions.jsonl", demo=demo)
        _run("ppl", "ppl-report", "--model", "pipeline/lm.json", "--baseline-model", "pipeline/lm.json",
             "--category", "kept=pipeline/04_deduped.jsonl", "--category", "dropped=pipeline/03_dropped.jsonl",
             "-o", "ppl.json", demo=demo)
        Path("mixspec.json").write_text(_MIX_SPEC, encoding="utf-8")
        _run("mix", "mix", "--spec", "mixspec.json", "-i", "pipeline/04_deduped.jsonl", "-i", f"{demo}/seed.jsonl",
             "-o", "mix.jsonl", "--manifest", "mix_manifest.json", "--tolerance", "0.05", demo=demo)
        Path("prompt.txt").write_text(_PROMPT, encoding="utf-8")
        _run("curate", "curate-prompts", "-i", "prompt.txt", "-o", "curated.txt", "--labels", "Yes", "No", demo=demo)
    finally:
        os.chdir(cwd)
    return {
        path.relative_to(reports).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(reports.rglob("*"))
        if path.is_file()
    }


def test_demo_outputs_match_golden_digests(tmp_path):
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digests = demo_digests(tmp_path)
    changed = sorted(name for name in golden.keys() & digests.keys() if golden[name] != digests[name])
    missing = sorted(golden.keys() - digests.keys())
    new = sorted(digests.keys() - golden.keys())
    assert not (changed or missing or new), f"demo outputs moved: changed {changed}, missing {missing}, new {new}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = demo_digests(Path(scratch))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(digests)} digests to {DIGESTS}\n")
