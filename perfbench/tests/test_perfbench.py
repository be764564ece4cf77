"""Tests of the benchmark's own code: tracer, traced-pass outputs, checks.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import shutil
from pathlib import Path

import pytest

import checks
import gen
import run
import tracer
import worker
from lexcorpus import cleaning, dedup
from lexcorpus.corpus import Document, read_documents, write_documents

SMALL = {
    "pipeline-20k": {"docs": 1000},
    "ppl-order5": {"seed_tokens": 20_000, "docs": 300},
    "dedup-dense": {"templates": 4, "copies": 12, "sentences": 12, "max_edits": 7},
    "clean-io": {"docs": 300},
}


@pytest.fixture(scope="module", params=gen.WORKLOADS)
def passes(request, tmp_path_factory):
    """One untraced and one traced pass of a small instance of a workload."""
    workload = request.param
    root = tmp_path_factory.mktemp(workload)
    inputs = root / "inputs"
    gen.generate(workload, 3, inputs, SMALL[workload])
    state = worker.setup(workload, inputs, root / "setup")
    worker.run_pass(workload, state, root / "untraced")
    trace = tracer.Tracer()
    trace.install()
    try:
        worker.run_pass(workload, state, root / "traced")
    finally:
        trace.uninstall()
    return workload, inputs, root, trace


def _site_values():
    sites = [(owner, attr) for owner, attr, _ in tracer.SPAN_SITES] + [(dedup, "estimate_jaccard")]
    return [vars(owner)[attr] for owner, attr in sites]


def test_tracer_restores_every_attribute():
    before = _site_values()
    trace = tracer.Tracer()
    trace.install()
    try:
        assert all(a is not b for a, b in zip(_site_values(), before))
    finally:
        trace.uninstall()
    assert all(a is b for a, b in zip(_site_values(), before))


def test_traced_pass_writes_identical_bytes(passes):
    workload, _, root, trace = passes
    assert checks.digests(root / "traced") == checks.digests(root / "untraced")
    assert trace.spans and all(span[2] is not None for span in trace.spans)
    assert trace.counts["corpus.docs_read"] > 0


def test_check_accepts_real_output(passes):
    workload, inputs, root, _ = passes
    assert checks.check(workload, inputs, root / "untraced") == []


def _rewrite(path: Path, edit) -> None:
    docs = list(read_documents(path))
    write_documents(edit(docs), path)


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def _corrupt_pipeline(meta, out):
    def edit(report):
        bucket = next(iter(report["per_source"].values()))
        bucket["kept_tokens"] += 1

    _edit_json(out / "filter_report.json", edit)


def _corrupt_ppl(meta, out):
    # Move one gibberish paragraph from the dropped to the kept stream,
    # keeping every token count consistent.
    doc_id, paras = next(iter(meta["gibberish"].items()))
    para = paras[0]
    kept = list(read_documents(out / "kept.jsonl"))
    dropped = list(read_documents(out / "dropped.jsonl"))
    source = next(d for d in dropped if d.id == doc_id)
    source.text = "\n\n".join(p for p in cleaning.split_paragraphs(source.text) if p != para)
    target = next((d for d in kept if d.id == doc_id), None)
    if target is None:
        kept.append(Document(id=doc_id, source=source.source, text=para))
    else:
        target.text += "\n\n" + para
    write_documents(kept, out / "kept.jsonl")
    write_documents([d for d in dropped if d.text], out / "dropped.jsonl")

    def move_tokens(report):
        bucket = report["per_source"][source.source.name]
        bucket["kept_tokens"] += len(para.split())
        bucket["dropped_tokens"] -= len(para.split())

    _edit_json(out / "filter_report.json", move_tokens)


def _corrupt_dedup(meta, out):
    # Let a near-identical copy survive, and merge two templates' clusters.
    truth = meta["truth"]
    report = json.loads((out / "dedup_report.json").read_text(encoding="utf-8"))
    clusters = report["clusters"]
    survivor = next(r for c in clusters for r in c["removed"] if truth[r][1] >= checks.CLEAR_JACCARD)
    for cluster in clusters:
        if survivor in cluster["removed"]:
            cluster["removed"].remove(survivor)
    first, other = clusters[0], next(c for c in clusters if truth[c["kept"]][0] != truth[clusters[0]["kept"]][0])
    first["removed"].append(other["kept"])
    (out / "dedup_report.json").write_text(json.dumps(report), encoding="utf-8")
    source = list(read_documents(Path(out).parent / "inputs" / "corpus.jsonl"))
    survivor_doc = next(d for d in source if d.id == survivor)
    _rewrite(out / "deduped.jsonl", lambda docs: [d for d in docs if d.id != other["kept"]] + [survivor_doc])


def _corrupt_clean(meta, out):
    def edit(docs):
        docs[0].text += "\n" + gen.ARTIFACTS[0]
        return docs

    _rewrite(out / "filtered.jsonl", edit)


CORRUPT = {
    "pipeline-20k": _corrupt_pipeline,
    "ppl-order5": _corrupt_ppl,
    "dedup-dense": _corrupt_dedup,
    "clean-io": _corrupt_clean,
}

EXPECTED = {
    "pipeline-20k": ["filter_report kept"],
    "ppl-order5": ["gibberish paragraph"],
    "dedup-dense": ["survived", "mixes templates"],
    "clean-io": ["planted artifact", "fixed point"],
}


def test_check_rejects_corrupted_output(passes):
    workload, inputs, root, _ = passes
    meta = json.loads((inputs / "inputs.json").read_text(encoding="utf-8"))
    corrupt = root / "corrupt"
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(root / "untraced", corrupt)
    CORRUPT[workload](meta, corrupt)
    problems = checks.check(workload, inputs, corrupt)
    for fragment in EXPECTED[workload]:
        assert any(fragment in p for p in problems), (fragment, problems)


def test_layer_self_time_subtracts_direct_children():
    spans = [
        ["cli.run", 0.0, 10.0, None],
        ["lm.filter", 1.0, 6.0, 0],
        ["lm.score", 2.0, 4.0, 1],
        ["corpus.write", 7.0, 8.0, 0],
    ]
    metrics = tracer.layer_metrics(spans, {"dedup.candidate_pairs": 4, "dedup.verified_pairs": 1})
    assert metrics["cli.run_s"] == 10.0
    assert metrics["cli.self_s"] == 10.0 - 5.0 - 1.0
    assert metrics["lm.filter_self_s"] == 3.0
    assert metrics["lm.score_s"] == 2.0
    assert metrics["dedup.verify_yield"] == 0.25
    assert metrics["dedup.sign_s"] == 0.0


def test_host_probe_scales_by_mean_speed_in_the_interval():
    host = run.HostProbe()
    ref = run.PROBE_REFERENCE_S
    # Half the interval at the reference speed, half at half of it.
    host.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, ref), (3.0, 2 * ref), (9.0, 4 * ref)]
    assert host.scale(0.0, 3.0) == pytest.approx(0.75)
    # An interval with no sample takes the nearest one.
    assert host.scale(8.5, 8.6) == pytest.approx(0.25)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) == set(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**tracer.LAYER_METRICS, **run.BENCH_LAYERS}
