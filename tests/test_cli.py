from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from lexcorpus import cleaning, cli, corpus, dedup, evaluation, instruct, lm, mix
from lexcorpus.corpus import CorpusError, InputError, WhitespaceTokenizer, read_documents, write_documents
from lexcorpus.synthdata import write_pipeline_inputs


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "lexcorpus.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def pipeline_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    write_pipeline_inputs(root, seed=7, n_docs=400)
    return root


def test_help_lists_all_subcommands():
    result = run_cli("--help")
    assert result.returncode == 0
    for name in (
        "normalize",
        "mine-ngrams",
        "filter-rules",
        "train-lm",
        "filter-ppl",
        "dedup",
        "mix",
        "gen-instructions",
        "decontaminate",
        "curate-prompts",
        "eval",
        "ppl-report",
        "pipeline",
    ):
        assert name in result.stdout


def test_readme_flag_table_matches_the_parser():
    """README's subcommand table names every subcommand and only those, and
    each row lists every option of its subcommand, under one of its option
    strings, and no other flag."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Subcommand | What it does | Flags |\n| --- | --- | --- |\n")[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines():
        name, _, flags = line.strip("|").split(" | ")
        listed = (code.split()[0] for code in re.findall(r"`([^`]+)`", flags))
        rows[name.strip(" `")] = {flag for flag in listed if flag.startswith("-")}
    subcommands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert rows.keys() == subcommands.keys()
    for name, parser in subcommands.items():
        options = [a.option_strings for a in parser._actions if a.option_strings and a.dest != "help"]
        assert rows[name] <= {flag for strings in options for flag in strings}, name
        assert all(rows[name] & set(strings) for strings in options), name


def test_missing_required_args_exits_1():
    result = run_cli("mine-ngrams")
    assert result.returncode == 1


def test_unknown_subcommand_exits_1():
    result = run_cli("not-a-command")
    assert result.returncode == 1


def test_missing_input_file_exits_1(tmp_path):
    result = run_cli("normalize", "-i", str(tmp_path / "absent.jsonl"), "-o", str(tmp_path / "o.jsonl"))
    assert result.returncode == 1
    assert "not found" in result.stderr


def test_malformed_config_exits_1(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"seed": "not-an-int"}')
    result = run_cli("pipeline", "--config", str(cfg))
    assert result.returncode == 1


def test_normalize_subcommand(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text('{"id":"1","source":"freelaw","text":"ﬁling Ｈｅｌｌｏ"}\n')
    out = tmp_path / "out.jsonl"
    result = run_cli("normalize", "-i", str(src), "-o", str(out))
    assert result.returncode == 0
    assert json.loads(out.read_text())["text"] == "filing Hello"


def test_mine_ngrams_subcommand(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text('{"id":"1","source":"freelaw","text":"a b a b a"}\n')
    out = tmp_path / "ngrams.tsv"
    result = run_cli("mine-ngrams", "-i", str(src), "-o", str(out), "-n", "2", "--top-k", "2")
    assert result.returncode == 0
    assert out.read_text().splitlines() == ["2\ta b", "2\tb a"]


def test_strict_flag_rejects_malformed_lines(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text('{"id":"1","source":"freelaw","text":"ok"}\nbroken\n')
    out = tmp_path / "out.jsonl"
    lenient = run_cli("normalize", "-i", str(src), "-o", str(out))
    assert lenient.returncode == 0
    assert f"lexcorpus: skipped 1 malformed records in {src}" in lenient.stderr
    strict = run_cli("normalize", "--strict", "-i", str(src), "-o", str(out))
    assert strict.returncode == 1


def test_normalize_skips_or_names_a_record_nested_too_deep(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    deep = "[" * 100000 + "]" * 100000
    src.write_text(f'{{"id":"1","source":"freelaw","text":"ok"}}\n{{"id":"2","source":"freelaw","text":"t","meta":{deep}}}\n')
    out = tmp_path / "out.jsonl"
    assert cli.main(["normalize", "-i", str(src), "-o", str(out)]) == 0
    assert f"lexcorpus: skipped 1 malformed records in {src}" in capsys.readouterr().err
    assert [doc.id for doc in read_documents(out)] == ["1"]
    assert cli.main(["normalize", "--strict", "-i", str(src), "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "lexcorpus: line 2: invalid JSON (maximum recursion depth exceeded while decoding a JSON array"
    )


def test_curate_prompts_subcommand(tmp_path):
    orig = tmp_path / "orig.txt"
    orig.write_text("Classify.\n\nQuestion: sample? \nAnswer: Yes\n\nQuestion: {text}\nAnswer:")
    out = tmp_path / "curated.txt"
    result = run_cli("curate-prompts", "-i", str(orig), "-o", str(out), "--labels", "Yes", "No")
    assert result.returncode == 0
    # the file gets a POSIX trailing newline; the prompt itself ends with the tag line
    assert out.read_text().rstrip("\n").endswith('Answer by only outputting "Yes" or "No"')


def test_gen_instructions_stub_backend(tmp_path):
    examples = tmp_path / "ex.jsonl"
    examples.write_text('{"id":"e1","input_text":"Some clause.","label":"contracts"}\n')
    out = tmp_path / "conv.jsonl"
    result = run_cli("gen-instructions", "--examples", str(examples), "-o", str(out))
    assert result.returncode == 0
    conv = json.loads(out.read_text())
    assert conv["origin"] == "e1"
    assert conv["turns"][0]["role"] == "user"


def test_gen_instructions_names_an_example_line_nested_too_deep(tmp_path, capsys):
    examples = tmp_path / "ex.jsonl"
    examples.write_text('{"id":"e1","input_text":"Some clause.","label":"contracts"}\n' + "[" * 100000 + "]" * 100000 + "\n")
    out = tmp_path / "conv.jsonl"
    assert cli.main(["gen-instructions", "--examples", str(examples), "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"lexcorpus: {examples}:2: bad labeled example: maximum recursion depth")
    assert not out.exists()


@pytest.mark.parametrize(
    "second_line, cause",
    [
        ('{"id":"a","input_text":"Other clause.","label":"housing"}', "duplicate id 'a'"),
        ('{"id":"b","input_text":5,"label":"x"}', "'int' object has no attribute 'strip'"),
        ('{"id":null,"input_text":"Other clause.","label":"housing"}', "id None is not a string"),
        ('{"id":true,"input_text":"Other clause.","label":"housing"}', "id True is not a string"),
        ('{"id":1,"input_text":"Other clause.","label":"housing"}', "id 1 is not a string"),
    ],
    ids=["repeated-id", "text-not-a-string", "null-id", "true-id", "number-id"],
)
def test_gen_instructions_refuses_a_bad_example_before_any_backend_call(tmp_path, capsys, monkeypatch, second_line, cause):
    examples = tmp_path / "ex.jsonl"
    examples.write_text('{"id":"a","input_text":"Some clause.","label":"contracts"}\n' + second_line + "\n")
    out, docs = tmp_path / "conv.jsonl", tmp_path / "docs.jsonl"
    calls = []
    monkeypatch.setattr(instruct.StubChatBackend, "complete", lambda self, messages, role_hint: calls.append(role_hint))
    argv = ["gen-instructions", "--examples", str(examples), "-o", str(out), "--corpus-out", str(docs)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"lexcorpus: {examples}:2: bad labeled example: {cause}\n"
    assert calls == []
    assert not out.exists() and not docs.exists()


def test_gen_instructions_corpus_out_reads_back_strictly_one_document_per_conversation(tmp_path):
    examples = tmp_path / "ex.jsonl"
    examples.write_text(
        "".join(f'{{"id":"e{i}","input_text":"Clause {i} is unusual.","label":"contracts"}}\n' for i in range(3))
    )
    out, docs = tmp_path / "conv.jsonl", tmp_path / "docs.jsonl"
    argv = ["gen-instructions", "--examples", examples, "-o", out, "--corpus-out", docs, "--extra-turn-pairs", "2"]
    assert _main(*argv) == 0
    conversations = instruct.read_conversations(out)
    read_back = list(read_documents(docs, strict=True))
    assert [d.id for d in read_back] == [f"instr-e{i}" for i in range(3)]
    assert [d.id for d in read_back] == [f"instr-{c.origin}" for c in conversations]
    assert {d.source.name for d in read_back} == {"instruction"}
    assert [d.meta for d in read_back] == [
        {"turns": str(len(c.turns)), "generator": "user=stub,assistant=stub"} for c in conversations
    ]


def test_gen_instructions_total_failure_exits_2(tmp_path):
    examples = tmp_path / "ex.jsonl"
    examples.write_text('{"id":"e1","input_text":"Some clause.","label":"contracts"}\n')
    out = tmp_path / "conv.jsonl"
    result = run_cli(
        "gen-instructions",
        "--examples",
        str(examples),
        "-o",
        str(out),
        "--endpoint",
        "http://127.0.0.1:1/unreachable",
        "--model",
        "m",
    )
    assert result.returncode == 2


def test_gen_instructions_prints_why_a_conversation_failed(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(instruct, "CHAT_ATTEMPTS", 1)
    monkeypatch.setattr(instruct, "CHAT_BACKOFF_S", 0.0)
    examples = tmp_path / "ex.jsonl"
    examples.write_text('{"id":"e1","input_text":"Some clause.","label":"contracts"}\n')
    endpoint = "http://127.0.0.1:1/unreachable"
    argv = ["gen-instructions", "--examples", str(examples), "-o", str(tmp_path / "conv.jsonl"), "--endpoint", endpoint]
    assert cli.main(argv) == 2
    failed, last = capsys.readouterr().err.splitlines()
    # the rest of the line is the transport's own error, which names the port
    assert failed.startswith("failed e1: transport: chat endpoint unreachable after 1 attempts: ")
    assert "port=1" in failed
    assert last == "lexcorpus gen-instructions: every conversation failed"


@pytest.mark.parametrize(
    "bad_line",
    [
        '{"origin": "e2", "generator": "scaffold"}',
        '["turns"]',
        '{"origin": "e2", "turns": [{"role": "user", "text": 5}, {"role": "assistant", "text": "b"}, '
        '{"role": "user", "text": "c"}]}',
    ],
    ids=["no-turns", "array", "text-not-a-string"],
)
def test_decontaminate_names_a_bad_conversation_line(tmp_path, capsys, bad_line):
    conv = instruct.scaffold_conversation(instruct.LabeledExample(id="e1", input_text="Some clause.", label="x"))
    convs = tmp_path / "conv.jsonl"
    convs.write_text(f"{instruct.conversation_to_json(conv)}\n{bad_line}\n")
    bench, out = tmp_path / "bench.txt", tmp_path / "clean.jsonl"
    bench.write_text("alpha beta gamma delta epsilon zeta eta theta\n")
    assert cli.main(["decontaminate", "-i", str(convs), "-o", str(out), "--benchmark-file", str(bench)]) == 1
    assert capsys.readouterr().err.startswith(f"lexcorpus: {convs}:2: bad conversation: ")
    assert not out.exists()


@pytest.mark.parametrize("shingle_n", ["0", "-3"])
def test_decontaminate_refuses_a_shingle_size_below_one(tmp_path, capsys, shingle_n):
    conv = instruct.scaffold_conversation(instruct.LabeledExample(id="e1", input_text="Some clause.", label="x"))
    convs = tmp_path / "conv.jsonl"
    convs.write_text(f"{instruct.conversation_to_json(conv)}\n")
    bench, out = tmp_path / "bench.txt", tmp_path / "clean.jsonl"
    bench.write_text("Zz qq\n")
    argv = ["decontaminate", "-i", convs, "-o", out, "--benchmark-file", bench, "--shingle-n"]
    assert _main(*argv, "1") == 0
    assert capsys.readouterr().out == f"decontamination kept 1, removed 0 -> {out}\n"
    out.unlink()
    assert _main(*argv, shingle_n) == 1
    assert capsys.readouterr().err == "lexcorpus: shingle_n must be >= 1\n"
    assert not out.exists()


def test_eval_refuses_two_tasks_of_one_name(ppl_inputs, tmp_path, capsys):
    tasks = tmp_path / "tasks"
    tasks.mkdir()
    task = sorted((ppl_inputs / "tasks").iterdir())[0]
    shutil.copyfile(task, tasks / "a.json")
    shutil.copyfile(task, tasks / "b.json")
    name = json.loads(task.read_text())["name"]
    report, dump = tmp_path / "eval.json", tmp_path / "dump.jsonl"
    assert _main("eval", "--task-dir", tasks, "--report", report, "--dump", dump) == 1
    assert capsys.readouterr() == ("", f"lexcorpus: two tasks are named {name!r}\n")
    assert not report.exists() and not dump.exists()


def test_pipeline_end_to_end(pipeline_inputs):
    result = run_cli("pipeline", "--config", str(pipeline_inputs / "config.json"))
    assert result.returncode == 0, result.stderr
    out = pipeline_inputs / "out"
    for name in (
        "01_normalized.jsonl",
        "02_rulefiltered.jsonl",
        "lm.json",
        "03_pplfiltered.jsonl",
        "04_deduped.jsonl",
        "05_mix.jsonl",
        "run_manifest.json",
        "mix_manifest.json",
    ):
        assert (out / name).exists(), name
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == 7
    assert [s["stage"] for s in manifest["stages"]] == [
        "normalize",
        "filter-rules",
        "train-lm",
        "filter-ppl",
        "dedup",
        "mix",
    ]
    assert manifest["config_sha256"] == hashlib.sha256(
        (pipeline_inputs / "config.json").read_bytes()
    ).hexdigest()


def test_pipeline_rerun_is_byte_identical(pipeline_inputs):
    out = pipeline_inputs / "out"
    if not out.exists():
        run_cli("pipeline", "--config", str(pipeline_inputs / "config.json"))
    before = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    shutil.rmtree(out)
    result = run_cli("pipeline", "--config", str(pipeline_inputs / "config.json"))
    assert result.returncode == 0
    after = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert before == after


def test_pipeline_tokens_match_stage_outputs(pipeline_inputs, tmp_path):
    """No corpus file carries a token_count key, and each stage's manifest
    token total is the whitespace-token total of what the stage produced."""
    cfg = cli.load_config(pipeline_inputs / "config.json")
    cfg.out_dir = tmp_path / "out"
    manifest = cli.run_pipeline(cfg)

    def token_total(texts):
        return sum(len(text.split()) for text in texts)

    for path in cfg.out_dir.glob("*.jsonl"):
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert all("token_count" not in record for record in records), path.name
    produced = {
        "normalize": "01_normalized.jsonl",
        "filter-rules": "02_rulefiltered.jsonl",
        "filter-ppl": "03_pplfiltered.jsonl",
        "dedup": "04_deduped.jsonl",
        "mix": "05_mix.jsonl",
    }
    expected = {
        stage: token_total(doc.text for doc in read_documents(cfg.out_dir / name))
        for stage, name in produced.items()
    }
    rules = cleaning.build_default_ruleset()
    expected["train-lm"] = token_total(
        cleaning.clean_text(doc.text, rules) for doc in read_documents(cfg.seed_corpus)
    )
    assert {s["stage"]: s["tokens"] for s in manifest["stages"]} == expected


def test_pipeline_tokenization_budget(pipeline_inputs, tmp_path, monkeypatch):
    """The main corpus is tokenized once: filter-ppl scores the rule-filtered
    text, hands its tokens to dedup and counts them for filter-rules, and
    normalize recounts only the documents that filter-rules changed or
    emptied, in both versions. The seed corpus is tokenized to train,
    calibrate and count. The mix tokenizes nothing: dedup counted it all.
    The LM tokenizes with cli.TOKENIZER, and the counts are cli._token_total's."""
    returned = []
    real, real_total = WhitespaceTokenizer.tokenize, cli._token_total

    def counting(self, text):
        tokens = real(self, text)
        returned.append(len(tokens))
        return tokens

    def counting_total(docs):
        returned.append(real_total(docs))
        return returned[-1]

    monkeypatch.setattr(WhitespaceTokenizer, "tokenize", counting)
    monkeypatch.setattr(cli, "_token_total", counting_total)
    cfg = cli.load_config(pipeline_inputs / "config.json")
    cfg.out_dir = tmp_path / "out"
    tokens = {s["stage"]: s["tokens"] for s in cli.run_pipeline(cfg)["stages"]}
    normalized = {doc.id: doc.text for doc in read_documents(cfg.out_dir / "01_normalized.jsonl")}
    rulefiltered = {doc.id: doc.text for doc in read_documents(cfg.out_dir / "02_rulefiltered.jsonl")}
    changed = [doc_id for doc_id, text in normalized.items() if rulefiltered.get(doc_id) != text]
    recounted = sum(len(normalized[i].split()) + len(rulefiltered.get(i, "").split()) for i in changed)
    assert 0 < recounted < tokens["normalize"] // 10
    assert sum(returned) <= tokens["filter-rules"] + recounted + 3 * tokens["train-lm"]


def _scored_paragraphs(path) -> int:
    """Paragraphs the LM scores in the rule-cleaned corpus at `path`."""
    rules = cleaning.build_default_ruleset()
    return sum(
        1
        for doc in read_documents(path)
        for para in cleaning.split_paragraphs(cleaning.clean_text(doc.text, rules))
        if para.split()
    )


def test_failed_pass_replaces_no_stage_output(pipeline_inputs, tmp_path, monkeypatch):
    """LM scoring that fails three quarters of the way through the main
    corpus fails the run as filter-ppl, and no file of the pass is created
    or replaced."""
    fail_at = _scored_paragraphs(pipeline_inputs / "seed.jsonl") + 3 * _scored_paragraphs(
        pipeline_inputs / "corpus.jsonl"
    ) // 4
    calls = []
    real = lm.NGramLM.paragraph_log_probs

    def failing(self, tokens):
        calls.append(len(tokens))
        if len(calls) == fail_at:
            raise RuntimeError("scoring failed")
        return real(self, tokens)

    monkeypatch.setattr(lm.NGramLM, "paragraph_log_probs", failing)
    names = ("01_normalized.jsonl", "02_rulefiltered.jsonl", "03_pplfiltered.jsonl", "03_dropped.jsonl")
    cfg = cli.load_config(pipeline_inputs / "config.json")
    for existing in (False, True):
        cfg.out_dir = tmp_path / f"out-{existing}"
        cfg.out_dir.mkdir()
        if existing:
            for name in names:
                (cfg.out_dir / name).write_text(f"old {name}\n")
        calls.clear()
        with pytest.raises(cli.PipelineStageError) as excinfo:
            cli.run_pipeline(cfg)
        assert excinfo.value.stage == "filter-ppl"
        assert len(calls) == fail_at
        for name in names:
            if existing:
                assert (cfg.out_dir / name).read_text() == f"old {name}\n"
            else:
                assert not (cfg.out_dir / name).exists()
        assert not [p.name for p in cfg.out_dir.iterdir() if p.name.endswith(".tmp")]


def test_pipeline_reports_skipped_records_of_streamed_corpus(pipeline_inputs, tmp_path, capsys):
    cfg = cli.load_config(pipeline_inputs / "config.json")
    cfg.out_dir = tmp_path / "clean"
    clean = cli.run_pipeline(cfg)
    lines = (pipeline_inputs / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    broken = tmp_path / "corpus.jsonl"
    broken.write_text("".join(lines[:300] + ['{"id": "bad", "text": \n'] + lines[300:]), encoding="utf-8")
    capsys.readouterr()

    cfg.corpus, cfg.out_dir = broken, tmp_path / "lenient"
    assert cli.run_pipeline(cfg)["stages"] == clean["stages"]
    assert capsys.readouterr().err == f"lexcorpus: skipped 1 malformed records in {broken}\n"

    cfg.out_dir = tmp_path / "strict"
    with pytest.raises(cli.PipelineStageError) as excinfo:
        cli.run_pipeline(cfg, strict=True)
    assert excinfo.value.stage == "normalize"
    assert str(excinfo.value.cause).startswith("line 301: ")


def _config_value(pipeline_inputs, out_dir):
    """The fixture config with absolute input paths and `out_dir`. Path
    fields resolve relative to the config file, so the inputs are made
    absolute."""
    cfg = json.loads((pipeline_inputs / "config.json").read_text())
    for key in ("corpus", "seed_corpus"):
        cfg["paths"][key] = str(pipeline_inputs / cfg["paths"][key])
    cfg["paths"]["out_dir"] = str(out_dir)
    return cfg


def _moved_config(pipeline_inputs, tmp_path, **edits):
    """The fixture config with absolute input paths, out_dir under tmp_path,
    and top-level sections replaced (None deletes one)."""
    cfg = _config_value(pipeline_inputs, tmp_path / "out")
    for key, value in edits.items():
        if value is None:
            del cfg[key]
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_seed_override_changes_mix(pipeline_inputs, tmp_path):
    base = json.loads((pipeline_inputs / "out" / "mix_manifest.json").read_text())
    moved = _moved_config(pipeline_inputs, tmp_path)
    result = run_cli("pipeline", "--config", str(moved), "--seed", "99")
    assert result.returncode == 0, result.stderr
    overridden = json.loads((tmp_path / "out" / "mix_manifest.json").read_text())
    assert overridden["seed"] == 99
    assert overridden != base


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "--seed", "1", "-i", "in.jsonl", "-o", "out.jsonl"],
        ["normalize", "--config", "c.json", "-i", "in.jsonl", "-o", "out.jsonl"],
        ["pipeline", "--config", "c.json", "--workers", "2"],
        ["curate-prompts", "--strict", "-i", "p.txt", "-o", "q.txt", "--labels", "Yes"],
        ["pipeline"],
    ],
)
def test_removed_or_missing_flags_exit_1(argv):
    # argparse rejects bad usage by raising SystemExit; main returns other codes
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 1


def test_subcommands_reproduce_pipeline_outputs(pipeline_inputs, tmp_path):
    cfg = cli.load_config(pipeline_inputs / "config.json")
    cfg.out_dir = tmp_path / "pipeline"
    cli.run_pipeline(cfg)
    o = tmp_path / "steps"
    o.mkdir()
    steps = [
        ["normalize", "-i", pipeline_inputs / "corpus.jsonl", "-o", o / "01_normalized.jsonl"],
        ["filter-rules", "-i", o / "01_normalized.jsonl", "-o", o / "02_rulefiltered.jsonl"],
        ["filter-rules", "-i", pipeline_inputs / "seed.jsonl", "-o", o / "seed_clean.jsonl"],
        ["train-lm", "-i", o / "seed_clean.jsonl", "-o", o / "lm.json", "--order", "3"],
        [
            "filter-ppl", "-i", o / "02_rulefiltered.jsonl", "-o", o / "03_pplfiltered.jsonl",
            "--model", o / "lm.json", "--calibration-corpus", o / "seed_clean.jsonl",
            "--dropped", o / "03_dropped.jsonl", "--report", o / "filter_report.json",
        ],
        [
            "dedup", "-i", o / "03_pplfiltered.jsonl", "-o", o / "04_deduped.jsonl",
            "--seed", "7", "--report", o / "dedup_report.json",
        ],
    ]
    for argv in steps:
        assert cli.main([str(a) for a in argv]) == 0, argv
    for name in (
        "01_normalized.jsonl",
        "02_rulefiltered.jsonl",
        "lm.json",
        "03_pplfiltered.jsonl",
        "03_dropped.jsonl",
        "filter_report.json",
        "04_deduped.jsonl",
        "dedup_report.json",
    ):
        assert (o / name).read_bytes() == (cfg.out_dir / name).read_bytes(), name


def test_insufficient_tokens_exit_1_from_mix_and_pipeline(pipeline_inputs, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"entries": [{"source": "freelaw", "fraction": 1.0}], "token_budget": 10**9, "seed": 7}
    ))
    result = run_cli(
        "mix", "--spec", str(spec), "-i", f"freelaw={pipeline_inputs / 'corpus.jsonl'}",
        "-o", str(tmp_path / "mix.jsonl"), "--manifest", str(tmp_path / "manifest.json"),
    )
    assert result.returncode == 1, result.stderr
    assert "exhausted" in result.stderr

    cfg = json.loads((pipeline_inputs / "config.json").read_text())
    config = _moved_config(pipeline_inputs, tmp_path, mix=dict(cfg["mix"], token_budget=10**9))
    result = run_cli("pipeline", "--config", str(config))
    assert result.returncode == 1, result.stderr
    assert "stage 'mix' failed" in result.stderr
    assert "exhausted" in result.stderr
    # dedup's outputs come first, and stay
    out = tmp_path / "out"
    assert (out / "04_deduped.jsonl").stat().st_size > 0
    assert json.loads((out / "dedup_report.json").read_text())["tokens_after"] > 0
    assert not (out / "05_mix.jsonl").exists()


def test_config_without_mix_section_exits_1_before_any_stage(pipeline_inputs, tmp_path):
    config = _moved_config(pipeline_inputs, tmp_path, mix=None)
    result = run_cli("pipeline", "--config", str(config))
    assert result.returncode == 1
    assert "mix section" in result.stderr
    assert not (tmp_path / "out" / "01_normalized.jsonl").exists()


@pytest.mark.parametrize(
    "lm_section, message",
    [
        ({"granularity": "sentence"}, "granularity must be 'paragraph' or 'document'"),
        ({"percentile": 150}, "percentile must lie in (0, 100]"),
    ],
    ids=["granularity", "percentile"],
)
def test_config_with_a_bad_lm_section_exits_1_before_any_output(
    pipeline_inputs, tmp_path, capsys, lm_section, message
):
    config = _moved_config(pipeline_inputs, tmp_path, lm=lm_section)
    assert _main("pipeline", "--config", config) == 1
    assert capsys.readouterr().err == f"lexcorpus: {message}\n"
    assert not (tmp_path / "out").exists()


class _TextReport:
    def __init__(self, text):
        self.text = text

    def to_json(self):
        return self.text


def test_failed_report_write_leaves_old_report(tmp_path):
    path = tmp_path / "report.json"
    cli._write_report(path, _TextReport('{"kept": 1}'))
    before = path.read_bytes()
    assert before == b'{"kept": 1}\n'
    # the lone surrogate cannot be encoded, so the write fails after it began
    with pytest.raises(UnicodeEncodeError):
        cli._write_report(path, _TextReport('{"kept": 2, "note": "\ud800"}'))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


@pytest.fixture(scope="module")
def ppl_inputs(tmp_path_factory):
    """An order-3 model file and a small corpus to filter with it."""
    root = tmp_path_factory.mktemp("ppl")
    write_pipeline_inputs(root, seed=7, n_docs=40)
    assert cli.main(["train-lm", "-i", str(root / "seed.jsonl"), "-o", str(root / "lm.json"), "--order", "3"]) == 0
    return root


def _break_order(model):
    model["order"] = 5


def _drop_discounts(model):
    del model["discounts"]


def _break_vocab_start(model):
    model["vocab"][0], model["vocab"][3] = model["vocab"][3], model["vocab"][0]


def _repeat_vocab_token(model):
    model["vocab"][-1] = model["vocab"][-2]


def _break_key_arity(model):
    model["counts"][1]["3 4 5"] = 1


def _break_token_id(model):
    model["counts"][0][str(len(model["vocab"]))] = 1


def _zero_count(model):
    model["counts"][0] = dict.fromkeys(model["counts"][0], 0)


def _string_count(model):
    model["counts"][2][next(iter(model["counts"][2]))] = "1"


def _break_discount(model):
    model["discounts"][1] = 1.5


@pytest.mark.parametrize(
    "edit",
    [
        _break_order,
        _drop_discounts,
        _break_vocab_start,
        _repeat_vocab_token,
        _break_key_arity,
        _break_token_id,
        _zero_count,
        _string_count,
        _break_discount,
    ],
)
def test_filter_ppl_rejects_inconsistent_model(ppl_inputs, tmp_path, edit):
    model = json.loads((ppl_inputs / "lm.json").read_text())
    edit(model)
    broken = tmp_path / "lm.json"
    broken.write_text(json.dumps(model))
    out = tmp_path / "kept.jsonl"
    argv = ["filter-ppl", "-i", ppl_inputs / "corpus.jsonl", "-o", out, "--model", broken, "--threshold", "100"]
    assert cli.main([str(a) for a in argv]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "where, value, message",
    [
        (["discounts"], 5, "discounts must be a list of numbers"),
        (["discounts", 0], "0.5", "discounts must be a list of numbers"),
        (["vocab"], "<unk>", "vocab must be a list of strings"),
        (["vocab", 3], 3, "vocab must be a list of strings"),
        (["counts"], {}, "counts must be a list of objects"),
        (["counts", 1], [["3 4", 1]], "counts must be a list of objects"),
        (["counts", 0, "x"], 1, "order-1 counts hold a key that is not space-joined token ids"),
        (["version"], 2, "unsupported model version 2"),
    ],
    ids=[
        "discounts-int", "discount-string", "vocab-string", "token-int", "counts-object", "table-list", "key-x",
        "version-2",
    ],
)
def test_filter_ppl_rejects_mistyped_model(ppl_inputs, tmp_path, capsys, where, value, message):
    model = json.loads((ppl_inputs / "lm.json").read_text())
    target = model
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    broken = tmp_path / "lm.json"
    broken.write_text(json.dumps(model))
    out = tmp_path / "kept.jsonl"
    argv = ["filter-ppl", "-i", ppl_inputs / "corpus.jsonl", "-o", out, "--model", broken, "--threshold", "100"]
    assert cli.main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err == f"lexcorpus: {broken}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["filter-ppl", "ppl-report"])
def test_model_file_that_is_not_json_is_named(ppl_inputs, tmp_path, capsys, command):
    broken = tmp_path / "lm.json"
    broken.write_text("{not json\n")
    out = tmp_path / "out.json"
    argv = {
        "filter-ppl": ["filter-ppl", "-i", ppl_inputs / "corpus.jsonl", "-o", out, "--model", broken,
                       "--threshold", "100"],
        "ppl-report": ["ppl-report", "--model", broken, "--category", f"x={ppl_inputs / 'corpus.jsonl'}", "-o", out],
    }[command]
    assert cli.main([str(a) for a in argv]) == 1
    decoder = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    assert capsys.readouterr().err == f"lexcorpus: model {broken} is not valid JSON: {decoder}\n"
    assert not out.exists()


def test_train_lm_names_an_empty_seed_corpus(pipeline_inputs, tmp_path, capsys):
    empty, model = tmp_path / "empty.jsonl", tmp_path / "lm.json"
    empty.write_text("")
    assert _main("train-lm", "-i", empty, "-o", model) == 1
    assert capsys.readouterr().err == f"lexcorpus: seed corpus {empty} is empty after tokenization\n"
    assert not model.exists()
    # pipeline names the stage instead
    config = _moved_config(pipeline_inputs, tmp_path)
    cfg = json.loads(config.read_text())
    cfg["paths"]["seed_corpus"] = str(empty)
    config.write_text(json.dumps(cfg))
    assert _main("pipeline", "--config", config) == 1
    assert capsys.readouterr().err == "lexcorpus: stage 'train-lm' failed: seed corpus is empty after tokenization\n"


def test_filter_ppl_names_an_empty_calibration_corpus(ppl_inputs, tmp_path, capsys):
    empty, out = tmp_path / "empty.jsonl", tmp_path / "kept.jsonl"
    empty.write_text("")
    argv = ["filter-ppl", "-i", ppl_inputs / "corpus.jsonl", "-o", out, "--model", ppl_inputs / "lm.json",
            "--calibration-corpus", empty]
    assert _main(*argv) == 1
    assert capsys.readouterr().err == f"lexcorpus: calibration corpus {empty} has no scorable paragraphs\n"
    assert not out.exists()


def test_ppl_report_names_a_document_without_tokens(ppl_inputs, tmp_path, capsys):
    category, out = tmp_path / "cat.jsonl", tmp_path / "report.json"
    category.write_text('{"id": "e0", "source": "freelaw", "text": "a b"}\n{"id": "e1", "source": "freelaw", "text": "   "}\n')
    assert _main("ppl-report", "--model", ppl_inputs / "lm.json", "--category", f"odd={category}", "-o", out) == 1
    assert capsys.readouterr().err == "lexcorpus: category 'odd': document 'e1' has no tokens to score\n"
    assert not out.exists()


def _json_input(kind, ppl_inputs, out):
    """A valid value of each kind of JSON input file."""
    if kind == "config":
        return _config_value(ppl_inputs, out)
    if kind == "rule file":
        return [{"pattern": "x{3,}", "action": "delete_match"}]
    if kind == "model":
        return json.loads((ppl_inputs / "lm.json").read_text())
    if kind == "task file":
        return json.loads(sorted((ppl_inputs / "tasks").iterdir())[0].read_text())
    return {"entries": [{"source": "freelaw", "fraction": 1.0}], "token_budget": 100, "seed": 3}


def _argv(kind, broken, ppl_inputs, out):
    corpus_path = ppl_inputs / "corpus.jsonl"
    return {
        "config": ["pipeline", "--config", broken],
        "rule file": ["filter-rules", "-i", corpus_path, "-o", out / "ruled.jsonl", "--ruleset", broken],
        "model": ["filter-ppl", "-i", corpus_path, "-o", out / "kept.jsonl", "--model", broken, "--threshold", "100"],
        "task file": ["eval", "--task-dir", broken.parent, "--report", out / "eval.json"],
        "mix spec": ["mix", "--spec", broken, "-i", f"freelaw={corpus_path}", "-o", out / "mix.jsonl",
                     "--manifest", out / "manifest.json"],
    }[kind]


def _drop(key):
    return lambda value: {k: v for k, v in value.items() if k != key}


def _set(key, item):
    return lambda value: {**value, key: item}


_NOT_JSON = (
    b"{not json\n", " is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
)
_NOT_UTF8 = (b"\xff{}", " is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")
_TOO_DEEP = (
    b"[" * 100000 + b"]" * 100000,
    " is not valid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string",
)
_TASK_NOT_STRINGS = ": task 'argument_tone': name, category, template, labels and instances must be strings"


def _case(kind, case, edit, message=None):
    """`edit` makes a valid value malformed, or is a (file bytes, message)
    pair; `message` is the error's end after the file's path."""
    return pytest.param(kind, edit, message, id=f"{kind}-{case}")


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        *(_case(kind, case, raw) for kind in ("config", "rule file", "model", "task file", "mix spec")
          for case, raw in (("not-json", _NOT_JSON), ("not-utf8", _NOT_UTF8), ("too-deep", _TOO_DEEP))),
        _case("config", "missing", _drop("paths"), ": 'paths'"),
        _case("config", "mistyped", _set("seed", "x"), ": invalid literal for int() with base 10: 'x'"),
        _case("config", "mistyped-section", _set("lm", 5), ": 'int' object has no attribute 'get'"),
        _case("rule file", "missing", lambda rules: [_drop("pattern")(rules[0])], ": 'pattern'"),
        _case("rule file", "mistyped", lambda rules: [_set("pattern", 5)(rules[0])],
              ": first argument must be string or compiled pattern"),
        _case("rule file", "not-a-list", lambda rules: {"x": 1}, ": expected a JSON list of rule objects"),
        _case("rule file", "bad-action", lambda rules: [_set("action", "explode")(rules[0])],
              ": unknown rule action 'explode'"),
        _case("rule file", "bad-pattern", lambda rules: [_set("pattern", "(")(rules[0])],
              ": pattern '(' does not compile: missing ), unterminated subpattern at position 0"),
        _case("model", "missing", _drop("counts"), ": model lacks counts"),
        _case("model", "mistyped", _set("order", "3"), ": order '3' needs that many discounts and count tables"),
        _case("task file", "missing", _drop("instances"), ": 'instances'"),
        _case("task file", "mistyped", _set("prompt_template", 5), _TASK_NOT_STRINGS),
        _case("task file", "mistyped-instance", lambda task: {**task, "instances": [{"text": 5, "label": "Yes"}]},
              _TASK_NOT_STRINGS),
        _case("task file", "bad-category", _set("category", "nope"),
              ": task 'argument_tone': unknown category 'nope'"),
        _case("mix spec", "missing", _drop("seed"), ": 'seed'"),
        _case("mix spec", "mistyped", _set("seed", "x"), ": invalid literal for int() with base 10: 'x'"),
        _case("mix spec", "bad-fraction", _set("entries", [{"source": "freelaw", "fraction": 1.5}]),
              ": fraction for 'freelaw' outside [0, 1]"),
    ],
)
def test_every_malformed_json_input_exits_1_naming_its_file(ppl_inputs, tmp_path, capsys, kind, edit, message):
    broken, out = tmp_path / "in" / "broken.json", tmp_path / "out"
    broken.parent.mkdir()
    if isinstance(edit, tuple):
        (raw, message), prefix = edit, f"{kind} "
        broken.write_bytes(raw)
    else:
        # load_lm's own checks put the path first; the loaders' build errors are "malformed ..."
        prefix = "" if kind == "model" else f"malformed {kind} "
        broken.write_text(json.dumps(edit(_json_input(kind, ppl_inputs, out))))
    assert cli.main([str(a) for a in _argv(kind, broken, ppl_inputs, out)]) == 1
    assert capsys.readouterr().err == f"lexcorpus: {prefix}{broken}{message}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["in"]
    assert [path.name for path in broken.parent.iterdir()] == ["broken.json"]


@pytest.mark.parametrize("threshold", ["nan", "inf", "0"])
def test_filter_ppl_rejects_threshold_not_finite_and_positive(ppl_inputs, tmp_path, threshold):
    out, report = tmp_path / "kept.jsonl", tmp_path / "report.json"
    argv = [
        "filter-ppl", "-i", ppl_inputs / "corpus.jsonl", "-o", out, "--model", ppl_inputs / "lm.json",
        "--threshold", threshold, "--report", report,
    ]
    assert cli.main([str(a) for a in argv]) == 1
    assert list(tmp_path.iterdir()) == []


# -- streamed subcommands ---------------------------------------------------------


def _main(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def seed_lm(pipeline_inputs, tmp_path_factory):
    """An order-2 model of the fixture's seed corpus."""
    path = tmp_path_factory.mktemp("lm") / "lm.json"
    assert _main("train-lm", "-i", pipeline_inputs / "seed.jsonl", "-o", path, "--order", "2") == 0
    return path


def test_streamed_subcommands_see_at_most_one_batch(pipeline_inputs, seed_lm, tmp_path, monkeypatch):
    corpus = pipeline_inputs / "corpus.jsonl"
    n_docs = sum(1 for _ in read_documents(corpus))
    assert n_docs > cli._BATCH
    sizes = []

    def recording(real):
        def wrapper(docs, *args, **kwargs):
            sizes.append(len(docs))
            return real(docs, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "_clean", recording(cli._clean))
    monkeypatch.setattr(lm, "filter_by_perplexity", recording(lm.filter_by_perplexity))
    for argv in (
        ["normalize", "-i", corpus, "-o", tmp_path / "n.jsonl"],
        ["filter-rules", "-i", corpus, "-o", tmp_path / "r.jsonl"],
        ["filter-ppl", "-i", corpus, "-o", tmp_path / "p.jsonl", "--model", seed_lm,
         "--threshold", "1000", "--dropped", tmp_path / "d.jsonl"],
    ):
        sizes.clear()
        assert _main(*argv) == 0, argv
        assert max(sizes) <= cli._BATCH, argv
        assert sum(sizes) == n_docs, argv


@pytest.mark.parametrize("exact_only", [False, True])
def test_dedup_subcommand_matches_dedup_corpus(pipeline_inputs, tmp_path, exact_only):
    corpus = pipeline_inputs / "corpus.jsonl"
    flags = ["--exact-only"] if exact_only else []
    o = tmp_path / "cli"
    o.mkdir()
    argv = ["dedup", "-i", corpus, "-o", o / "out.jsonl", "--seed", "3", "--report", o / "report.json",
            "--clusters", o / "clusters.tsv", *flags]
    assert _main(*argv) == 0
    final, report = dedup.dedup_corpus(read_documents(corpus), seed=3, exact_only=exact_only)
    assert report.exact_removed > 0 and (exact_only or report.near_removed > 0)
    r = tmp_path / "ref"
    r.mkdir()
    write_documents(final, r / "out.jsonl")
    cli._write_report(r / "report.json", report)
    dedup.write_cluster_dump(report, r / "clusters.tsv")
    for name in ("out.jsonl", "report.json", "clusters.tsv"):
        assert (o / name).read_bytes() == (r / name).read_bytes(), name


def test_failed_filter_rules_leaves_existing_output(pipeline_inputs, tmp_path, monkeypatch):
    out = tmp_path / "out.jsonl"
    out.write_text("old output\n")
    calls = []
    real = cleaning.clean_text

    def failing(text, rules):
        calls.append(1)
        if len(calls) == cli._BATCH + 10:
            raise RuntimeError("cleaning failed")
        return real(text, rules)

    monkeypatch.setattr(cleaning, "clean_text", failing)
    assert _main("filter-rules", "-i", pipeline_inputs / "corpus.jsonl", "-o", out) == 2
    assert len(calls) == cli._BATCH + 10
    assert out.read_text() == "old output\n"
    assert list(tmp_path.iterdir()) == [out]


def _with_malformed_line(pipeline_inputs, tmp_path):
    lines = (pipeline_inputs / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    broken = tmp_path / "broken.jsonl"
    broken.write_text("".join(lines[:300] + ["not json\n"] + lines[300:]), encoding="utf-8")
    return broken


@pytest.mark.parametrize("command", ["normalize", "filter-rules", "filter-ppl", "dedup"])
def test_streamed_subcommands_report_malformed_records_once(pipeline_inputs, seed_lm, tmp_path, capsys, command):
    broken = _with_malformed_line(pipeline_inputs, tmp_path)
    extra = ["--model", seed_lm, "--threshold", "1000"] if command == "filter-ppl" else []
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert _main(command, "--strict", "-i", broken, "-o", out, *extra) == 1
    assert capsys.readouterr().err.startswith("lexcorpus: line 301: ")
    assert not out.exists()
    assert _main(command, "-i", broken, "-o", out, *extra) == 0
    assert capsys.readouterr().err == f"lexcorpus: skipped 1 malformed records in {broken}\n"


def _one_read_argv(command, broken, pipeline_inputs, seed_lm, tmp_path):
    """argv of a subcommand that reads the corpus `broken` whole, in one pass."""
    if command == "mix":
        spec = tmp_path / "spec.json"
        spec.write_text('{"entries": [{"source": "freelaw", "fraction": 1.0}], "token_budget": 1000, "seed": 3}')
        return ["mix", "--spec", spec, "-i", f"freelaw={broken}", "-o", tmp_path / "mix.jsonl",
                "--manifest", tmp_path / "manifest.json"]
    return {
        "ppl-report": ["ppl-report", "--model", seed_lm, "--baseline-model", seed_lm, "--category", f"x={broken}",
                       "-o", tmp_path / "report.json"],
        "filter-ppl": ["filter-ppl", "-i", pipeline_inputs / "corpus.jsonl", "-o", tmp_path / "kept.jsonl",
                       "--model", seed_lm, "--calibration-corpus", broken],
        "mine-ngrams": ["mine-ngrams", "-i", broken, "-o", tmp_path / "ngrams.tsv", "-n", "3"],
    }[command]


@pytest.mark.parametrize("command", ["ppl-report", "filter-ppl", "mix", "mine-ngrams"])
def test_one_read_subcommands_report_malformed_records_once(pipeline_inputs, seed_lm, tmp_path, capsys, command):
    broken = _with_malformed_line(pipeline_inputs, tmp_path)
    capsys.readouterr()
    assert _main(*_one_read_argv(command, broken, pipeline_inputs, seed_lm, tmp_path)) == 0
    assert capsys.readouterr().err == f"lexcorpus: skipped 1 malformed records in {broken}\n"


@pytest.mark.parametrize("command, option, name", [("mix", "--input", "freelaw"), ("ppl-report", "--category", "x")])
def test_a_name_given_twice_is_refused(pipeline_inputs, seed_lm, tmp_path, capsys, command, option, name):
    argv = _one_read_argv(command, pipeline_inputs / "corpus.jsonl", pipeline_inputs, seed_lm, tmp_path)
    capsys.readouterr()
    assert _main(*argv, option, f"{name}={os.devnull}") == 1
    assert capsys.readouterr() == ("", f"lexcorpus: {option} names {name!r} twice\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["spec.json"] if command == "mix" else [])


def test_normalize_in_place_matches_separate_output(pipeline_inputs, tmp_path):
    separate = tmp_path / "separate.jsonl"
    in_place = tmp_path / "in_place.jsonl"
    shutil.copyfile(pipeline_inputs / "corpus.jsonl", in_place)
    assert _main("normalize", "-i", pipeline_inputs / "corpus.jsonl", "-o", separate) == 0
    assert _main("normalize", "-i", in_place, "-o", in_place) == 0
    assert in_place.read_bytes() == separate.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in_place.jsonl", "separate.jsonl"]


@pytest.mark.parametrize("command", ["normalize", "filter-rules", "filter-ppl --dropped", "dedup"])
def test_output_linked_to_input_is_refused(pipeline_inputs, seed_lm, tmp_path, capsys, command):
    """A symlink is written straight through, so a streamed stage writing
    to a link to its input would truncate the input before reading it."""
    corpus = tmp_path / "corpus.jsonl"
    shutil.copyfile(pipeline_inputs / "corpus.jsonl", corpus)
    before = corpus.read_bytes()
    link = tmp_path / "link.jsonl"
    link.symlink_to(corpus)
    argv = [command.split()[0], "-i", corpus, "-o", link]
    if command == "filter-ppl --dropped":
        argv[-1] = tmp_path / "kept.jsonl"
        argv += ["--dropped", link, "--model", seed_lm, "--threshold", "1000"]
    capsys.readouterr()
    assert _main(*argv) == 1
    assert f"is the input {corpus}" in capsys.readouterr().err
    assert corpus.read_bytes() == before
    assert not (tmp_path / "kept.jsonl").exists()


def _multi_output_argv(command, pipeline_inputs, seed_lm, tmp_path):
    """`command`'s arguments but for its outputs, and its required output flags."""
    corpus = pipeline_inputs / "corpus.jsonl"
    if command == "mix":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"entries": [{"source": "freelaw", "fraction": 1.0}], "token_budget": 100, "seed": 0}
        ))
        return ["mix", "--spec", spec, "-i", f"freelaw={corpus}"], ["-o", "--manifest"]
    return {
        "filter-ppl": (["filter-ppl", "-i", corpus, "--model", seed_lm, "--threshold", "1000"], ["-o"]),
        "dedup": (["dedup", "-i", corpus], ["-o"]),
        "gen-instructions": (["gen-instructions", "--examples", pipeline_inputs / "examples.jsonl"], ["-o"]),
        "eval": (["eval", "--task-dir", pipeline_inputs / "tasks"], []),
    }[command]


@pytest.mark.parametrize(
    "command, first, second",
    [
        ("filter-ppl", "-o", "--dropped"),
        ("filter-ppl", "-o", "--report"),
        ("filter-ppl", "--dropped", "--report"),
        ("dedup", "-o", "--report"),
        ("dedup", "-o", "--clusters"),
        ("dedup", "--report", "--clusters"),
        ("mix", "-o", "--manifest"),
        ("gen-instructions", "-o", "--corpus-out"),
        ("eval", "--report", "--dump"),
    ],
)
def test_two_outputs_naming_one_file_are_refused(
    pipeline_inputs, seed_lm, tmp_path, capsys, command, first, second
):
    """The output written last would replace the other, so two output flags
    that resolve to one path exit 1 before any output is opened, whether the
    file exists or not."""
    argv, required = _multi_output_argv(command, pipeline_inputs, seed_lm, tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    same, spelled = out / "same", f"{out}/./same"
    for flag in required:
        if flag not in (first, second):
            argv += [flag, out / flag.strip("-")]
    for existing in (False, True):
        if existing:
            same.write_text("old\n")
        capsys.readouterr()
        assert _main(*argv, first, same, second, spelled) == 1
        assert capsys.readouterr().err == (
            f"lexcorpus: outputs {same} and {spelled} are one file: write them to different paths\n"
        )
        assert [p.name for p in out.iterdir()] == (["same"] if existing else [])
        assert not existing or same.read_text() == "old\n"


def test_two_outputs_to_one_device_are_written(pipeline_inputs, seed_lm, tmp_path):
    argv, _ = _multi_output_argv("filter-ppl", pipeline_inputs, seed_lm, tmp_path)
    assert _main(*argv, "-o", tmp_path / "kept.jsonl", "--dropped", os.devnull, "--report", os.devnull) == 0
    assert (tmp_path / "kept.jsonl").stat().st_size > 0


def test_pipeline_refuses_a_stage_output_linked_to_its_corpus(pipeline_inputs, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    shutil.copyfile(pipeline_inputs / "corpus.jsonl", corpus)
    before = corpus.read_bytes()
    cfg = cli.load_config(pipeline_inputs / "config.json")
    cfg.corpus, cfg.out_dir = corpus, tmp_path / "out"
    cfg.out_dir.mkdir()
    (cfg.out_dir / "02_rulefiltered.jsonl").symlink_to(corpus)
    with pytest.raises(cli.PipelineStageError) as excinfo:
        cli.run_pipeline(cfg)
    assert excinfo.value.stage == "normalize"
    assert isinstance(excinfo.value.cause, ValueError)
    assert corpus.read_bytes() == before
    assert not (cfg.out_dir / "01_normalized.jsonl").exists()


@pytest.mark.parametrize(
    "owner, name, stage",
    [
        (cleaning, "normalize_text", "normalize"),
        (cleaning, "clean_text", "filter-rules"),
        (lm, "calibrate_threshold", "filter-ppl"),
        (lm.FilterReport, "to_json", "filter-ppl"),
        (dedup.Deduplicator, "add_batch", "dedup"),
        (dedup.Deduplicator, "resolve", "dedup"),
        (mix, "assemble_mix", "mix"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_pipeline_charges_a_failure_to_the_stage_it_happens_in(
    pipeline_inputs, tmp_path, monkeypatch, capsys, owner, name, stage
):
    """A RuntimeError planted in one stage's work names that stage. The work
    done per batch of the main corpus fails in its second batch, so that a
    stage left running from the first batch would show."""
    main_text = list(read_documents(pipeline_inputs / "corpus.jsonl"))[cli._BATCH].text
    seed_docs = list(read_documents(pipeline_inputs / "seed.jsonl"))
    # clean_text normalizes too, so normalize_text fails on the text that
    # only the main corpus's normalize sees first; the seed corpus is
    # rule-cleaned under train-lm, so clean_text fails only after it
    assert main_text not in [doc.text for doc in seed_docs]
    passing = {"clean_text": len(seed_docs) + cli._BATCH, "add_batch": 1}.get(name, 0)
    calls = []
    real = getattr(owner, name)

    def failing(*args, **kwargs):
        calls.append(1)
        fails = args[0] == main_text if name == "normalize_text" else len(calls) > passing
        if fails:
            raise RuntimeError("planted")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)
    config = _moved_config(pipeline_inputs, tmp_path)
    with pytest.raises(cli.PipelineStageError) as excinfo:
        cli.run_pipeline(cli.load_config(config))
    assert excinfo.value.stage == stage
    assert str(excinfo.value.cause) == "planted"
    calls.clear()
    capsys.readouterr()
    assert _main("pipeline", "--config", config) == 2
    assert capsys.readouterr().err == f"lexcorpus: stage {stage!r} failed: planted\n"


def test_dedup_rejects_a_pipe_input(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    out = tmp_path / "out.jsonl"
    result = subprocess.run(
        [sys.executable, "-m", "lexcorpus.cli", "dedup", "-i", str(fifo), "-o", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1
    assert "must be a regular file" in result.stderr
    assert not out.exists()
    doc = '{"id":"1","source":"freelaw","text":"a b c"}\n'
    result = subprocess.run(
        [sys.executable, "-m", "lexcorpus.cli", "dedup", "-i", "/dev/stdin", "-o", str(out)],
        input=doc, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1
    assert "must be a regular file" in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo"]


@pytest.mark.parametrize("flag", ["--permutations", "--shingle-n"])
def test_dedup_rejects_bad_sketch_parameters_before_any_output(tmp_path, flag):
    empty = tmp_path / "in.jsonl"
    empty.write_text("")
    out = tmp_path / "out.jsonl"
    result = run_cli("dedup", "-i", str(empty), "-o", str(out), "--report", str(tmp_path / "r.json"), flag, "0")
    assert result.returncode == 1
    assert "must be >= 1" in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


def test_pipeline_rejects_bad_sketch_parameters_before_any_stage(pipeline_inputs, tmp_path):
    config = _moved_config(pipeline_inputs, tmp_path, dedup={"shingle_n": 5, "permutations": 0, "threshold": 0.7})
    result = run_cli("pipeline", "--config", str(config))
    assert result.returncode == 1
    assert "must be >= 1" in result.stderr
    assert list((tmp_path / "out").iterdir()) == []


def test_reread_that_differs_from_first_read_raises(pipeline_inputs):
    corpus = pipeline_inputs / "corpus.jsonl"
    ids = [doc.id for doc in read_documents(corpus)]
    assert [doc.id for doc in cli._survivors(corpus, True, ids, {0})] == ids[1:]
    for changed in (ids[::-1], ids[:-1], ids + ["added"]):
        with pytest.raises(CorpusError, match="changed between two reads"):
            list(cli._survivors(corpus, True, changed, set()))


def test_pipeline_encodes_each_written_document_once(pipeline_inputs, tmp_path, monkeypatch):
    """A stage passes a document whose text it leaves unchanged on as the
    same object, a batch's outputs share the line of each object, and 04
    copies the lines of 03: one encode per distinct document written."""
    encoded = []
    real = corpus.document_to_json

    def counting(doc):
        encoded.append(doc)  # keeps the object alive, so that its id() stays unique
        return real(doc)

    monkeypatch.setattr(corpus, "document_to_json", counting)
    cfg = cli.load_config(pipeline_inputs / "config.json")
    cfg.out_dir = tmp_path / "out"
    cli.run_pipeline(cfg)
    assert len({id(doc) for doc in encoded}) == len(encoded)

    def texts(name):
        return {doc.id: doc.text for doc in read_documents(cfg.out_dir / name)}

    normalized = texts("01_normalized.jsonl")
    rulefiltered = texts("02_rulefiltered.jsonl")
    kept = texts("03_pplfiltered.jsonl")
    dropped = texts("03_dropped.jsonl")
    mixed = texts("05_mix.jsonl")
    # a stage makes a new document only where it changes the text; 04 adds none
    distinct = (
        len(normalized)
        + sum(text != normalized[doc_id] for doc_id, text in rulefiltered.items())
        + sum(text != rulefiltered[doc_id] for doc_id, text in kept.items())
        + len(dropped)
        + len(mixed)
    )
    assert len(encoded) == distinct < len(normalized) + len(rulefiltered) + len(kept) + len(dropped) + len(mixed)

    def lines(name):
        return (cfg.out_dir / name).read_bytes().splitlines(keepends=True)

    lines_03 = {json.loads(line)["id"]: line for line in lines("03_pplfiltered.jsonl")}
    lines_04 = lines("04_deduped.jsonl")
    assert 0 < len(lines_04) < len(lines_03)
    assert all(line == lines_03[json.loads(line)["id"]] for line in lines_04)


def test_dedup_rewrites_a_non_canonical_input_canonically(pipeline_inputs, tmp_path):
    """dedup cannot copy its input's lines: they may hold other keys, in
    another order, with other escapes."""
    rng = random.Random(0)
    lines, canonical = [], {}
    for doc in read_documents(pipeline_inputs / "corpus.jsonl"):
        record = {"id": doc.id, "source": doc.source.name, "text": doc.text + " café", "meta": {"b": "é", "a": "1"}}
        canonical[doc.id] = json.dumps(record, ensure_ascii=False, sort_keys=True)
        items = [*record.items(), ("token_count", 7)]
        rng.shuffle(items)
        lines.append(json.dumps(dict(items)))  # escapes é as \u00e9
    src = tmp_path / "in.jsonl"
    src.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    out = tmp_path / "out.jsonl"
    assert _main("dedup", "-i", src, "-o", out, "--report", tmp_path / "report.json") == 0
    written = out.read_text(encoding="utf-8").splitlines()
    assert 0 < len(written) < len(lines)
    assert all(line == canonical[json.loads(line)["id"]] for line in written)


def test_normalize_treats_a_lone_surrogate_outside_text_as_malformed(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    src.write_text(
        '{"id": "ok", "source": "freelaw", "text": "fine"}\n'
        '{"id": "m", "source": "freelaw", "text": "t", "meta": {"k": "\\ud800"}}\n'
    )
    out = tmp_path / "out.jsonl"
    assert _main("normalize", "-i", src, "-o", out) == 0
    assert [doc.id for doc in read_documents(out)] == ["ok"]
    assert capsys.readouterr().err == f"lexcorpus: skipped 1 malformed records in {src}\n"
    assert _main("normalize", "--strict", "-i", src, "-o", tmp_path / "strict.jsonl") == 1
    assert capsys.readouterr().err.startswith("lexcorpus: line 2: record is not valid Unicode")
    assert not (tmp_path / "strict.jsonl").exists()


# -- corpus inputs that are directories, FIFOs or stdin ----------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "-i", "{dir}", "-o", "{out}/n.jsonl"],
        ["filter-rules", "-i", "{dir}", "-o", "{out}/r.jsonl"],
        ["mine-ngrams", "-i", "{dir}", "-o", "{out}/ngrams.tsv"],
        ["train-lm", "-i", "{dir}", "-o", "{out}/lm.json"],
        ["filter-ppl", "-i", "{dir}", "-o", "{out}/p.jsonl", "--model", "{lm}", "--threshold", "1000"],
        ["filter-ppl", "-i", "{corpus}", "-o", "{out}/p.jsonl", "--model", "{lm}", "--calibration-corpus", "{dir}"],
        ["ppl-report", "--model", "{lm}", "--category", "x={dir}", "-o", "{out}/report.json"],
        ["mix", "--spec", "{spec}", "-i", "freelaw={dir}", "-o", "{out}/mix.jsonl", "--manifest", "{out}/m.json"],
    ],
    ids=["normalize", "filter-rules", "mine-ngrams", "train-lm", "filter-ppl", "filter-ppl-calibration", "ppl-report",
         "mix"],
)
def test_a_directory_as_corpus_input_exits_1_naming_it(pipeline_inputs, seed_lm, tmp_path, capsys, argv):
    directory, out = tmp_path / "a-dir", tmp_path / "out"
    directory.mkdir()
    out.mkdir()
    spec = tmp_path / "spec.json"
    spec.write_text('{"entries": [{"source": "freelaw", "fraction": 1.0}], "token_budget": 10, "seed": 0}')
    names = {"dir": directory, "out": out, "lm": seed_lm, "corpus": pipeline_inputs / "corpus.jsonl", "spec": spec}
    argv = [arg.format(**names) for arg in argv]
    capsys.readouterr()
    assert _main(*argv) == 1
    assert capsys.readouterr().err == f"lexcorpus: corpus file is a directory: {directory}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("key", ["corpus", "seed_corpus"])
def test_pipeline_with_a_directory_as_corpus_exits_1_before_any_stage(pipeline_inputs, tmp_path, capsys, key):
    directory = tmp_path / "a-dir"
    directory.mkdir()
    config = _moved_config(pipeline_inputs, tmp_path)
    cfg = json.loads(config.read_text())
    cfg["paths"][key] = str(directory)
    config.write_text(json.dumps(cfg))
    assert _main("pipeline", "--config", config) == 1
    assert capsys.readouterr().err == f"lexcorpus: config path {key} is a directory: {directory}\n"
    assert not (tmp_path / "out").exists()


def test_streamed_subcommands_read_a_fifo_and_piped_stdin(pipeline_inputs, tmp_path):
    corpus = pipeline_inputs / "corpus.jsonl"
    expected = tmp_path / "expected.jsonl"
    assert _main("normalize", "-i", corpus, "-o", expected) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(corpus.read_bytes()), daemon=True)
    writer.start()
    assert _main("normalize", "-i", fifo, "-o", tmp_path / "from-fifo.jsonl") == 0
    writer.join(timeout=60)
    assert (tmp_path / "from-fifo.jsonl").read_bytes() == expected.read_bytes()
    with open(corpus, "rb") as stdin:
        result = subprocess.run(
            [sys.executable, "-m", "lexcorpus.cli", "normalize", "-i", "/dev/stdin", "-o", str(tmp_path / "piped.jsonl")],
            stdin=stdin, capture_output=True, timeout=120,
        )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "piped.jsonl").read_bytes() == expected.read_bytes()


# -- a command loads only the stage modules it runs ------------------------------


def test_corpus_only_commands_do_not_import_numpy(pipeline_inputs, tmp_path):
    # Measured on Linux, Python 3.11, when each import was made lazy: numpy
    # raised the VmHWM of a process that imports lexcorpus.cli from about 22
    # to 35 MiB, and lm, mix, instruct, evaluation and OpenSSL (_hashlib)
    # by another 8.8 MiB, for commands that run none of them.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    corpus = pipeline_inputs / "corpus.jsonl"
    heavy = ["_hashlib", "lexcorpus.dedup", "lexcorpus.evaluation", "lexcorpus.instruct", "lexcorpus.lm",
             "lexcorpus.mix", "numpy"]
    code = (
        "import json, sys, lexcorpus.cli as cli\n"
        f"heavy = {heavy!r}\n"
        "cli.build_parser()\n"
        "loaded = [[m for m in heavy if m in sys.modules]]\n"
        f"assert cli.main(['normalize', '-i', {str(corpus)!r}, '-o', {str(tmp_path / 'n.jsonl')!r}]) == 0\n"
        f"assert cli.main(['filter-rules', '-i', {str(tmp_path / 'n.jsonl')!r}, '-o', {str(tmp_path / 'r.jsonl')!r}]) == 0\n"
        "loaded.append([m for m in heavy if m in sys.modules])\n"
        f"cli.load_config({str(pipeline_inputs / 'config.json')!r})\n"
        "loaded.append([m for m in heavy if m in sys.modules])\n"
        f"assert cli.main(['pipeline', '--config', {str(_moved_config(pipeline_inputs, tmp_path))!r}]) == 0\n"
        "loaded.append([m for m in heavy if m in sys.modules])\n"
        "print(json.dumps(loaded))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    parsed, normalized, configured, piped = json.loads(out.stdout.splitlines()[-1])
    assert parsed == normalized == []
    assert configured == ["_hashlib", "lexcorpus.dedup", "numpy"]
    assert piped == ["_hashlib", "lexcorpus.dedup", "lexcorpus.lm", "lexcorpus.mix", "numpy"]


# -- exit codes -------------------------------------------------------------------

INPUT_ERRORS = [
    cli.ConfigError,
    CorpusError,
    cleaning.RuleConfigError,
    lm.TrainingError,
    lm.ScoreError,
    mix.MixError,
    instruct.TemplateError,
    evaluation.TaskFormatError,
    evaluation.CurationError,
]


@pytest.mark.parametrize(
    "error, code",
    [(error, 1) for error in INPUT_ERRORS]
    + [(instruct.BackendError, 2), (instruct.MalformedResponseError, 2), (instruct.ExtensionError, 2),
       (RuntimeError, 2)],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_exit_code_of_each_error_class(pipeline_inputs, tmp_path, monkeypatch, capsys, error, code):
    assert issubclass(error, InputError) == (code == 1)

    def failing(docs, rules):
        raise error("planted")

    # normalize raises it directly; pipeline wraps it in PipelineStageError
    monkeypatch.setattr(cli, "_clean", failing)
    assert _main("normalize", "-i", pipeline_inputs / "corpus.jsonl", "-o", tmp_path / "n.jsonl") == code
    assert _main("pipeline", "--config", _moved_config(pipeline_inputs, tmp_path)) == code
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1] == "lexcorpus: stage 'train-lm' failed: planted"
    assert lines[0] == ("lexcorpus: planted" if code == 1 else "lexcorpus: unexpected failure: planted")


def test_dedup_defaults_come_from_the_deduplicator(pipeline_inputs, tmp_path):
    corpus = pipeline_inputs / "corpus.jsonl"
    defaults = ["--shingle-n", dedup.DEFAULT_SHINGLE_N, "--permutations", dedup.DEFAULT_PERMUTATIONS,
                "--threshold", dedup.DEFAULT_THRESHOLD]
    for name, flags in (("bare", []), ("explicit", defaults)):
        assert _main("dedup", "-i", corpus, "-o", tmp_path / f"{name}.jsonl",
                     "--report", tmp_path / f"{name}.json", *flags) == 0
    for suffix in (".jsonl", ".json"):
        assert (tmp_path / f"bare{suffix}").read_bytes() == (tmp_path / f"explicit{suffix}").read_bytes()
    cfg = cli.load_config(_moved_config(pipeline_inputs, tmp_path, dedup=None))
    assert (cfg.dedup_shingle_n, cfg.dedup_permutations, cfg.dedup_threshold) == (
        dedup.DEFAULT_SHINGLE_N, dedup.DEFAULT_PERMUTATIONS, dedup.DEFAULT_THRESHOLD
    )


# -- directories where a subcommand reads or writes a non-corpus file -----------


@pytest.mark.parametrize(
    "argv",
    [
        ["filter-rules", "-i", "{corpus}", "-o", "{out}/r.jsonl", "--ruleset", "{dir}"],
        ["filter-ppl", "-i", "{corpus}", "-o", "{out}/p.jsonl", "--model", "{dir}", "--threshold", "1000"],
        ["normalize", "-i", "{corpus}", "-o", "{dir}"],
    ],
    ids=["filter-rules-ruleset", "filter-ppl-model", "normalize-output"],
)
def test_a_directory_as_a_non_corpus_path_exits_1_naming_it(pipeline_inputs, tmp_path, capsys, argv):
    directory, out = tmp_path / "a-dir", tmp_path / "out"
    directory.mkdir()
    out.mkdir()
    names = {"dir": directory, "out": out, "corpus": pipeline_inputs / "corpus.jsonl"}
    capsys.readouterr()
    assert _main(*[arg.format(**names) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err == f"lexcorpus: [Errno 21] Is a directory: {str(directory)!r}\n"
    assert list(out.iterdir()) == list(directory.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-dir", "out"]


def test_pipeline_with_a_directory_as_ruleset_exits_1_before_any_stage(pipeline_inputs, tmp_path, capsys):
    directory = tmp_path / "a-dir"
    directory.mkdir()
    config = _moved_config(pipeline_inputs, tmp_path, cleaning={"ruleset": str(directory)})
    assert _main("pipeline", "--config", config) == 1
    assert capsys.readouterr().err == f"lexcorpus: ruleset file is a directory: {directory}\n"
    assert not (tmp_path / "out").exists()
    assert list(directory.iterdir()) == []


# -- counts and reads that the pipeline takes from earlier stages -----------------


def _token_total(texts) -> int:
    return sum(len(text.split()) for text in texts)


@pytest.mark.parametrize("granularity", ["paragraph", "document"])
def test_normalize_count_covers_documents_that_filter_rules_changed_or_emptied(
    pipeline_inputs, tmp_path, granularity
):
    """normalize's count is filter-ppl's total plus what filter-rules took
    out; in this corpus filter-rules changes some documents and empties
    others, some of them with tokens and some without."""
    lines = []
    for i, doc in enumerate(read_documents(pipeline_inputs / "corpus.jsonl")):
        text = doc.text + "\n\n========== closing words" if i % 7 == 0 else doc.text
        lines.append({"id": doc.id, "source": doc.source.name, "text": text})
    lines += [{"id": f"rules-empty-{i}", "source": "freelaw", "text": "---------- " * (i + 1)} for i in range(5)]
    lines += [{"id": f"blank-{i}", "source": "freelaw", "text": " \n\n "} for i in range(2)]
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    lm_cfg = dict(json.loads((pipeline_inputs / "config.json").read_text())["lm"], granularity=granularity)
    # a document-level filter drops every instruction document, so the mix takes one source
    freelaw_mix = {"entries": [{"source": "freelaw", "fraction": 1.0}], "token_budget": 1000}
    config = _moved_config(pipeline_inputs, tmp_path, lm=lm_cfg, mix=freelaw_mix)
    edited = json.loads(config.read_text())
    edited["paths"]["corpus"] = str(corpus_path)
    config.write_text(json.dumps(edited))
    cfg = cli.load_config(config)
    tokens = {s["stage"]: s["tokens"] for s in cli.run_pipeline(cfg)["stages"]}

    normalized = {doc.id: doc.text for doc in read_documents(cfg.out_dir / "01_normalized.jsonl")}
    rulefiltered = {doc.id: doc.text for doc in read_documents(cfg.out_dir / "02_rulefiltered.jsonl")}
    assert len(normalized) == len(lines)
    assert len(rulefiltered) == len(normalized) - 7
    assert sum(rulefiltered[i] != text for i, text in normalized.items() if i in rulefiltered) >= 50
    assert tokens["normalize"] == _token_total(normalized.values())
    assert tokens["filter-rules"] == _token_total(rulefiltered.values())


def _mix_of(path: Path, spec) -> tuple:
    """05_mix.jsonl and mix_manifest.json as assemble_mix makes them from the
    decoded corpus at `path`."""
    docs = list(read_documents(path))
    sources = {name: [doc for doc in docs if doc.source.name == name] for name, _ in spec.entries}
    mixed, manifest = mix.assemble_mix(sources, spec, lambda doc: (doc.id, len(doc.text.split())))
    out = path.parent / "assembled.jsonl"
    write_documents(mixed, out)
    return out.read_bytes(), manifest.to_json() + "\n"


@pytest.mark.parametrize("seed", [7, 11, 12345])
def test_pipeline_mix_equals_assemble_mix_of_04(pipeline_inputs, tmp_path, seed):
    cfg = cli.load_config(pipeline_inputs / "config.json")
    cfg.out_dir, cfg.seed = tmp_path / "out", seed
    cli.run_pipeline(cfg)
    mix_bytes, manifest_text = _mix_of(cfg.out_dir / "04_deduped.jsonl", cfg.mix_spec())
    assert (cfg.out_dir / "05_mix.jsonl").read_bytes() == mix_bytes
    assert (cfg.out_dir / "mix_manifest.json").read_text(encoding="utf-8") == manifest_text
    assert json.loads(manifest_text)["seed"] == seed


def test_pipeline_decodes_only_the_lines_the_mix_takes_after_dedup(pipeline_inputs, tmp_path, monkeypatch):
    decoded_after_resolve = []
    resolved = []
    real_resolve, real_parse = dedup.Deduplicator.resolve, corpus._parse_record

    def resolve(self):
        resolved.append(True)
        return real_resolve(self)

    def parse(raw, lineno):
        if resolved:
            decoded_after_resolve.append(raw)
        return real_parse(raw, lineno)

    monkeypatch.setattr(dedup.Deduplicator, "resolve", resolve)
    monkeypatch.setattr(corpus, "_parse_record", parse)
    cfg = cli.load_config(pipeline_inputs / "config.json")
    cfg.out_dir = tmp_path / "out"
    manifest = cli.run_pipeline(cfg)
    mixed = (cfg.out_dir / "05_mix.jsonl").read_bytes().splitlines(keepends=True)
    deduped = (cfg.out_dir / "04_deduped.jsonl").read_bytes().splitlines(keepends=True)
    assert {s["stage"]: s["documents"] for s in manifest["stages"]}["mix"] == len(mixed) < len(deduped)
    assert resolved == [True]
    assert sorted(decoded_after_resolve) == sorted(mixed)


def _drop_last_line(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]))
    return f"{len(lines) - 1} documents, not {len(lines)}"


def _rename_a_document(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[5])
    record["id"] = "renamed"
    lines[5] = (json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")
    path.write_bytes(b"".join(lines))
    return "document 6 is now 'renamed'"


def _drop_a_middle_line(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:5] + lines[6:]))
    return f"document 6 is now {json.loads(lines[6])['id']!r}"


@pytest.mark.parametrize("rewrite", [_rename_a_document, _drop_last_line, _drop_a_middle_line])
def test_pipeline_fails_dedup_when_03_changes_before_it_is_copied(
    pipeline_inputs, tmp_path, monkeypatch, capsys, rewrite
):
    pplfiltered = tmp_path / "out" / "03_pplfiltered.jsonl"
    messages = []
    real_resolve = dedup.Deduplicator.resolve

    def resolve(self):
        messages.append(rewrite(pplfiltered))
        return real_resolve(self)

    monkeypatch.setattr(dedup.Deduplicator, "resolve", resolve)
    config = _moved_config(pipeline_inputs, tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "04_deduped.jsonl").write_text("old 04\n")
    capsys.readouterr()
    assert _main("pipeline", "--config", config) == 1
    (message,) = messages
    assert capsys.readouterr().err == (
        f"lexcorpus: stage 'dedup' failed: {pplfiltered} changed between two reads: {message}\n"
    )
    assert (tmp_path / "out" / "04_deduped.jsonl").read_text() == "old 04\n"
    assert not (tmp_path / "out" / "dedup_report.json").exists()
    assert not [p.name for p in (tmp_path / "out").iterdir() if p.name.endswith(".tmp")]
