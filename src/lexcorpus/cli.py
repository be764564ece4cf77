"""Command-line front end binding every stage to config files and flags.

Subcommands map 1:1 to module operations; `pipeline` chains the offline data
path (normalize, rule filtering, LM training, perplexity filtering, dedup,
mix) and writes a run manifest with the config hash, seed, and one entry of
document/token counts per stage, made up front and filled in by that stage.
A stage's work is done by one body that both its subcommand and `pipeline`
call (`_clean`, `lm.filter_by_perplexity`, `dedup.Deduplicator`, ...).
`pipeline` streams the main corpus through normalize, filter-rules,
filter-ppl and dedup in batches of documents, and the `normalize`,
`filter-rules`, `filter-ppl` and `dedup` subcommands stream their input
through the same batch loop, once. Instruction generation and evaluation
take a chat endpoint and therefore stay outside `pipeline`.

Exit codes: 0 success, 1 validation failure (bad config, flags, or input
files: a corpus.InputError or one of the builtins in _VALIDATION_ERRORS),
2 runtime failure mid-run. A failed `pipeline` stage, the one whose entry
was running, exits with the code its cause gets from its own subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import stat
import sys
import tempfile
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

# Every other stage module is imported by the commands that run it, so that a
# command loads only what it runs: dedup brings numpy and OpenSSL (hashlib),
# and a pipeline, which always deduplicates, never loads instruct or evaluation.
from . import cleaning, corpus
from .corpus import (
    BUFFER_SIZE,
    CorpusError,
    CorpusReader,
    Document,
    InputError,
    WhitespaceTokenizer,
    atomic_write,
    canonical_prefix,
    encode_line,
    read_documents,
    write_documents,
    write_lines,
)

if TYPE_CHECKING:
    from . import instruct, lm, mix

# The `tok` of lm.train_lm, calibrate_threshold and filter_by_perplexity, which
# perfbench/worker.py passes too; every other token count here is str.split's
TOKENIZER = WhitespaceTokenizer()


class ConfigError(InputError):
    """Pipeline config malformed, or referencing absent paths."""


class PipelineStageError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


_VALIDATION_ERRORS = (InputError, FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (validation) instead of 2 on bad usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


# -- config -------------------------------------------------------------------


class PipelineConfig:
    """Validated view of the JSON config file; relative paths resolve
    against the config file's directory."""

    def __init__(self, payload: dict, base_dir: Path, path: Path):
        from . import dedup

        self.base_dir = base_dir
        self.path = path
        self.seed = int(payload["seed"])
        paths = payload["paths"]
        self.corpus = self._resolve(paths["corpus"])
        self.seed_corpus = self._resolve(paths["seed_corpus"])
        self.out_dir = self._resolve(paths.get("out_dir", "out"))
        ruleset = payload.get("cleaning", {}).get("ruleset")
        self.ruleset_path = self._resolve(ruleset) if ruleset else None
        lm_cfg = payload.get("lm", {})
        self.lm_order = int(lm_cfg.get("order", 5))
        self.lm_percentile = float(lm_cfg.get("percentile", 99.0))
        if lm_cfg.get("granularity", "paragraph") != "paragraph":
            raise ConfigError("lm.granularity is no longer an option: filter-ppl drops paragraphs only")
        dd = payload.get("dedup", {})
        self.dedup_shingle_n = int(dd.get("shingle_n", dedup.DEFAULT_SHINGLE_N))
        self.dedup_permutations = int(dd.get("permutations", dedup.DEFAULT_PERMUTATIONS))
        self.dedup_threshold = float(dd.get("threshold", dedup.DEFAULT_THRESHOLD))
        mix_cfg = payload.get("mix", {})
        self.mix_entries = [(e["source"], float(e["fraction"])) for e in mix_cfg.get("entries", [])]
        self.mix_budget = int(mix_cfg.get("token_budget", 0))

    def _resolve(self, p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else self.base_dir / candidate

    def validate(self) -> None:
        from . import lm

        for label, p in (("corpus", self.corpus), ("seed_corpus", self.seed_corpus)):
            if not p.exists():
                raise ConfigError(f"config path {label} does not resolve: {p}")
            if p.is_dir():
                raise ConfigError(f"config path {label} is a directory: {p}")
        if self.ruleset_path and not self.ruleset_path.exists():
            raise ConfigError(f"ruleset file missing: {self.ruleset_path}")
        if self.ruleset_path and self.ruleset_path.is_dir():
            raise ConfigError(f"ruleset file is a directory: {self.ruleset_path}")
        lm.check_percentile(self.lm_percentile)
        # constructing the spec runs the fraction/source checks
        self.mix_spec()

    def mix_spec(self) -> mix.MixSpec:
        from . import mix

        if not self.mix_entries or self.mix_budget <= 0:
            raise ConfigError("config lacks a usable mix section (entries + token_budget)")
        return mix.MixSpec(entries=self.mix_entries, token_budget=self.mix_budget, seed=self.seed)

    def config_digest(self) -> str:
        import hashlib

        return hashlib.sha256(self.path.read_bytes()).hexdigest()


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    return corpus.load_json(
        path, "config", ConfigError, lambda payload: PipelineConfig(payload, base_dir=path.parent.resolve(), path=path)
    )


# -- shared helpers -------------------------------------------------------------


def _documents(path: str | Path, strict: bool) -> Iterator[Document]:
    """The documents of the corpus at `path`, read as they are taken; its
    lenient-mode skips are reported once they are exhausted."""
    reader = read_documents(path, strict=strict)
    yield from reader
    _report_skipped(reader, path)


def _report_skipped(reader: CorpusReader, path: str | Path) -> None:
    """Report the lenient-mode skips of an exhausted reader of `path`."""
    if reader.skipped:
        sys.stderr.write(f"lexcorpus: skipped {reader.skipped} malformed records in {path}\n")


def _refuse_write_through(source: Optional[str | Path], outputs: Iterable[Optional[str | Path]]) -> None:
    """Raise ValueError for an output that is the file `source` and that
    atomic_write would write straight through (a symlink, say): a stage
    that reads `source` while it writes would truncate it unread. A regular
    file is safe, even as the input: it is replaced only once complete.
    Also for two outputs that resolve to one path, unless it is a device or
    FIFO: the output written last would replace the other. An output of
    None, an option not given, is skipped."""
    seen: Dict[str, str | Path] = {}
    for path in filter(None, outputs):
        real = os.path.realpath(path)
        if real in seen and (os.path.isfile(path) or not os.path.exists(path)):
            raise ValueError(f"outputs {seen[real]} and {path} are one file: write them to different paths")
        seen[real] = path
        linked = os.path.exists(path) and not stat.S_ISREG(os.lstat(path).st_mode)
        if linked and source is not None and os.path.samefile(path, source):
            raise ValueError(f"output {path} is the input {source}: write to another path")


# Documents per batch of a streamed pass. Each stage runs over a whole
# batch before the next starts: cycling the LM tables, regexes and JSON
# encoder per document was measured 10-20% slower.
_BATCH = 256


def _stream(
    source: str | Path,
    strict: bool,
    outputs: Sequence[str | Path],
    run: Callable[[List[Document]], Sequence[List[Document]]],
) -> Tuple[int, List[int]]:
    """Stream the corpus at `source` through `run` in batches of `_BATCH`
    documents. For each batch `run` returns one document list per output,
    which is appended to that output; the outputs are opened with
    atomic_write, so a failure replaces none of them. A stage passes a
    document it leaves unchanged on as the same object, and a document
    object is encoded once per batch, however many outputs it goes to.
    Returns the number of documents read and the number written to each
    output."""
    reader = read_documents(source, strict=strict)
    _refuse_write_through(source, outputs)
    written = [0] * len(outputs)
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(atomic_write(path, binary=True)) for path in outputs]
        stream = stack.enter_context(contextlib.closing(iter(reader)))
        # the batch's lines by id(doc): an id is unique while the batch and
        # the lists `run` returned for it keep every document alive
        lines: Dict[int, bytes] = {}

        def line(doc: Document) -> bytes:
            key = id(doc)
            if key not in lines:
                lines[key] = encode_line(doc)
            return lines[key]

        while True:
            batch = list(itertools.islice(stream, _BATCH))
            if not batch:
                break
            lines.clear()
            for i, docs in enumerate(run(batch)):
                # no later output can reuse the last one's lines: none are kept
                handles[i].writelines(map(line if i < len(outputs) - 1 else encode_line, docs))
                written[i] += len(docs)
    _report_skipped(reader, source)
    return reader.count, written


def _changed(path: str | Path, what: str) -> CorpusError:
    return CorpusError(f"{path} changed between two reads: {what}")


def _survivors(fh: IO[bytes], ids: Sequence[str], removed: Set[int]) -> Iterator[Tuple[int, bytes]]:
    """The index and line of each line of `fh`, an open corpus in canonical
    form and one document per line that a dedup.Deduplicator took with
    these `ids` in order, whose index is not in `removed`. Each line is
    checked by the canonical prefix of its id and decoded only to name it in
    the error: a line that does not hold the id at its index, or a file that
    ends early, raises CorpusError."""
    idx = -1
    for idx, line in enumerate(fh):
        if idx >= len(ids) or not line.startswith(canonical_prefix(ids[idx])):
            raise _changed(fh.name, f"document {idx + 1} is now {corpus._parse_record(line, idx + 1).id!r}")
        if idx not in removed:
            yield idx, line
    if idx + 1 != len(ids):
        raise _changed(fh.name, f"{idx + 1} documents, not {len(ids)}")


def _write_report(path: str | Path, report) -> None:
    write_lines([report.to_json()], path)


def _name_path(value: str) -> Tuple[str, str]:
    """argparse type for repeatable NAME=PATH options."""
    name, sep, path = value.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {value!r}")
    return name, path


def _by_name(pairs: Sequence[Tuple[str, str]], option: str) -> Dict[str, str]:
    """The values of a repeatable NAME=PATH option by NAME; a NAME given
    twice raises ValueError, since only one of its paths could be read."""
    paths: Dict[str, str] = {}
    for name, path in pairs:
        if name in paths:
            raise ValueError(f"{option} names {name!r} twice")
        paths[name] = path
    return paths


def _clean(docs: Iterable[Document], rules: Optional[cleaning.RuleSet]) -> List[Document]:
    """normalize (rules None) or filter-rules: returns the cleaned
    documents, a document whose text did not change as itself; those
    emptied drop out."""
    out: List[Document] = []
    for doc in docs:
        if rules is None:
            text = cleaning.normalize_text(doc.text)
        else:
            text = cleaning.clean_text(doc.text, rules)
        if not text:
            continue
        if text != doc.text:
            doc = Document(id=doc.id, source=doc.source, text=text, meta=dict(doc.meta))
        out.append(doc)
    return out


def _token_total(docs: Sequence[Document]) -> int:
    return sum(len(doc.text.split()) for doc in docs)


def _load_ruleset(path: Optional[str | Path]) -> cleaning.RuleSet:
    if path:
        return cleaning.load_ruleset(path)
    return cleaning.build_default_ruleset()


def _chat_backend(endpoint: Optional[str], model: str) -> instruct.ChatBackend:
    from . import instruct

    if endpoint:
        return instruct.HttpChatBackend(endpoint=endpoint, model=model)
    return instruct.StubChatBackend()


# -- stage bodies that both a subcommand and run_pipeline call --------------------


def _train_lm(
    docs: Iterable[Document], order: int, output: Path | str, corpus_name: str = "seed corpus"
) -> lm.NGramLM:
    from . import lm

    model = lm.train_lm(docs, TOKENIZER, order=order, corpus_name=corpus_name)
    lm.save_lm(model, output)
    return model


# -- subcommand implementations ---------------------------------------------------


def cmd_normalize(args) -> int:
    read, (written,) = _stream(args.input, args.strict, [args.output], lambda batch: [_clean(batch, None)])
    print(f"normalized {written} documents ({read - written} emptied) -> {args.output}")
    return 0


def cmd_mine_ngrams(args) -> int:
    ranked = cleaning.mine_ngrams(_documents(args.input, args.strict), n=args.n, top_k=args.top_k)
    cleaning.write_ngram_report(ranked, args.output)
    print(f"mined top {len(ranked)} {args.n}-grams -> {args.output}")
    return 0


def cmd_filter_rules(args) -> int:
    rules = _load_ruleset(args.ruleset)
    read, (written,) = _stream(args.input, args.strict, [args.output], lambda batch: [_clean(batch, rules)])
    print(f"rule-filtered {written} documents kept, {read - written} emptied -> {args.output}")
    return 0


def cmd_train_lm(args) -> int:
    reader = read_documents(args.input, strict=args.strict)
    try:
        model = _train_lm(reader, args.order, args.output, corpus_name=f"seed corpus {args.input}")
    finally:
        # also when the corpus is empty once its malformed records are skipped
        _report_skipped(reader, args.input)
    print(f"trained order-{model.order} model on {reader.count} documents -> {args.output}")
    return 0


def cmd_filter_ppl(args) -> int:
    from . import lm

    _refuse_write_through(args.input, [args.output, args.dropped, args.report])
    model = lm.load_lm(args.model)
    if args.threshold is not None:
        threshold = args.threshold
    else:
        if not args.calibration_corpus:
            raise ValueError("need --threshold or --calibration-corpus with --percentile")
        threshold = lm.calibrate_threshold(
            model, _documents(args.calibration_corpus, args.strict), TOKENIZER, percentile=args.percentile,
            corpus_name=f"calibration corpus {args.calibration_corpus}",
        )
    # checks the threshold before an output is opened, and gives the empty
    # report that each batch's report is merged into
    _, _, report = lm.filter_by_perplexity([], model, TOKENIZER, threshold)
    outputs = [args.output, args.dropped] if args.dropped else [args.output]

    def run(batch: List[Document]) -> Tuple[List[Document], ...]:
        kept, dropped, batch_report = lm.filter_by_perplexity(batch, model, TOKENIZER, threshold)
        report.merge(batch_report)
        return (kept, dropped)[: len(outputs)]

    _stream(args.input, args.strict, outputs, run)
    if args.report:
        _write_report(args.report, report)
    print(
        f"perplexity filter at {threshold:.4f}: kept {report.kept_docs} docs, "
        f"dropped {report.dropped_docs} entirely -> {args.output}"
    )
    return 0


def cmd_dedup(args) -> int:
    """Stream the input once into a dedup.Deduplicator, keeping each
    document's canonical line in an anonymous temp file, and then copy the
    surviving lines to the output, as run_pipeline copies 03 to 04."""
    from . import dedup

    _refuse_write_through(args.input, [args.output, args.report, args.clusters])
    params = {k: v for k, v in vars(args).items() if k in ("shingle_n", "permutations", "threshold")}
    index = dedup.Deduplicator(near=not args.exact_only, seed=args.seed, **params)
    with tempfile.TemporaryFile(buffering=BUFFER_SIZE) as lines:

        def add(batch: List[Document]) -> Tuple[List[Document], ...]:
            texts = [doc.text for doc in batch]
            index.add_batch([doc.id for doc in batch], texts, list(map(str.split, texts)))
            lines.writelines(map(encode_line, batch))
            return ()

        _stream(args.input, args.strict, [], add)
        removed, report = index.resolve()
        ids = index.ids
        del index  # frees the signature matrix before the survivors are copied
        lines.seek(0)
        with atomic_write(args.output, binary=True) as out:
            out.writelines(line for _, line in _survivors(lines, ids, removed))
    if args.report:
        _write_report(args.report, report)
    if args.clusters:
        dedup.write_cluster_dump(report, args.clusters)
    print(
        f"dedup removed {report.exact_removed} exact + {report.near_removed} near "
        f"duplicates, {len(ids) - len(removed)} documents remain -> {args.output}"
    )
    return 0


def cmd_mix(args) -> int:
    from . import mix

    for i, path in enumerate(args.input):
        if os.path.realpath(path) in map(os.path.realpath, args.input[:i]):
            raise ValueError(f"--input names {path!r} twice")
    _refuse_write_through(None, [args.output, args.manifest])
    spec = mix.load_mix_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    docs = itertools.chain.from_iterable(_documents(path, args.strict) for path in args.input)
    mixed, manifest = mix.assemble_mix(
        docs, spec, lambda doc: doc.source.name, lambda doc: (doc.id, len(doc.text.split()))
    )
    write_documents(mixed, args.output)
    _write_report(args.manifest, manifest)
    print(f"mixed {len(mixed)} documents, {manifest.total_tokens} tokens -> {args.output}")
    if args.tolerance is not None:
        validation = mix.validate_mix(manifest, spec, tolerance=args.tolerance)
        print(validation.to_json())
        if not validation.passed:
            return 1
    return 0


def cmd_gen_instructions(args) -> int:
    from . import instruct

    _refuse_write_through(None, [args.output, args.corpus_out])
    examples = instruct.load_examples(args.examples)
    backend = _chat_backend(args.endpoint, args.model)
    conversations, failures = instruct.generate_conversations(
        examples,
        backend,
        extra_turn_pairs=args.extra_turn_pairs,
        concurrency=args.concurrency,
    )
    count = instruct.write_conversations(conversations, args.output)
    if args.corpus_out:
        write_documents(instruct.conversations_to_documents(conversations), args.corpus_out)
    print(f"generated {count} conversations ({len(failures)} failed) -> {args.output}")
    for failure in failures:
        sys.stderr.write(f"failed {failure.origin}: {failure.reason}: {failure.detail}\n")
    if failures and not conversations:
        sys.stderr.write("lexcorpus gen-instructions: every conversation failed\n")
        return 2
    return 0


def _benchmark_texts(args) -> List[str]:
    from . import evaluation

    texts: List[str] = []
    if args.benchmark_file:
        with open(args.benchmark_file, "r", encoding="utf-8") as fh:
            texts.extend(line.rstrip("\n") for line in fh if line.strip())
    if args.task_dir:
        for task in evaluation.load_tasks(args.task_dir):
            texts.extend(text for text, _ in task.instances)
    if not texts:
        raise ValueError("no benchmark inputs: pass --benchmark-file and/or --task-dir")
    return texts


def cmd_decontaminate(args) -> int:
    from . import instruct

    conversations = instruct.read_conversations(args.input)
    texts = _benchmark_texts(args)
    shingle_n = getattr(args, "shingle_n", instruct.DECONTAMINATION_SHINGLE_N)
    kept, removed = instruct.decontaminate(conversations, texts, shingle_n=shingle_n)
    instruct.write_conversations(kept, args.output)
    print(f"decontamination kept {len(kept)}, removed {removed} -> {args.output}")
    return 0


def cmd_curate_prompts(args) -> int:
    from . import evaluation

    original = Path(args.input).read_text(encoding="utf-8")
    write_lines([evaluation.curate_prompt(original, args.labels)], args.output)
    print(f"curated prompt -> {args.output}")
    return 0


def cmd_eval(args) -> int:
    from . import evaluation

    _refuse_write_through(None, [args.report, args.dump])
    tasks = evaluation.load_tasks(args.task_dir)
    if args.mmlu_dir:
        tasks.extend(evaluation.load_mmlu_legal(args.mmlu_dir))
    backend = _chat_backend(args.endpoint, args.model)
    report, records = evaluation.run_benchmark(tasks, backend, concurrency=args.concurrency)
    if args.report:
        _write_report(args.report, report)
    if args.dump:
        evaluation.write_prediction_dump(records, args.dump)
    print(report.render_table())
    return 0


def cmd_ppl_report(args) -> int:
    from . import evaluation, lm

    paths = _by_name(args.category, "--category")
    scorer = evaluation.NgramScorer(lm.load_lm(args.model), name=Path(args.model).stem)
    baseline = None
    if args.baseline_model:
        baseline = evaluation.NgramScorer(lm.load_lm(args.baseline_model), name=Path(args.baseline_model).stem)
    docs_by_category = {name: _documents(path, args.strict) for name, path in paths.items()}
    report = evaluation.perplexity_report(docs_by_category, scorer, baseline)
    if args.output:
        _write_report(args.output, report)
    print(report.render_table())
    return 0


# -- pipeline -----------------------------------------------------------------


def run_pipeline(cfg: PipelineConfig, strict: bool = False) -> dict:
    """normalize -> filter-rules -> train-lm -> filter-ppl -> dedup -> mix.

    The run manifest's entries, one per stage in that order, are made before any
    stage runs, and each stage fills its own with its document and token counts;
    same config bytes + seed give identical JSON. The stages run in another
    order, so that the main corpus is read once and never held whole. First the
    seed corpus is rule-cleaned, the LM trained on it (`lm.json`) and the
    threshold calibrated. Then one pass streams the main corpus in batches
    through normalize, filter-rules and filter-ppl, writing `01`, `02`, `03` and
    `03_dropped`, and signs each batch's kept documents into the dedup index
    from filter-ppl's tokens. Then the clusters are resolved and the mix
    samples the survivors by index. One read of `03` copies its surviving
    lines undecoded to `04` and keeps the lines the mix took, which are
    decoded into `05` after `dedup_report.json` is written. Each file is
    replaced only once it is complete: a failed pass replaces none of
    `01`-`03`, a failure after the pass leaves them on disk, and a mix short
    of its budget replaces no file after them. A failure raises
    PipelineStageError naming the `running` entry: train-lm for the seed corpus,
    filter-ppl for the calibration and the filter report, normalize for the main
    corpus's read and the writes of `01`-`03`, and in a batch the stage at work.
    """
    from . import dedup, lm, mix  # dedup is already loaded by PipelineConfig

    cfg.validate()
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    rules = _load_ruleset(cfg.ruleset_path)
    spec = cfg.mix_spec()
    # built before any stage runs, so that bad dedup parameters fail before any output
    index = dedup.Deduplicator(
        shingle_n=cfg.dedup_shingle_n,
        permutations=cfg.dedup_permutations,
        threshold=cfg.dedup_threshold,
        seed=cfg.seed,
    )
    names = ("normalize", "filter-rules", "train-lm", "filter-ppl", "dedup", "mix")
    stages = [{"stage": name, "documents": 0, "tokens": 0} for name in names]
    normalizing, rule_filtering, training, ppl_filtering, deduping, mixing = stages
    manifest = {"config_sha256": cfg.config_digest(), "seed": cfg.seed, "stages": stages}

    running = training
    try:
        seed_docs = _clean(_documents(cfg.seed_corpus, strict), rules)
        model = _train_lm(seed_docs, cfg.lm_order, out / "lm.json")
        training.update(documents=len(seed_docs), tokens=_token_total(seed_docs), order=cfg.lm_order)

        running = ppl_filtering
        threshold = lm.calibrate_threshold(model, seed_docs, TOKENIZER, percentile=cfg.lm_percentile)
        del seed_docs
        _, _, filter_report = lm.filter_by_perplexity([], model, TOKENIZER, threshold)
        kept_sources: List[str] = []  # the source name of each document the index takes

        def run_stages(batch: List[Document]) -> Tuple[List[Document], ...]:
            nonlocal running
            normalized = _clean(batch, None)

            running = rule_filtering
            rulefiltered = _clean(normalized, rules)
            # 01's tokens are 02's (added after the pass) but for the documents filter-rules changed or emptied
            in_01, in_02 = set(map(id, normalized)), set(map(id, rulefiltered))
            normalizing["tokens"] += _token_total([doc for doc in normalized if id(doc) not in in_02])
            normalizing["tokens"] -= _token_total([doc for doc in rulefiltered if id(doc) not in in_01])

            running = ppl_filtering
            kept_token_lists: List[List[str]] = []
            kept, dropped, batch_report = lm.filter_by_perplexity(
                rulefiltered, model, TOKENIZER, threshold, _kept_tokens=kept_token_lists
            )
            filter_report.merge(batch_report)

            running = deduping
            # whitespace tokens of the kept parts are the kept text's tokens
            index.add_batch([doc.id for doc in kept], [doc.text for doc in kept], kept_token_lists)
            kept_sources.extend(doc.source.name for doc in kept)
            running = normalizing  # the next batch is read as normalize's input
            return normalized, rulefiltered, kept, dropped

        running = normalizing
        files = ("01_normalized.jsonl", "02_rulefiltered.jsonl", "03_pplfiltered.jsonl", "03_dropped.jsonl")
        _, (normalizing["documents"], rule_filtering["documents"], ppl_filtering["documents"], _) = _stream(
            cfg.corpus, strict, [out / name for name in files], run_stages
        )
        del model

        running = ppl_filtering
        _write_report(out / "filter_report.json", filter_report)
        buckets = filter_report.per_source.values()
        ppl_filtering.update(tokens=sum(bucket["kept_tokens"] for bucket in buckets), threshold=threshold)
        # filter-ppl splits every token of 02 into kept or dropped
        rule_filtering["tokens"] = ppl_filtering["tokens"] + sum(bucket["dropped_tokens"] for bucket in buckets)
        rule_filtering["emptied"] = normalizing["documents"] - rule_filtering["documents"]
        normalizing["tokens"] += rule_filtering["tokens"]

        running = deduping
        removed, report = index.resolve()
        ids, token_counts = index.ids, index.token_counts
        del index  # frees the signature matrix before 03 is read

        running = mixing
        survivors = (idx for idx in range(len(ids)) if idx not in removed)
        picked, mix_manifest = mix.assemble_mix(
            survivors, spec, kept_sources.__getitem__, lambda idx: (ids[idx], token_counts[idx])
        )

        running = deduping
        mixed: Dict[int, bytes] = dict.fromkeys(picked)  # the line of each picked index, in mix order
        with open(out / "03_pplfiltered.jsonl", "rb", buffering=BUFFER_SIZE) as fh:
            with atomic_write(out / "04_deduped.jsonl", binary=True) as deduped:
                for idx, line in _survivors(fh, ids, removed):
                    deduped.write(line)
                    if idx in mixed:
                        mixed[idx] = line
        _write_report(out / "dedup_report.json", report)
        deduping.update(documents=len(ids) - len(removed), tokens=report.tokens_after)
        deduping.update(exact_removed=report.exact_removed, near_removed=report.near_removed)

        running = mixing
        write_documents((corpus._parse_record(line, idx + 1) for idx, line in mixed.items()), out / "05_mix.jsonl")
        _write_report(out / "mix_manifest.json", mix_manifest)
        mixing.update(documents=len(mixed), tokens=mix_manifest.total_tokens, total_tokens=mix_manifest.total_tokens)
    except Exception as exc:
        raise PipelineStageError(running["stage"], exc) from exc

    write_lines([json.dumps(manifest, indent=2, sort_keys=True)], out / "run_manifest.json")
    return manifest


def cmd_pipeline(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    manifest = run_pipeline(cfg, strict=args.strict)
    print(f"pipeline complete: {len(manifest['stages'])} stages -> {cfg.out_dir}")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="lexcorpus", description=__doc__.split("\n\n")[0])
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--strict", action="store_true", help="fail on malformed corpus records")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("normalize", parents=[strict], help="NFKC-normalize corpus text")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("mine-ngrams", parents=[strict], help="exact top-k n-gram counts")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True, help="TSV report path")
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--top-k", type=int, default=20)
    p.set_defaults(func=cmd_mine_ngrams)

    p = sub.add_parser("filter-rules", parents=[strict], help="apply the regex ruleset")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--ruleset", help="ruleset JSON (default: shipped rules)")
    p.set_defaults(func=cmd_filter_rules)

    p = sub.add_parser("train-lm", parents=[strict], help="train the Kneser-Ney model")
    p.add_argument("-i", "--input", required=True, help="seed corpus")
    p.add_argument("-o", "--output", required=True, help="model JSON path")
    p.add_argument("--order", type=int, default=5)
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("filter-ppl", parents=[strict], help="drop high-perplexity paragraphs")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--percentile", type=float, default=99.0)
    p.add_argument("--calibration-corpus", help="corpus whose percentile sets the threshold")
    p.add_argument("--dropped", help="write dropped text here")
    p.add_argument("--report", help="write the filter report JSON here")
    p.set_defaults(func=cmd_filter_ppl)

    p = sub.add_parser("dedup", parents=[strict], help="exact then near deduplication")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    # absent, these take dedup.Deduplicator's defaults, so that the parser needs no numpy
    p.add_argument("--shingle-n", type=int, default=argparse.SUPPRESS)
    p.add_argument("--permutations", type=int, default=argparse.SUPPRESS)
    p.add_argument("--threshold", type=float, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=0, help="seed of the sketch hash functions")
    p.add_argument("--exact-only", action="store_true")
    p.add_argument("--report", help="write the dedup report JSON here")
    p.add_argument("--clusters", help="write kept_id<TAB>removed_id dump here")
    p.set_defaults(func=cmd_dedup)

    p = sub.add_parser("mix", parents=[strict], help="assemble the training mix")
    p.add_argument("--spec", required=True, help="mix spec JSON")
    p.add_argument("-i", "--input", action="append", required=True, metavar="PATH", help="source corpus, repeatable")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--tolerance", type=float, default=None, help="also validate realized fractions")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("gen-instructions", help="synthesize conversations")
    p.add_argument("--examples", required=True, help="labeled examples JSONL")
    p.add_argument("-o", "--output", required=True, help="conversations JSONL")
    p.add_argument("--corpus-out", help="also write conversations as corpus documents")
    p.add_argument("--endpoint", default=None, help="chat endpoint URL (default: offline stub)")
    p.add_argument("--model", default="stub")
    p.add_argument("--extra-turn-pairs", type=int, default=2)
    p.add_argument("--concurrency", type=int, default=4)
    p.set_defaults(func=cmd_gen_instructions)

    p = sub.add_parser("decontaminate", help="drop benchmark-overlapping conversations")
    p.add_argument("-i", "--input", required=True, help="conversations JSONL")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--benchmark-file", help="one benchmark input text per line")
    p.add_argument("--task-dir", help="pull benchmark inputs from task files")
    # absent, cmd_decontaminate takes instruct's default, so that the parser needs no instruct
    p.add_argument("--shingle-n", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_decontaminate)

    p = sub.add_parser("curate-prompts", help="rewrite a few-shot prompt")
    p.add_argument("-i", "--input", required=True, help="original prompt text file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--labels", nargs="+", required=True)
    p.set_defaults(func=cmd_curate_prompts)

    p = sub.add_parser("eval", help="run the benchmark harness")
    p.add_argument("--task-dir", required=True)
    p.add_argument("--mmlu-dir", help="directory of <subject>_test.csv files")
    p.add_argument("--endpoint", default=None, help="chat endpoint URL (default: offline stub)")
    p.add_argument("--model", default="stub")
    p.add_argument("--concurrency", type=int, default=4)
    p.add_argument("--report", help="write the report JSON here")
    p.add_argument("--dump", help="write the prediction dump here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ppl-report", parents=[strict], help="perplexity by document category")
    p.add_argument("--model", required=True, help="scorer model JSON")
    p.add_argument("--baseline-model", help="baseline model JSON for the reduction column")
    p.add_argument(
        "--category", action="append", required=True, type=_name_path, metavar="NAME=PATH",
        help="category corpus, repeatable",
    )
    p.add_argument("-o", "--output", help="write the report JSON here")
    p.set_defaults(func=cmd_ppl_report)

    p = sub.add_parser("pipeline", parents=[strict], help="run the offline data path end to end")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except PipelineStageError as exc:
        sys.stderr.write(f"lexcorpus: {exc}\n")
        return 1 if isinstance(exc.cause, _VALIDATION_ERRORS) else 2
    except _VALIDATION_ERRORS as exc:
        sys.stderr.write(f"lexcorpus: {exc}\n")
        return 1
    except Exception as exc:  # runtime failure
        sys.stderr.write(f"lexcorpus: unexpected failure: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
