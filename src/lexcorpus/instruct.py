"""Turn labeled legal examples into multi-turn instruction conversations.

Every conversation starts from a fixed three-turn scaffold rendered from
templates (user request, assistant answer restating the label and metadata,
user prompt to elaborate) and is then extended by alternating user and
assistant completions from one backend. A deterministic stub backend keeps
tests and demos offline; the HTTP backend talks to any chat endpoint
speaking the simple JSON protocol documented on the class.

Decontamination removes conversations that share an n-token shingle with
any benchmark input, so instruction data can never leak test questions.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar

from .cleaning import ngrams, normalize_text
from .corpus import Document, InputError, resolve_source, write_lines

if TYPE_CHECKING:
    import requests

ROLES = ("user", "assistant")
DECONTAMINATION_SHINGLE_N = 8
AUTH_TOKEN_ENV = "LEXCORPUS_CHAT_TOKEN"
# Sampling settings of every chat request, its timeout and attempts, and the
# wait after its first failed attempt, doubled after each further one
CHAT_TEMPERATURE = 0.7
CHAT_MAX_TOKENS = 512
CHAT_TIMEOUT_S = 30.0
CHAT_ATTEMPTS = 3
CHAT_BACKOFF_S = 0.5

T = TypeVar("T")


class TemplateError(InputError):
    """No scaffold template registered for an example's task type."""


class BackendError(Exception):
    """Chat backend transport failure."""


class MalformedResponseError(BackendError):
    """A 200 response whose body is not a JSON object with a string completion."""


class ExtensionError(Exception):
    """Conversation extension failed; .reason is machine-readable."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason


@dataclass
class LabeledExample:
    id: str
    input_text: str
    label: str
    meta: Dict[str, str] = field(default_factory=dict)
    task_type: str = "classification"

    def __post_init__(self):
        if not self.id:
            raise ValueError("example id must be non-empty")
        if not self.input_text.strip():
            raise ValueError("input_text must be non-empty")
        if not self.label.strip():
            raise ValueError("label must be non-empty")


@dataclass
class Turn:
    role: str
    text: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if not self.text.strip():
            raise ValueError("turn text must be non-empty")


@dataclass
class Conversation:
    turns: List[Turn]
    origin: str
    generator: str = "scaffold"

    def __post_init__(self):
        if len(self.turns) < 3:
            raise ValueError("conversations have at least the 3 scaffold turns")
        for i, turn in enumerate(self.turns):
            expected = ROLES[i % 2]
            if turn.role != expected:
                raise ValueError(
                    f"turn {i} has role {turn.role!r}, expected {expected!r} "
                    "(roles must alternate starting with user)"
                )


@dataclass(frozen=True)
class ScaffoldTemplate:
    """Format strings for the three fixed turns. Placeholders: {input_text}
    for the user request, {label} for the assistant answer."""

    user_request: str
    assistant_answer: str
    user_elaboration: str


DEFAULT_TEMPLATES: Dict[str, ScaffoldTemplate] = {
    "classification": ScaffoldTemplate(
        user_request=(
            "I came across the following text and I am not sure how to classify it. "
            "Could you take a look?\n\n{input_text}"
        ),
        assistant_answer='Having read it, I would classify this text under "{label}".',
        user_elaboration="Interesting. Could you walk me through the reasoning behind that classification?",
    ),
    "summarization": ScaffoldTemplate(
        user_request=(
            "Please read this legal document and tell me what it is about.\n\n{input_text}"
        ),
        assistant_answer="In essence, the document comes down to this: {label}.",
        user_elaboration="Thanks. Can you elaborate on how you arrived at that summary?",
    ),
    "qa": ScaffoldTemplate(
        user_request="I have a legal question about the following material.\n\n{input_text}",
        assistant_answer="The short answer is: {label}.",
        user_elaboration="Could you explain the reasoning behind that answer in more depth?",
    ),
}


def _metadata_sentence(meta: Dict[str, str]) -> str:
    if not meta:
        return ""
    rendered = "; ".join(f"{key}: {value}" for key, value in meta.items())
    return f" For context, the record carries these details — {rendered}."


def scaffold_conversation(ex: LabeledExample) -> Conversation:
    """Render the three fixed turns for one labeled example from its task
    type's template in DEFAULT_TEMPLATES.

    The assistant turn always restates the label and every metadata value,
    whatever the template says, so downstream audits can rely on it.
    """
    tmpl = DEFAULT_TEMPLATES.get(ex.task_type)
    if tmpl is None:
        raise TemplateError(f"no scaffold template for task type {ex.task_type!r}")
    assistant_text = tmpl.assistant_answer.format(label=ex.label) + _metadata_sentence(ex.meta)
    turns = [
        Turn("user", tmpl.user_request.format(input_text=ex.input_text)),
        Turn("assistant", assistant_text),
        Turn("user", tmpl.user_elaboration),
    ]
    return Conversation(turns=turns, origin=ex.id, generator="scaffold")


# -- backends ----------------------------------------------------------------


class ChatBackend:
    """Abstract chat-completion interface.

    complete() receives the conversation so far as [{role, content}] plus the
    role the completion will be attributed to, and returns the completion text.
    """

    name = "abstract"

    def complete(self, messages: Sequence[Dict[str, str]], role_hint: str) -> str:
        raise NotImplementedError


_STUB_USER_QUESTIONS = [
    "Which statute, regulation, or precedent bears most directly on this situation?",
    "How would the analysis change if the key facts were slightly different?",
    "What procedural steps would someone in this position usually take next?",
    "Are there notable exceptions or defenses that could alter the outcome?",
    "How have courts treated comparable cases in recent years?",
    "What practical risks should a layperson keep in mind here?",
]


class StubChatBackend(ChatBackend):
    """Deterministic offline backend: the completion is a pure function of
    the conversation prefix, so extended transcripts are reproducible."""

    name = "stub"

    def complete(self, messages: Sequence[Dict[str, str]], role_hint: str) -> str:
        if role_hint == "user":
            question = _STUB_USER_QUESTIONS[len(messages) % len(_STUB_USER_QUESTIONS)]
            return question
        last_user = next(
            (m["content"] for m in reversed(messages) if m["role"] == "user"), ""
        )
        topic = " ".join(last_user.split()[:8])
        return (
            f"Addressing your point about {topic} the controlling considerations are the "
            f"governing text, the precedent of the forum, and the specific facts. On turn "
            f"{len(messages) + 1} of this discussion, the balance of those factors supports "
            "the position I outlined, though a court would weigh the record as a whole."
        )


class HttpChatBackend(ChatBackend):
    """Remote chat endpoint.

    Protocol: POST JSON {"model", "messages": [{role, content}], "temperature",
    "max_tokens"}; the response body is a JSON object with the completion, a
    string, under "completion". The bearer token is read from the
    LEXCORPUS_CHAT_TOKEN environment variable when present. Transport
    errors, 429 and 5xx responses are retried with exponential backoff, or
    after the number of seconds in a numeric Retry-After header; persistent
    failure and any other status raise BackendError. A 200 response with
    any other body raises MalformedResponseError at once.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        session: Optional[requests.Session] = None,
    ):
        # imported here, not with the module: requests takes about 10 MiB,
        # and only a process that talks to an endpoint needs it
        import requests

        self.endpoint = endpoint
        self.model = model
        self.session = session or requests.Session()
        self.name = f"http:{model}"

    def complete(self, messages: Sequence[Dict[str, str]], role_hint: str) -> str:
        payload = {
            "model": self.model,
            "messages": list(messages),
            "temperature": CHAT_TEMPERATURE,
            "max_tokens": CHAT_MAX_TOKENS,
        }
        headers = {}
        token = os.environ.get(AUTH_TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        import requests  # loaded by __init__; this binds the name

        last_error: Optional[Exception] = None
        answered = False
        for attempt in range(CHAT_ATTEMPTS):
            delay = CHAT_BACKOFF_S * (2**attempt)
            try:
                resp = self.session.post(
                    self.endpoint, json=payload, headers=headers, timeout=CHAT_TIMEOUT_S
                )
            except requests.RequestException as exc:
                last_error = exc
            else:
                if resp.status_code == 200:
                    return _completion(resp)
                if resp.status_code != 429 and resp.status_code < 500:
                    raise BackendError(f"unexpected status {resp.status_code}")
                kind = "rate limited" if resp.status_code == 429 else "server error"
                last_error = BackendError(f"{kind} {resp.status_code}")
                answered = True
                delay = _retry_after(resp, delay)
            if attempt + 1 < CHAT_ATTEMPTS:
                time.sleep(delay)
        cause = "refused" if answered else "unreachable after"
        raise BackendError(f"chat endpoint {cause} {CHAT_ATTEMPTS} attempts: {last_error}")


def _completion(resp) -> str:
    try:
        body = resp.json()
    except (ValueError, RecursionError) as exc:
        raise MalformedResponseError(f"response body is not JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise MalformedResponseError(f"response body is {type(body).__name__}, not a JSON object")
    completion = body.get("completion")
    if not isinstance(completion, str):
        raise MalformedResponseError(f'"completion" is {completion!r:.60}, not a string')
    return completion


def _retry_after(resp, default: float) -> float:
    """Seconds from a numeric Retry-After header, else `default`."""
    try:
        seconds = float(resp.headers.get("Retry-After", ""))
    except ValueError:
        return default
    return seconds if 0.0 <= seconds < math.inf else default


# -- extension ---------------------------------------------------------------


def extend_conversation(
    conv: Conversation, backend: ChatBackend, extra_turn_pairs: int
) -> Conversation:
    """Extend a scaffold by alternating completions, ending on an assistant
    turn: one assistant completion answers the scaffold's elaboration prompt,
    then each further pair adds (user, assistant). Total turns are therefore
    3 + 2*extra_turn_pairs - 1. The generator names the backend once per
    role: "user=<name>,assistant=<name>".

    Backend failures raise ExtensionError with reason "transport",
    "malformed_response" or "empty_completion"; the input conversation is
    never mutated, so a failed extension leaves no partial transcript behind.
    """
    if len(conv.turns) != 3:
        raise ValueError("extension expects the 3-turn scaffold")
    if extra_turn_pairs < 1:
        raise ValueError("extra_turn_pairs must be >= 1")

    turns = list(conv.turns)

    def _complete(role: str) -> Turn:
        messages = [{"role": t.role, "content": t.text} for t in turns]
        try:
            text = backend.complete(messages, role_hint=role)
        except MalformedResponseError as exc:
            raise ExtensionError("malformed_response", str(exc)) from exc
        except BackendError as exc:
            raise ExtensionError("transport", str(exc)) from exc
        if not text or not text.strip():
            raise ExtensionError("empty_completion", f"{backend.name} returned an empty {role} turn")
        return Turn(role, text)

    turns.append(_complete("assistant"))
    for _ in range(extra_turn_pairs - 1):
        turns.append(_complete("user"))
        turns.append(_complete("assistant"))
    generator = f"user={backend.name},assistant={backend.name}"
    return Conversation(turns=turns, origin=conv.origin, generator=generator)


@dataclass
class FailedConversation:
    origin: str
    reason: str
    detail: str = ""


def generate_conversations(
    examples: Iterable[LabeledExample],
    backend: ChatBackend,
    extra_turn_pairs: int = 2,
    concurrency: int = 4,
) -> Tuple[List[Conversation], List[FailedConversation]]:
    """Scaffold and extend every example, with backend calls fanned out over
    a thread pool. Output order matches input order; failures are collected,
    never raised."""
    example_list = list(examples)

    def _one(ex: LabeledExample):
        conv = scaffold_conversation(ex)
        return extend_conversation(conv, backend, extra_turn_pairs)

    conversations: List[Conversation] = []
    failures: List[FailedConversation] = []
    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        futures = [(ex, pool.submit(_one, ex)) for ex in example_list]
        for ex, fut in futures:
            try:
                conversations.append(fut.result())
            except ExtensionError as exc:
                failures.append(FailedConversation(origin=ex.id, reason=exc.reason, detail=str(exc)))
            except TemplateError as exc:
                failures.append(FailedConversation(origin=ex.id, reason="missing_template", detail=str(exc)))
    return conversations, failures


# -- decontamination ----------------------------------------------------------


def _shingles(text: str, n: int) -> Set[Tuple[str, ...]]:
    return set(ngrams(normalize_text(text).split(), n))


def decontaminate(
    conversations: Iterable[Conversation],
    benchmark_texts: Iterable[str],
    shingle_n: int = DECONTAMINATION_SHINGLE_N,
) -> Tuple[List[Conversation], int]:
    """Drop any conversation sharing an n-token shingle with a benchmark
    input (exact overlap on normalized whitespace tokens). Benchmark texts
    shorter than one shingle cannot match and are ignored."""
    if shingle_n < 1:
        raise ValueError("shingle_n must be >= 1")
    benchmark_shingles: Set[Tuple[str, ...]] = set()
    for text in benchmark_texts:
        benchmark_shingles |= _shingles(text, shingle_n)
    kept: List[Conversation] = []
    removed = 0
    for conv in conversations:
        contaminated = any(
            _shingles(turn.text, shingle_n) & benchmark_shingles for turn in conv.turns
        )
        if contaminated:
            removed += 1
        else:
            kept.append(conv)
    return kept, removed


# -- serialization ------------------------------------------------------------


def conversation_to_json(conv: Conversation) -> str:
    return json.dumps(asdict(conv), ensure_ascii=False, sort_keys=True)


def write_conversations(conversations: Iterable[Conversation], path: str | Path) -> int:
    return write_lines(map(conversation_to_json, conversations), path)


def _read_jsonl(path: str | Path, what: str, build: Callable[[dict], T]) -> List[T]:
    """The records of a JSONL file: `build(value)` of the JSON value of each
    non-blank line. A line that is not JSON, or whose value `build` rejects
    with KeyError, TypeError, ValueError or AttributeError (a number where a
    string belongs), raises ValueError naming the path and line:
    "PATH:LINE: bad <what>: <cause>"."""
    out: List[T] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(build(json.loads(line)))
            except (KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: bad {what}: {exc}") from exc
    return out


def _conversation(payload: dict) -> Conversation:
    turns = [Turn(t["role"], t["text"]) for t in payload["turns"]]
    return Conversation(turns=turns, origin=payload["origin"], generator=payload.get("generator", "scaffold"))


def _labeled_example(payload: dict) -> LabeledExample:
    if not isinstance(payload["id"], str):
        raise TypeError(f"id {payload['id']!r} is not a string")
    return LabeledExample(
        id=payload["id"],
        input_text=payload["input_text"],
        label=payload["label"],
        meta=dict(payload.get("meta", {})),
        task_type=payload.get("task_type", "classification"),
    )


def read_conversations(path: str | Path) -> List[Conversation]:
    return _read_jsonl(path, "conversation", _conversation)


def load_examples(path: str | Path) -> List[LabeledExample]:
    """Read labeled examples from JSONL with fields id, input_text, label,
    optional meta (flat string map) and task_type. Ids must be unique: each
    names the corpus document its conversation becomes."""
    seen: Set[str] = set()

    def build(payload: dict) -> LabeledExample:
        ex = _labeled_example(payload)
        if ex.id in seen:
            raise ValueError(f"duplicate id {ex.id!r}")
        seen.add(ex.id)
        return ex

    return _read_jsonl(path, "labeled example", build)


def conversations_to_documents(conversations: Iterable[Conversation]) -> List[Document]:
    """Flatten conversations into `instruction` corpus documents (one per
    conversation) so the mix assembler can blend instruction data into a
    pretraining mix."""
    source = resolve_source("instruction")
    docs: List[Document] = []
    for conv in conversations:
        text = "\n\n".join(f"{t.role}: {t.text}" for t in conv.turns)
        docs.append(
            Document(
                id=f"instr-{conv.origin}",
                source=source,
                text=text,
                meta={"turns": str(len(conv.turns)), "generator": conv.generator},
            )
        )
    return docs
