from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lexcorpus
from lexcorpus import instruct
from lexcorpus.instruct import (
    AUTH_TOKEN_ENV,
    BackendError,
    Conversation,
    HttpChatBackend,
    LabeledExample,
    MalformedResponseError,
    StubChatBackend,
    Turn,
    conversations_to_documents,
    decontaminate,
    extend_conversation,
    generate_conversations,
    load_examples,
    read_conversations,
    scaffold_conversation,
    write_conversations,
)


def _example(**overrides):
    base = dict(
        id="ex-1",
        input_text="My employer fired me because I took a sick day. Is it legal?",
        label="employment",
        meta={"jurisdiction": "federal"},
    )
    base.update(overrides)
    return LabeledExample(**base)


# --- scaffold ----------------------------------------------------------------

def test_scaffold_is_three_turns_user_first():
    conv = scaffold_conversation(_example())
    assert [t.role for t in conv.turns] == ["user", "assistant", "user"]


def test_scaffold_embeds_input_label_and_meta():
    conv = scaffold_conversation(_example())
    assert "Is it legal?" in conv.turns[0].text
    assert "employment" in conv.turns[1].text
    assert "federal" in conv.turns[1].text


def test_scaffold_without_meta_omits_metadata_sentence():
    conv = scaffold_conversation(_example(meta={}))
    assert "employment" in conv.turns[1].text
    assert "details" not in conv.turns[1].text


def test_conversation_rejects_broken_alternation():
    with pytest.raises(ValueError):
        Conversation(
            turns=[Turn("user", "a"), Turn("user", "b"), Turn("assistant", "c")],
            origin="x",
        )
    with pytest.raises(ValueError):
        Conversation(turns=[Turn("user", "a")], origin="x")


def test_unknown_task_type_is_loud():
    from lexcorpus.instruct import TemplateError

    with pytest.raises(TemplateError):
        scaffold_conversation(_example(task_type="no-such-template"))


# --- extension ---------------------------------------------------------------

def test_extension_arity_and_final_role():
    conv = scaffold_conversation(_example())
    stub = StubChatBackend()
    for k in (1, 2, 3):
        ext = extend_conversation(conv, stub, extra_turn_pairs=k)
        assert len(ext.turns) == 3 + 2 * k - 1
        assert ext.turns[-1].role == "assistant"


def test_extension_is_deterministic():
    conv = scaffold_conversation(_example())
    stub = StubChatBackend()
    a = extend_conversation(conv, stub, extra_turn_pairs=2)
    b = extend_conversation(conv, stub, extra_turn_pairs=2)
    assert [t.text for t in a.turns] == [t.text for t in b.turns]


@settings(max_examples=20)
@given(st.integers(min_value=1, max_value=5))
def test_extension_alternates_for_any_depth(k):
    conv = scaffold_conversation(_example())
    stub = StubChatBackend()
    ext = extend_conversation(conv, stub, extra_turn_pairs=k)
    for i, turn in enumerate(ext.turns):
        assert turn.role == ("user" if i % 2 == 0 else "assistant")


def test_generate_conversations_stub_batch():
    examples = [_example(id=f"e{i}", input_text=f"Clause {i} is unusual.") for i in range(6)]
    stub = StubChatBackend()
    convs, failures = generate_conversations(examples, stub, extra_turn_pairs=1, concurrency=3)
    assert failures == []
    assert [c.origin for c in convs] == [e.id for e in examples]


def test_one_backend_names_itself_for_both_roles(tmp_path):
    """The generator string keeps its two-role shape, which the written
    conversations and corpus documents carry."""
    convs, failures = generate_conversations([_example()], StubChatBackend(), extra_turn_pairs=2)
    assert failures == []
    assert [c.generator for c in convs] == ["user=stub,assistant=stub"]
    path = tmp_path / "conv.jsonl"
    write_conversations(convs, path)
    assert json.loads(path.read_text())["generator"] == "user=stub,assistant=stub"
    assert conversations_to_documents(convs)[0].meta["generator"] == "user=stub,assistant=stub"


# --- persistence -------------------------------------------------------------

def test_conversation_roundtrip(tmp_path):
    conv = extend_conversation(scaffold_conversation(_example()), StubChatBackend(), 1)
    path = tmp_path / "conv.jsonl"
    write_conversations([conv], path)
    back = read_conversations(path)
    assert len(back) == 1
    assert [t.text for t in back[0].turns] == [t.text for t in conv.turns]
    assert back[0].origin == conv.origin


def test_load_examples(tmp_path):
    path = tmp_path / "ex.jsonl"
    path.write_text(
        '{"id":"a","input_text":"T","label":"contracts"}\n'
        '{"id":"b","input_text":"U","label":"torts","meta":{"court":"9th"},"task_type":"classification"}\n'
    )
    examples = load_examples(path)
    assert [e.id for e in examples] == ["a", "b"]
    assert examples[1].meta == {"court": "9th"}


def test_jsonl_readers_name_the_bad_line(tmp_path):
    path = tmp_path / "ex.jsonl"
    path.write_text('{"id":"a","input_text":"T","label":"contracts"}\n\n{"id":"b","input_text":"U"}\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: bad labeled example: 'label'$"):
        load_examples(path)
    path.write_text('{"id":"a","input_text":"T","label":"x"}\n{"id":"b","input_text":"U","label":"y"}\n{"id":"a","input_text":"V","label":"z"}\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: bad labeled example: duplicate id 'a'$"):
        load_examples(path)
    path.write_text("not json\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: bad conversation: Expecting value"):
        read_conversations(path)


def test_conversations_to_documents():
    conv = scaffold_conversation(_example())
    docs = conversations_to_documents([conv])
    assert len(docs) == 1
    assert docs[0].source.name == "instruction"
    assert "user:" in docs[0].text and "assistant:" in docs[0].text


# --- decontamination ---------------------------------------------------------

BENCH = "alpha beta gamma delta epsilon zeta eta theta"


def _conv_with(text: str) -> Conversation:
    return scaffold_conversation(_example(input_text=text))


def test_decontaminate_removes_eight_token_overlap():
    kept, removed = decontaminate(
        [_conv_with(f"Filler start: {BENCH} and filler end.")], [BENCH]
    )
    assert removed == 1 and kept == []


def test_decontaminate_keeps_seven_token_overlap():
    seven = "alpha beta gamma delta epsilon zeta eta OTHER"
    kept, removed = decontaminate([_conv_with(f"Filler start: {seven} then on.")], [BENCH])
    assert removed == 0 and len(kept) == 1


def test_decontaminate_preserves_order_of_kept():
    convs = [
        _conv_with("Completely unrelated first text without overlap."),
        _conv_with(f"Contains the benchmark: {BENCH} verbatim."),
        _conv_with("Another unrelated text, also clean."),
    ]
    kept, removed = decontaminate(convs, [BENCH])
    assert removed == 1
    assert [c.origin for c in kept] == [convs[0].origin, convs[2].origin]


def test_decontaminate_monotone_in_benchmark_set():
    """Adding benchmark texts can only remove more conversations, never fewer."""
    convs = [
        _conv_with(f"Leading words {BENCH} trailing words."),
        _conv_with("one two three four five six seven eight nine ten"),
    ]
    _, removed_small = decontaminate(convs, [BENCH])
    _, removed_big = decontaminate(
        convs, [BENCH, "one two three four five six seven eight nine ten"]
    )
    assert removed_big >= removed_small


# --- HTTP backend ------------------------------------------------------------

def test_http_backend_protocol(chat_endpoint, monkeypatch):
    server = chat_endpoint((200, '{"completion": "echo:1"}'))
    monkeypatch.setenv(AUTH_TOKEN_ENV, "sekrit")
    monkeypatch.setattr(instruct, "CHAT_BACKOFF_S", 0.01)
    backend = HttpChatBackend(server.url, model="test-model")
    out = backend.complete([{"role": "user", "content": "hi"}], role_hint="assistant")
    assert out == "echo:1"
    payload = server.payloads[-1]
    assert payload["model"] == "test-model"
    assert payload["messages"] == [{"role": "user", "content": "hi"}]
    assert set(payload) >= {"model", "messages", "temperature", "max_tokens"}
    assert server.auth[-1] == "Bearer sekrit"


def test_http_backend_retries_5xx(chat_endpoint, monkeypatch):
    server = chat_endpoint((503, ""), (503, ""), (200, '{"completion": "echo:1"}'))
    monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
    monkeypatch.setattr(instruct, "CHAT_ATTEMPTS", 3)
    monkeypatch.setattr(instruct, "CHAT_BACKOFF_S", 0.01)
    backend = HttpChatBackend(server.url, model="m")
    out = backend.complete([{"role": "user", "content": "x"}], role_hint="assistant")
    assert out == "echo:1"
    assert server.calls == 3
    assert server.auth[-1] is None


def test_http_backend_gives_up_after_retries(chat_endpoint, monkeypatch):
    server = chat_endpoint((503, ""))
    monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
    monkeypatch.setattr(instruct, "CHAT_ATTEMPTS", 2)
    monkeypatch.setattr(instruct, "CHAT_BACKOFF_S", 0.01)
    backend = HttpChatBackend(server.url, model="m")
    with pytest.raises(BackendError):
        backend.complete([{"role": "user", "content": "x"}], role_hint="assistant")
    assert server.calls == 2


def test_generation_failures_are_recorded_not_raised(monkeypatch):
    monkeypatch.setattr(instruct, "CHAT_ATTEMPTS", 1)
    monkeypatch.setattr(instruct, "CHAT_BACKOFF_S", 0.0)
    backend = HttpChatBackend("http://127.0.0.1:1/unreachable", model="m")
    convs, failures = generate_conversations([_example()], backend, extra_turn_pairs=1)
    assert convs == []
    assert len(failures) == 1
    assert failures[0].origin == "ex-1"
    assert failures[0].reason == "transport"


def test_empty_completion_failure_reason():
    class EmptyBackend(StubChatBackend):
        def complete(self, messages, role_hint):
            return "   "

    backend = EmptyBackend()
    convs, failures = generate_conversations([_example()], backend, extra_turn_pairs=1)
    assert convs == []
    assert failures[0].reason == "empty_completion"


MALFORMED_BODIES = [
    '["a list", "not an object"]',
    "null",
    "not json at all",
    '{"completion": null}',
    '{"text": "completion under the wrong key"}',
    '{"completion": 42}',
]


@pytest.mark.parametrize("body", MALFORMED_BODIES)
def test_malformed_response_is_a_recorded_failure(chat_endpoint, sleeps, body):
    server = chat_endpoint((200, body))
    backend = HttpChatBackend(server.url, model="m")
    convs, failures = generate_conversations([_example()], backend, extra_turn_pairs=1)
    assert convs == []
    assert [(f.origin, f.reason) for f in failures] == [("ex-1", "malformed_response")]
    assert server.calls == 1 and sleeps == []


def test_response_nested_too_deep_is_a_recorded_failure(chat_endpoint, sleeps):
    server = chat_endpoint((200, "[" * 100000 + "]" * 100000))
    backend = HttpChatBackend(server.url, model="m")
    with pytest.raises(MalformedResponseError, match="^response body is not JSON: maximum recursion depth exceeded"):
        backend.complete([{"role": "user", "content": "x"}], role_hint="assistant")
    convs, failures = generate_conversations([_example()], backend, extra_turn_pairs=1)
    assert convs == []
    assert [(f.origin, f.reason) for f in failures] == [("ex-1", "malformed_response")]
    assert server.calls == 2 and sleeps == []


@pytest.mark.parametrize(
    "retry_after, expected_sleep",
    [("2", 2.0), ("0.25", 0.25), ("Wed, 21 Oct 2015 07:28:00 GMT", 0.5), (None, 0.5)],
)
def test_http_backend_retries_429_honouring_retry_after(chat_endpoint, sleeps, monkeypatch, retry_after, expected_sleep):
    headers = {"Retry-After": retry_after} if retry_after is not None else {}
    server = chat_endpoint((429, "", headers), (200, '{"completion": "after the wait"}'))
    monkeypatch.setattr(instruct, "CHAT_BACKOFF_S", 0.5)
    backend = HttpChatBackend(server.url, model="m")
    assert backend.complete([{"role": "user", "content": "x"}], role_hint="assistant") == "after the wait"
    assert server.calls == 2
    assert sleeps == [expected_sleep]


def test_http_backend_persistent_429_is_a_transport_failure(chat_endpoint, sleeps, monkeypatch):
    server = chat_endpoint((429, "", {"Retry-After": "1"}))
    monkeypatch.setattr(instruct, "CHAT_ATTEMPTS", 3)
    backend = HttpChatBackend(server.url, model="m")
    convs, failures = generate_conversations([_example()], backend, extra_turn_pairs=1)
    assert convs == [] and failures[0].reason == "transport"
    assert server.calls == 3 and sleeps == [1.0, 1.0]


@pytest.mark.parametrize("status, cause", [(429, "rate limited 429"), (503, "server error 503")])
def test_http_backend_refusals_are_not_reported_unreachable(chat_endpoint, sleeps, monkeypatch, status, cause):
    server = chat_endpoint((status, ""))
    monkeypatch.setattr(instruct, "CHAT_ATTEMPTS", 3)
    monkeypatch.setattr(instruct, "CHAT_BACKOFF_S", 0.0)
    backend = HttpChatBackend(server.url, model="m")
    with pytest.raises(BackendError) as excinfo:
        backend.complete([{"role": "user", "content": "x"}], role_hint="assistant")
    assert str(excinfo.value) == f"chat endpoint refused 3 attempts: {cause}"


def test_http_backend_without_any_response_is_unreachable(monkeypatch):
    monkeypatch.setattr(instruct, "CHAT_ATTEMPTS", 1)
    monkeypatch.setattr(instruct, "CHAT_BACKOFF_S", 0.0)
    backend = HttpChatBackend("http://127.0.0.1:1/unreachable", model="m")
    with pytest.raises(BackendError, match="^chat endpoint unreachable after 1 attempts: "):
        backend.complete([{"role": "user", "content": "x"}], role_hint="assistant")


def test_http_backend_that_never_answers_is_unreachable(sleeps, monkeypatch):
    monkeypatch.setattr(instruct, "CHAT_TIMEOUT_S", 0.2)
    monkeypatch.setattr(instruct, "CHAT_ATTEMPTS", 2)
    # the kernel completes the connections into the listen backlog, but no
    # request is ever accepted, so each attempt waits out the timeout
    with socket.create_server(("127.0.0.1", 0)) as silent:
        backend = HttpChatBackend(f"http://127.0.0.1:{silent.getsockname()[1]}/v1", model="m")
        with pytest.raises(BackendError, match="^chat endpoint unreachable after 2 attempts: .*timed out"):
            backend.complete([{"role": "user", "content": "x"}], role_hint="assistant")
    assert sleeps == [instruct.CHAT_BACKOFF_S]


@pytest.mark.parametrize("status", [404, 201, 301, 302, 303, 307])
def test_http_backend_other_statuses_fail_at_once(chat_endpoint, sleeps, monkeypatch, status):
    # a redirect is not followed, so the host its Location names never sees the token
    elsewhere = chat_endpoint((200, '{"completion": "redirected"}'))
    server = chat_endpoint((status, '{"completion": "x"}', {"Location": elsewhere.url}))
    monkeypatch.setenv(AUTH_TOKEN_ENV, "secret")
    backend = HttpChatBackend(server.url, model="m")
    with pytest.raises(BackendError, match=f"^unexpected status {status}$"):
        backend.complete([{"role": "user", "content": "x"}], role_hint="assistant")
    assert server.auth == ["Bearer secret"] and elsewhere.calls == 0 and sleeps == []


@pytest.mark.parametrize("endpoint", ["file:///v1/chat", "localhost:8080/v1", "ftp://127.0.0.1/v1", ""])
def test_http_backend_refuses_an_endpoint_that_is_not_http(endpoint):
    with pytest.raises(ValueError, match="is not an http:// or https:// URL$"):
        HttpChatBackend(endpoint, model="m")


def test_generate_conversations_over_threads_keeps_input_order(chat_endpoint):
    server = chat_endpoint((200, '{"completion": "a reply"}'))
    examples = [_example(id=f"ex-{i}") for i in range(12)]
    backend = HttpChatBackend(server.url, model="m")
    convs, failures = generate_conversations(examples, backend, extra_turn_pairs=2, concurrency=4)
    assert failures == []
    assert [c.origin for c in convs] == [ex.id for ex in examples]
    assert all(len(c.turns) == 6 for c in convs)
    assert sorted(len(p["messages"]) for p in server.payloads) == sorted([3, 4, 5] * 12)


def test_http_backend_needs_neither_requests_nor_urllib_request_at_import(chat_endpoint):
    # urllib.request takes about 23 ms to import, and only HttpChatBackend uses it
    server = chat_endpoint((200, '{"completion": "pong"}'))
    src = str(Path(lexcorpus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "sys.modules['requests'] = None\n"
        "import lexcorpus.cli\n"
        "print('urllib.request' in sys.modules)\n"
        f"backend = lexcorpus.cli._chat_backend({server.url!r}, model='m')\n"
        "print(backend.complete([{'role': 'user', 'content': 'ping'}], role_hint='assistant'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "pong"]
    assert server.calls == 1
