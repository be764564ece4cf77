"""Assemble a training mix from tagged corpora to target token proportions.

Documents are grouped by their own source; those of a source the spec does
not name are dropped. Each source is shuffled with its own seeded RNG and
sampled without replacement until its realized token count reaches the
requested share (documents are atomic, so the realized share can overshoot
by at most one document). The combined list is then globally shuffled. All
randomness derives from the spec seed via stable hashing, so reruns are
byte-identical.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple, TypeVar

from .corpus import DuplicateIdError, InputError, load_json, report_json

FRACTION_SUM_TOLERANCE = 1e-9

T = TypeVar("T")


class MixError(InputError):
    """Spec/stream mismatch or unsatisfiable mix."""


class InsufficientTokensError(MixError):
    """A source ran out of documents before reaching its token share."""


def derive_seed(seed: int, name: str) -> int:
    """Stable per-stream RNG seed; never uses the salted builtin hash()."""
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class MixSpec:
    entries: List[Tuple[str, float]]
    token_budget: int
    seed: int

    def __post_init__(self):
        if self.token_budget <= 0:
            raise MixError("token_budget must be positive")
        if not self.entries:
            raise MixError("mix spec has no entries")
        for name, fraction in self.entries:
            if not isinstance(name, str) or not name:
                raise MixError(f"source name {name!r} is not a non-empty string")
            if not 0.0 <= fraction <= 1.0:
                raise MixError(f"fraction for {name!r} outside [0, 1]")
        if len(self.entries) != len({name for name, _ in self.entries}):
            raise MixError("duplicate source names in mix spec")
        total = sum(fraction for _, fraction in self.entries)
        if abs(total - 1.0) > FRACTION_SUM_TOLERANCE:
            raise MixError(f"fractions sum to {total!r}, expected 1")


def load_mix_spec(path: str | Path) -> MixSpec:
    def build(payload: dict) -> MixSpec:
        entries = [(e["source"], float(e["fraction"])) for e in payload["entries"]]
        return MixSpec(entries=entries, token_budget=int(payload["token_budget"]), seed=int(payload["seed"]))

    return load_json(path, "mix spec", MixError, build)


@dataclass
class MixManifest:
    seed: int
    total_tokens: int = 0
    per_source: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def realized_fraction(self, name: str) -> float:
        if self.total_tokens == 0:
            return 0.0
        return int(self.per_source[name]["realized_tokens"]) / self.total_tokens

    def to_json(self) -> str:
        return report_json(self)


def _ids_digest(ids: List[str]) -> str:
    return hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest()


def assemble_mix(
    items: Iterable[T],
    spec: MixSpec,
    source_of: Callable[[T], str],
    measure: Callable[[T], Tuple[str, int]],
) -> Tuple[List[T], MixManifest]:
    """Sample each source to its token share and emit a globally shuffled mix.

    The items may be of any kind: `source_of(item)` gives an item's source,
    by which the stream is grouped in order, and `measure(item)` its document
    id and token count; `measure` is called only for the items a source's
    walk reaches. A shuffle permutes by position alone, so the items of a
    source, whatever they are, are picked in the order its documents would be.

    Raises InsufficientTokensError when a source, even one with no items,
    cannot reach its share, and DuplicateIdError for an id picked twice.
    """
    groups: Dict[str, List[T]] = {name: [] for name, _ in spec.entries}
    for item in items:
        group = groups.get(source_of(item))
        if group is not None:
            group.append(item)
    manifest = MixManifest(seed=spec.seed)
    mixed: List[T] = []
    seen_ids: set = set()

    for name, fraction in spec.entries:
        requested = round(fraction * spec.token_budget)
        group = groups[name]
        random.Random(derive_seed(spec.seed, name)).shuffle(group)
        selected_ids: List[str] = []
        realized = 0
        for item in group:
            if realized >= requested:
                break
            doc_id, tokens = measure(item)
            if doc_id in seen_ids:
                raise DuplicateIdError(f"document id {doc_id!r} appears twice in the mix's inputs")
            seen_ids.add(doc_id)
            selected_ids.append(doc_id)
            mixed.append(item)
            realized += tokens
        if realized < requested:
            raise InsufficientTokensError(
                f"source {name!r} exhausted at {realized} tokens, {requested} requested"
            )
        manifest.per_source[name] = {
            "requested_tokens": requested,
            "realized_tokens": realized,
            "documents": len(selected_ids),
            "ids_digest": _ids_digest(selected_ids),
        }
        manifest.total_tokens += realized

    random.Random(derive_seed(spec.seed, "__global__")).shuffle(mixed)
    return mixed, manifest


@dataclass
class MixValidation:
    tolerance: float
    per_source: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(entry["pass"] for entry in self.per_source.values())

    def to_json(self) -> str:
        return report_json(self, passed=self.passed)


def validate_mix(manifest: MixManifest, spec: MixSpec, tolerance: float) -> MixValidation:
    """Per-source pass/fail on |realized fraction - target fraction| <= tolerance."""
    spec_names = {name for name, _ in spec.entries}
    manifest_names = set(manifest.per_source)
    if spec_names != manifest_names:
        raise MixError(
            f"source sets differ: spec has {sorted(spec_names)}, manifest has {sorted(manifest_names)}"
        )
    result = MixValidation(tolerance=tolerance)
    for name, fraction in spec.entries:
        realized = manifest.realized_fraction(name)
        deviation = abs(realized - fraction)
        result.per_source[name] = {
            "target_fraction": fraction,
            "realized_fraction": realized,
            "deviation": deviation,
            "pass": deviation <= tolerance,
        }
    return result
