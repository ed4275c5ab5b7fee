"""Token <-> id vocabulary with deterministic construction and expansion."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .tokens import END, MAX_ATT_DAYS, SPECIAL_TOKENS, UnknownTokenError, classify_token

__all__ = ["Vocabulary", "ExpandReport", "build_vocabulary", "expand_vocabulary"]

_ATT_RANGE = tuple(f"D{n}" for n in range(MAX_ATT_DAYS + 1))


class Vocabulary:
    """Immutable dense token<->id bijection; ids are stable once assigned."""

    __slots__ = ("tokens", "_index")

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        self._index = {t: i for i, t in enumerate(self.tokens)}
        if len(self._index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        for s in SPECIAL_TOKENS:
            if s not in self._index:
                raise ValueError(f"special token {s} missing from vocabulary")

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, token):
        return token in self._index

    def id_of(self, token: str) -> int:
        return self._index[token]

    def token_of(self, idx: int) -> str:
        return self.tokens[idx]

    def encode(self, tokens) -> list[int]:
        return [self._index[t] for t in tokens]

    @property
    def end_id(self) -> int:
        return self._index[END]

    def serialize(self) -> str:
        lines = [f"{i}\t{t}\t{classify_token(t).value}" for i, t in enumerate(self.tokens)]
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()

    def save(self, path):
        Path(path).write_text(self.serialize(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read the id<TAB>token<TAB>class lines that save writes; a malformed line raises
        ValueError naming the file and the line."""
        tokens, first_line = [], {}
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{where}: expected 3 tab-separated fields (id, token, class), got {len(fields)}")
            idx_s, token, cls_name = fields
            try:
                idx = int(idx_s)
            except ValueError:
                raise ValueError(f"{where}: id {idx_s!r} is not an integer") from None
            if idx != len(tokens):
                raise ValueError(f"{where}: ids are not dense")
            try:
                token_cls = classify_token(token)
            except UnknownTokenError as e:
                raise ValueError(f"{where}: {e}") from None
            if token_cls.value != cls_name:
                raise ValueError(f"{where}: class mismatch for {token!r}")
            if token in first_line:
                raise ValueError(f"{where}: duplicate token {token!r} (first on line {first_line[token]})")
            first_line[token] = lineno
            tokens.append(token)
        return cls(tokens)


@dataclass(frozen=True)
class ExpandReport:
    added: int
    duplicates: int


def build_vocabulary(corpus) -> Vocabulary:
    """Deterministic vocabulary: specials, D0..D1080, then observed tokens sorted.

    Identical corpora produce byte-identical vocabularies regardless of
    sequence order.
    """
    observed: set[str] = set()
    n_seq = 0
    for seq in corpus:
        n_seq += 1
        observed.update(seq.tokens)
    if n_seq == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    base = list(SPECIAL_TOKENS) + list(_ATT_RANGE)
    fixed = set(base)
    rest = sorted(t for t in observed if t not in fixed)
    for t in rest:
        classify_token(t)  # reject malformed tokens early
    return Vocabulary(base + rest)


def expand_vocabulary(vocab: Vocabulary, new_tokens) -> tuple[Vocabulary, ExpandReport]:
    """Append unseen tokens, keeping every existing id; duplicates are counted, not added."""
    tokens = list(vocab.tokens)
    seen = set(tokens)
    added = 0
    duplicates = 0
    for t in new_tokens:
        if t in seen:
            duplicates += 1
            continue
        classify_token(t)
        tokens.append(t)
        seen.add(t)
        added += 1
    return Vocabulary(tokens), ExpandReport(added=added, duplicates=duplicates)
