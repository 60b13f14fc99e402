"""JSONL document collections: loading, sampling, tokenizing.

A corpus is an ordered sequence of documents, each tokenized once, when
it is created, into int32 ids of one process-wide vocabulary; no output may
depend on which id a token got. Sampling uses a seeded per-document hash
ranking so that smaller fractions are always subsets of larger ones.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import CorpusError, _shown

UNKNOWN_TOKEN = "<unk>"


class _Vocabulary(dict):
    """Token -> id; a token not seen before gets the next id."""

    def __missing__(self, token: str) -> int:
        _TOKENS.append(token)
        return self.setdefault(token, len(self))


_VOCAB = _Vocabulary()
_TOKENS: list[str] = []  # id -> token


def encode(tokens: Sequence[str]) -> np.ndarray:
    # Known tokens are looked up in C; only a new one calls __missing__.
    return np.fromiter(map(_VOCAB.__getitem__, tokens), dtype=np.int32, count=len(tokens))


def decode(ids: np.ndarray) -> list[str]:
    return list(map(_TOKENS.__getitem__, ids.tolist()))


class Tokenizer:
    """Deterministic text-to-token mapping, named by a spec:

        whitespace: split on runs of whitespace (the default; zero assets).
        byte: one token per UTF-8 byte.
        vocab:<path>: whitespace split, then map tokens absent from the
            vocabulary file at <path> (one token per line) to ``<unk>``.
    """

    def __init__(self, spec: str = "whitespace"):
        self.mode, _, path = spec.partition(":")
        if spec not in ("whitespace", "byte") and not (self.mode == "vocab" and path):
            raise CorpusError(
                f"unknown tokenizer spec {spec!r}: expected whitespace, byte or vocab:<path>")
        if path:
            try:
                with open(path, "r", encoding="utf-8-sig") as fh:
                    self._vocab = {line.rstrip("\n") for line in fh if line.rstrip("\n")}
            except UnicodeDecodeError as exc:
                raise CorpusError(f"{path}: not UTF-8 ({exc.reason})") from exc

    def tokenize(self, text: str) -> list[str]:
        if self.mode == "whitespace":
            return text.split()
        if self.mode == "byte":
            return [chr(b) for b in text.encode("utf-8")]
        return [t if t in self._vocab else UNKNOWN_TOKEN for t in text.split()]


DEFAULT_TOKENIZER = Tokenizer()


@dataclass(frozen=True)
class Document:
    """One unit of UTF-8 text with its token ids."""

    id: str
    text: str
    ids: np.ndarray = field(repr=False, compare=False)  # an array has no == or hash()

    @property
    def token_count(self) -> int:
        return len(self.ids)

    @classmethod
    def create(cls, id: str, text: str, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> "Document":
        return cls(id=id, text=text, ids=encode(tokenizer.tokenize(text)))


@dataclass
class Corpus:
    """Ordered sequence of documents with unique ids."""

    documents: list[Document] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for doc in self.documents:
            if doc.id in seen:
                raise CorpusError(f"duplicate document id: {doc.id!r}")
            seen.add(doc.id)

    @property
    def total_tokens(self) -> int:
        return sum(doc.token_count for doc in self.documents)

    def token_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Every document's token ids laid end to end, and each one's count."""
        return (np.concatenate([np.zeros(0, dtype=np.int32), *(d.ids for d in self.documents)]),
                np.array([d.token_count for d in self.documents], dtype=np.int64))

    @property
    def total_bytes(self) -> int:
        return sum(len(doc.text.encode("utf-8")) for doc in self.documents)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)


def load_jsonl(path: str, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> Corpus:
    """Load a corpus from a JSONL file; one document per line.

    Each line must be a JSON object with a ``text`` string field. Missing
    ids are assigned ``<filename>:<line>``. An empty file yields an empty
    corpus; malformed lines, and a text or id holding a lone surrogate
    escape (which UTF-8 cannot encode), raise with the path and line number,
    and a repeated id with the path.
    """
    name = os.path.basename(path)
    docs = []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
                except (ValueError, RecursionError) as exc:  # an integer int() refuses, or too deep
                    raise CorpusError(f"{path}: line {lineno}: cannot parse JSON ({exc})") from exc
                if not isinstance(obj, dict) or "text" not in obj:
                    raise CorpusError(f"{path}: line {lineno}: missing field text")
                text = obj["text"]
                if not isinstance(text, str):
                    raise CorpusError(f"{path}: line {lineno}: field text is not a string")
                doc_id = str(obj.get("id", f"{name}:{lineno}"))
                # JSON can escape a lone surrogate, which no UTF-8 encode takes;
                # an ASCII string (an O(1) check) cannot hold one.
                if not (text.isascii() and doc_id.isascii()):
                    for key, value in (("text", text), ("id", doc_id)):
                        try:
                            value.encode("utf-8")
                        except UnicodeEncodeError as exc:
                            raise CorpusError(f"{path}: line {lineno}: field {key} cannot be "
                                              f"encoded as UTF-8 ({exc.reason})") from None
                docs.append(Document.create(doc_id, text, tokenizer))
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 ({exc.reason})") from exc
    try:
        return Corpus(docs)
    except CorpusError as exc:  # a repeated id
        raise CorpusError(f"{path}: {exc}") from exc


def write_jsonl(corpus: Corpus, path: str) -> None:
    """Write a corpus as JSONL, mirroring the input format (id, text)."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus:
            fh.write(json.dumps({"id": doc.id, "text": doc.text}, ensure_ascii=False))
            fh.write("\n")


def _rank_hash(seed: int, doc_id: str) -> int:
    # Stable across platforms and runs, unlike builtin hash().
    digest = hashlib.blake2b(
        doc_id.encode("utf-8"), digest_size=8, key=str(seed).encode("utf-8")
    ).digest()
    return int.from_bytes(digest, "big")


def sample_fraction(corpus: Corpus, fraction: float, seed: int = 0) -> Corpus:
    """Deterministic pseudo-random subset of ceil(fraction * n) documents.

    The product is taken exactly, on the fraction as written in decimal,
    so 0.55 of 100 documents is 55 even though ``0.55 * 100`` in floating
    point exceeds 55. Documents are ranked by a seeded hash of their id
    and the lowest-ranked prefix is kept, so samples nest: the 10% sample
    is a subset of the 50% sample at the same seed. Output preserves the
    original document order.
    """
    if not (0.0 < fraction <= 1.0):
        raise CorpusError(f"fraction must be in (0, 1], got {_shown(fraction)}")
    n = len(corpus)
    mantissa, _, exponent = str(fraction).partition("e")
    whole, _, decimals = mantissa.partition(".")
    take = -(-int(whole + decimals) * n // 10 ** (len(decimals) - int(exponent or 0)))
    if take >= n:
        return Corpus(list(corpus.documents))
    ranked = sorted(corpus.documents, key=lambda d: (_rank_hash(seed, d.id), d.id))
    keep = {d.id for d in ranked[:take]}
    return Corpus([d for d in corpus.documents if d.id in keep])

