"""Syntheticity: inverse perplexity of a corpus under a teacher scorer.

A likelihood scorer assigns a log-probability to every token given its
in-window prefix. The syntheticity score is ``1 / exp(avg_nll)``, so
text the teacher finds predictable scores close to 1 and text it finds
surprising scores close to 0.

Two scorers are provided: a count-based k-gram model with add-smoothing
for desk-scale runs, and a client for an external process or socket that
speaks a newline-delimited JSON protocol (one request/response object per
line, matched by id).
"""

from __future__ import annotations

import json
import math
import os
import select
import shlex
import socket
import subprocess
from collections import Counter
from dataclasses import dataclass
from typing import Protocol, Sequence

from .corpus import Corpus, UNKNOWN_TOKEN, sample_fraction
from .errors import ProtocolError, ScorerError

DEFAULT_CONTEXT_LEN = 1024
DEFAULT_SAMPLE_FRACTION = 0.25


class LikelihoodScorer(Protocol):
    """Anything that can score a token window."""

    context_len: int

    def log_probs(self, tokens: Sequence[str]) -> list[float]:
        """Log-probability of each token given the tokens before it."""
        ...


@dataclass(frozen=True)
class SyntheticityResult:
    """Corpus-level scoring outcome.

    Invariants: ``perplexity = exp(avg_nll)`` and ``s = 1 / perplexity``,
    so ``s`` always lies in (0, 1].
    """

    avg_nll: float
    perplexity: float
    s: float
    m_tokens: int
    sample_fraction: float

    def to_dict(self) -> dict:
        return {
            "avg_nll": self.avg_nll,
            "perplexity": self.perplexity,
            "syntheticity": self.s,
            "m_tokens": self.m_tokens,
            "sample_fraction": self.sample_fraction,
        }


class KgramScorer:
    """Count-based k-gram model with add-alpha smoothing.

    Probabilities are normalized over the training vocabulary plus one
    unknown symbol, so they sum to 1 for every context. Tokens outside
    the vocabulary (as targets or context) are mapped to the unknown
    symbol, which keeps every log-probability finite.
    """

    def __init__(
        self,
        k: int,
        smoothing: float,
        vocab: set[str],
        context_counts: dict[tuple, Counter],
        context_len: int = DEFAULT_CONTEXT_LEN,
    ):
        self.kind = "builtin-kgram"
        self.k = k
        self.smoothing = smoothing
        self.vocab = vocab
        self._counts = context_counts
        self._context_totals = {ctx: sum(c.values()) for ctx, c in context_counts.items()}
        self.context_len = context_len
        # Event space: vocabulary plus the unknown symbol.
        self._n_events = len(vocab) + 1

    def _norm(self, token: str) -> str:
        return token if token in self.vocab else UNKNOWN_TOKEN

    def prob(self, token: str, context: Sequence[str]) -> float:
        ctx = tuple(self._norm(t) for t in context[max(0, len(context) - (self.k - 1)) :])
        counter = self._counts.get(ctx)
        count = counter[self._norm(token)] if counter is not None else 0
        total = self._context_totals.get(ctx, 0)
        return (count + self.smoothing) / (total + self.smoothing * self._n_events)

    def log_probs(self, tokens: Sequence[str]) -> list[float]:
        out = []
        for i, token in enumerate(tokens):
            out.append(math.log(self.prob(token, tokens[max(0, i - (self.k - 1)) : i])))
        return out


def train_kgram_scorer(
    reference: Corpus,
    k: int,
    smoothing: float = 1.0,
    context_len: int = DEFAULT_CONTEXT_LEN,
) -> KgramScorer:
    """Fit a k-gram scorer on a reference corpus.

    Counts every k-gram (shorter contexts at document starts included), so
    the first tokens of a document are scored against truncated contexts.
    """
    if k < 1:
        raise ScorerError(f"k must be >= 1, got {k}")
    if smoothing <= 0:
        raise ScorerError(f"smoothing must be > 0, got {smoothing}")
    if len(reference) == 0:
        raise ScorerError("reference corpus is empty")
    longest = max(doc.token_count for doc in reference)
    if k > longest:
        raise ScorerError(f"k={k} exceeds longest reference document ({longest} tokens)")
    vocab: set[str] = set()
    context_counts: dict[tuple, Counter] = {}
    for doc in reference:
        tokens = doc.tokens
        vocab.update(tokens)
        for i, token in enumerate(tokens):
            ctx = tokens[max(0, i - (k - 1)) : i]
            context_counts.setdefault(ctx, Counter())[token] += 1
    return KgramScorer(k, smoothing, vocab, context_counts, context_len)


class ExternalScorer:
    """Client for an external scorer process or socket.

    The peer must answer each ``{"id": ..., "tokens": [...]}`` request line
    with a ``{"id": ..., "logprobs": [...]}`` line; responses may arrive in
    any order and are matched back by id. Up to ``max_in_flight`` requests
    are outstanding at a time.
    """

    def __init__(self, target: str, context_len: int = DEFAULT_CONTEXT_LEN,
                 timeout: float = 30.0, max_in_flight: int = 8):
        self.kind = "external"
        self.context_len = context_len
        self.timeout = timeout
        self.max_in_flight = max_in_flight
        self._next_id = 0
        self._buffer = b""
        if target.startswith("tcp://"):
            host, _, port = target[len("tcp://") :].partition(":")
            if not port:
                raise ScorerError(f"endpoint {target!r} is missing a port")
            conn = socket.create_connection((host, int(port)), timeout=timeout)
            self._proc = None
            self._conn = conn
        else:
            self._proc = subprocess.Popen(
                shlex.split(target),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
            self._conn = None

    def close(self):
        if self._proc is not None:
            try:
                self._proc.stdin.close()
            except Exception:
                pass
            self._proc.terminate()
            self._proc.wait(timeout=5)
        if self._conn is not None:
            self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _send(self, data: bytes) -> None:
        # A blocking socket write gives up after ``timeout``; a dead child
        # gives a broken pipe. Either way the caller sees a ProtocolError.
        try:
            if self._conn is not None:
                self._conn.sendall(data)
            else:
                self._proc.stdin.write(data)
                self._proc.stdin.flush()
        except OSError as exc:
            raise ProtocolError(f"cannot send to scorer: {exc}") from exc

    def _fileno(self) -> int:
        return self._conn.fileno() if self._conn is not None else self._proc.stdout.fileno()

    def _read_line(self) -> bytes:
        while b"\n" not in self._buffer:
            ready, _, _ = select.select([self._fileno()], [], [], self.timeout)
            if not ready:
                raise ProtocolError(f"scorer timed out after {self.timeout}s")
            if self._conn is not None:
                chunk = self._conn.recv(65536)
            else:
                chunk = os.read(self._proc.stdout.fileno(), 65536)
            if not chunk:
                raise ProtocolError("scorer closed the stream before responding")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line

    def _read_response(self) -> tuple[str, list[float]]:
        line = self._read_line()
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid JSON from scorer: {exc.msg}", payload=line) from exc
        if not isinstance(obj, dict) or "id" not in obj or "logprobs" not in obj:
            raise ProtocolError("response missing id or logprobs", payload=line)
        logprobs = obj["logprobs"]
        if not isinstance(logprobs, list) or not all(
            isinstance(v, (int, float)) for v in logprobs
        ):
            raise ProtocolError("logprobs is not a list of numbers", payload=line)
        return str(obj["id"]), [float(v) for v in logprobs]

    def score_batches(self, batches: Sequence[Sequence[str]]) -> list[list[float]]:
        """Score several token windows, preserving input order."""
        pending: dict[str, int] = {}
        results: list[list[float] | None] = [None] * len(batches)
        sent = 0
        received = 0
        while received < len(batches):
            while sent < len(batches) and len(pending) < self.max_in_flight:
                req_id = f"q{self._next_id}"
                self._next_id += 1
                pending[req_id] = sent
                request = {"id": req_id, "tokens": list(batches[sent])}
                self._send((json.dumps(request) + "\n").encode("utf-8"))
                sent += 1
            resp_id, logprobs = self._read_response()
            if resp_id not in pending:
                raise ProtocolError(f"unknown response id {resp_id!r}", payload=resp_id)
            index = pending.pop(resp_id)
            if len(logprobs) != len(batches[index]):
                raise ProtocolError(
                    f"expected {len(batches[index])} logprobs, got {len(logprobs)}",
                    payload=logprobs,
                )
            bad = [v for v in logprobs if v > 0 or not math.isfinite(v)]
            if bad:
                raise ProtocolError(f"log-probability > 0: {bad[0]}", payload=logprobs)
            results[index] = logprobs
            received += 1
        return results  # type: ignore[return-value]

    def log_probs(self, tokens: Sequence[str]) -> list[float]:
        return self.score_batches([tokens])[0]


def external_scorer_connect(command_or_endpoint: str, context_len: int = DEFAULT_CONTEXT_LEN,
                            timeout: float = 30.0) -> ExternalScorer:
    """Connect to an external scorer (``tcp://host:port`` or a command line)."""
    return ExternalScorer(command_or_endpoint, context_len=context_len, timeout=timeout)


def score_corpus(
    scorer: LikelihoodScorer,
    corpus: Corpus,
    sample_frac: float = DEFAULT_SAMPLE_FRACTION,
    seed: int = 0,
) -> SyntheticityResult:
    """Score a deterministic sample of whole documents.

    Documents are sampled by seeded hash, split into non-overlapping
    windows of at most ``scorer.context_len`` tokens, and every token is
    scored against its within-window prefix. Cross-window context is not
    used. Scoring visits the sampled documents in id order, so the result
    is independent of how the corpus happens to be ordered.
    """
    if len(corpus) == 0:
        raise ScorerError("cannot score an empty corpus")
    sampled = sorted(sample_fraction(corpus, sample_frac, seed), key=lambda d: d.id)
    window_sums = []
    m_tokens = 0
    for doc in sampled:
        for start in range(0, doc.token_count, scorer.context_len):
            window = doc.tokens[start : start + scorer.context_len]
            try:
                logprobs = scorer.log_probs(window)
            except ProtocolError:
                raise
            except Exception as exc:
                raise ScorerError(f"scorer failed on document {doc.id!r}: {exc}") from exc
            if len(logprobs) != len(window):
                raise ScorerError(
                    f"scorer returned {len(logprobs)} values for {len(window)} tokens "
                    f"(document {doc.id!r})"
                )
            for lp in logprobs:
                if lp > 0:
                    raise ScorerError(f"log-probability > 0 on document {doc.id!r}: {lp}")
            window_sums.append(math.fsum(logprobs))
            m_tokens += len(window)
    if m_tokens == 0:
        raise ScorerError("sampled corpus contains no scoreable tokens")
    avg_nll = -math.fsum(window_sums) / m_tokens
    perplexity = math.exp(avg_nll)
    return SyntheticityResult(
        avg_nll=avg_nll,
        perplexity=perplexity,
        s=1.0 / perplexity,
        m_tokens=m_tokens,
        sample_fraction=sample_frac,
    )
