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
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from .corpus import Corpus, UNKNOWN_TOKEN, decode, encode, sample_fraction
from .errors import ProtocolError, ScorerError

DEFAULT_CONTEXT_LEN = 1024
DEFAULT_KGRAM_K = 3
DEFAULT_SAMPLE_FRACTION = 0.25
# Requests an external scorer may have outstanding at a time.
MAX_IN_FLIGHT = 8
# Bytes of a subprocess scorer's stderr kept to explain its death.
STDERR_TAIL = 4096
# An unfinished response line may hold this many bytes per token of the
# longest window awaiting an answer, plus LINE_SLACK, before it is refused.
LINE_BYTES_PER_TOKEN = 64
LINE_SLACK = 1 << 16
# Tokens the k-gram scorer scores in one numpy pass.
SCORE_BATCH_TOKENS = 1 << 14


class LikelihoodScorer(Protocol):
    """Anything that can score windows of token ids.

    Each window is an int32 array of ids of the process-wide vocabulary, at
    most ``context_len`` long; a scorer that reads tokens turns them back
    into strings with ``qtokens.corpus.decode``. ``score_windows`` yields one
    sequence per window, in input order, holding one number per token: its
    log-probability, finite and <= 0. ``score_corpus`` checks every value
    and raises ``ScorerError``, naming the document, for any that breaks
    this contract; a scorer need not check its own output.
    """

    context_len: int

    def score_windows(self, windows: Iterable[np.ndarray]) -> Iterator[Sequence[float]]:
        """Log-probability of each window's tokens, each given the tokens
        before it in its window: one sequence per window, in input order."""
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


class KgramScorer:
    """Count-based k-gram model with add-alpha smoothing, on integer ids.

    Probabilities are normalized over the training vocabulary plus one
    unknown symbol, so they sum to 1 for every context. Tokens outside
    the vocabulary (as targets or context) are mapped to the unknown
    symbol, which keeps every log-probability finite.

    The counts live in four sorted-key arrays over integer token ids. A
    context of m tokens is keyed by the table index of its first m - 1
    tokens and its last id, so keys stay below the table size times
    ``len(types) + 1`` whatever k is. The context table holds every
    context seen in training plus the shorter n-grams that chain to them,
    with how often each preceded a token; the pair table holds each
    (context index, token id) with its count.
    """

    def __init__(
        self,
        k: int,
        smoothing: float,
        types: np.ndarray,
        ctx_keys: np.ndarray,
        ctx_totals: np.ndarray,
        pair_keys: np.ndarray,
        pair_counts: np.ndarray,
        context_len: int = DEFAULT_CONTEXT_LEN,
    ):
        # Lets perfbench tell k-gram scoring time apart in its traces.
        self.kind = "builtin-kgram"
        self.k = k
        self.smoothing = smoothing
        self.context_len = context_len
        self._ctx_keys = ctx_keys
        self._ctx_totals = ctx_totals
        self._pair_keys = pair_keys
        self._pair_counts = pair_counts
        # Event space: vocabulary (``types``, its sorted ids) plus the unknown symbol.
        self._n_events = len(types) + 1
        pos, found = _find(types, encode([UNKNOWN_TOKEN]))
        self._lookup = np.full(types[-1] + 2, pos[0] if found[0] else len(types), dtype=np.int64)
        self._lookup[types] = np.arange(len(types))

    def _probs(self, windows: Sequence[np.ndarray]) -> np.ndarray:
        """Probability of every token of ``windows``, laid end to end, given
        the tokens before it in its own window."""
        lengths = np.fromiter(map(len, windows), dtype=np.int64, count=len(windows))
        ids = np.take(self._lookup, np.concatenate(windows), mode="clip")
        # Offset of every position in its window; a position has min(offset, k - 1)
        # tokens of context.
        offset = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        radix = self._n_events
        ctx = np.zeros(len(ids), dtype=np.int64)  # every position has the empty context
        for m in range(1, self.k):
            at = np.flatnonzero(offset >= m)
            # Extend the (m-1)-token context of position i - 1 by ids[i - 1],
            # keyed as in training.
            prefix = ctx[at - 1]
            pos, found = _find(self._ctx_keys, prefix * radix + ids[at - 1] + 1)
            ctx[at] = np.where((prefix >= 0) & found, pos, -1)  # -1: never seen
        seen = ctx >= 0
        totals = np.where(seen, self._ctx_totals[ctx], 0)
        pos, found = _find(self._pair_keys, ctx * radix + ids)
        counts = np.where(seen & found, self._pair_counts[pos], 0)
        return (counts + self.smoothing) / (totals + self.smoothing * self._n_events)

    def score_windows(self, windows: Iterable[np.ndarray]) -> Iterator[list[float]]:
        """Log-probabilities of each id window's tokens, in input order.

        Windows are drawn from ``windows`` and scored together in batches
        of about ``SCORE_BATCH_TOKENS`` tokens: a batch closes with the
        window that brings it to that size, so no window is split.
        """
        batch: list[np.ndarray] = []
        size = 0
        for window in windows:
            batch.append(window)
            size += len(window)
            if size >= SCORE_BATCH_TOKENS:
                yield from self._score_batch(batch)
                batch, size = [], 0
        if batch:
            yield from self._score_batch(batch)

    def _score_batch(self, batch: Sequence[np.ndarray]) -> Iterator[list[float]]:
        # math.log, not np.log: numpy's vectorized log differs in the last
        # bit on some inputs, and the scores must not depend on the build.
        logs = list(map(math.log, self._probs(batch).tolist()))
        start = 0
        for window in batch:
            yield logs[start : start + len(window)]
            start += len(window)


def _find(table: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each key in the sorted, non-empty ``table``, and whether it is there."""
    pos = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    return pos, table[pos] == keys


def train_kgram_scorer(
    reference: Corpus,
    k: int = DEFAULT_KGRAM_K,
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
    ids, lengths = reference.token_ids()
    longest = int(lengths.max())
    if k > longest:
        raise ScorerError(f"k={k} exceeds longest reference document ({longest} tokens)")
    types, ids = np.unique(ids, return_inverse=True)
    radix = len(types) + 1
    # Position of every token within its document.
    pos = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    # Index of each position's context in the table, grown one token per level
    # up to min(pos, k - 1) tokens; level 0 is the empty context, key 0.
    ctx = np.zeros(len(ids), dtype=np.int64)
    tables = [np.zeros(1, dtype=np.int64)]
    size = 1
    for m in range(1, k):
        at = np.flatnonzero(pos >= m)
        # Key: prefix index * radix + last id + 1, so no key is the empty
        # context's 0. Level-m keys all exceed level m - 1's, so the joined
        # table stays sorted.
        table, rank = np.unique(ctx[at - 1] * radix + ids[at - 1] + 1, return_inverse=True)
        ctx[at] = size + rank
        tables.append(table)
        size += len(table)
    pair_keys, pair_counts = np.unique(ctx * radix + ids, return_counts=True)
    return KgramScorer(k, smoothing, types, np.concatenate(tables),
                       np.bincount(ctx, minlength=size), pair_keys, pair_counts, context_len)


class ExternalScorer:
    """Client for an external scorer process or socket.

    The peer must answer each ``{"id": ..., "tokens": [...]}`` request line
    with a ``{"id": ..., "logprobs": [...]}`` line; responses may arrive in
    any order and are matched back by id. Up to ``MAX_IN_FLIGHT`` requests
    are outstanding at a time. The peer must make progress, by accepting
    request bytes or completing a response line, within ``timeout`` seconds
    of its last progress, and a response line may not outgrow
    ``LINE_BYTES_PER_TOKEN`` bytes per token of the longest window awaiting
    an answer plus ``LINE_SLACK``; either failure is a ``ProtocolError``. A
    target that cannot be reached or started raises ``ScorerError``.

    A subprocess scorer's stderr is read while its responses are awaited,
    so a chatty child never blocks on a full pipe; only the last
    ``STDERR_TAIL`` bytes are kept, to name in the error if it dies.
    """

    def __init__(self, target: str, context_len: int = DEFAULT_CONTEXT_LEN,
                 timeout: float = 30.0):
        self.context_len = context_len
        self.timeout = timeout
        self._next_id = 0
        self._buffer = bytearray()
        self._efd = None  # a subprocess scorer's stderr, until it ends
        self._stderr_tail = b""
        # Both directions are non-blocking: the duplex loop waits in select,
        # and a write may be partial.
        if target.startswith("tcp://"):
            host, _, port = target[len("tcp://") :].partition(":")
            if not port:
                raise ScorerError(f"endpoint {target!r} is missing a port")
            try:
                conn = socket.create_connection((host, int(port)), timeout=timeout)
            except (OSError, OverflowError, ValueError) as exc:
                raise ScorerError(f"cannot connect to scorer {target!r}: {exc}") from exc
            conn.setblocking(False)
            self._proc = None
            self._conn = conn
            self._rfd = self._wfd = conn.fileno()
        else:
            try:
                argv = shlex.split(target)
                if not argv:
                    raise ValueError("empty command")
                self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                              stderr=subprocess.PIPE)
            except (OSError, ValueError) as exc:
                raise ScorerError(f"cannot start scorer {target!r}: {exc}") from exc
            self._conn = None
            self._rfd = self._proc.stdout.fileno()
            self._wfd = self._proc.stdin.fileno()
            self._efd = self._proc.stderr.fileno()
            os.set_blocking(self._wfd, False)
            os.set_blocking(self._efd, False)

    def close(self):
        if self._proc is not None:
            try:
                self._proc.stdin.close()
            except Exception:
                pass
            self._proc.terminate()
            try:
                self._proc.wait(timeout=self.timeout)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()
            self._proc.stderr.close()
        if self._conn is not None:
            self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _exit_status(self, when: str = "") -> str:
        """Say how a scorer ended, for a stream it closed: ``when`` (such as
        " before responding") follows the status, and a subprocess scorer's
        last stderr line ends the message."""
        if self._proc is None:
            return f"scorer closed the connection{when}"
        try:
            status = self._proc.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            return f"scorer closed its output but is still running{when}"
        while self._drain_stderr():
            pass
        lines = self._stderr_tail.decode("utf-8", "replace").strip().splitlines()
        last = f"; its stderr ends: {lines[-1].strip()!r}" if lines else ""
        return f"scorer exited with status {status}{when}{last}"

    def _drain_stderr(self) -> bool:
        """Read what a subprocess scorer has written to stderr, keeping the
        last ``STDERR_TAIL`` bytes; return whether more may be waiting."""
        if self._efd is None:
            return False
        try:
            chunk = os.read(self._efd, 1 << 16)
        except OSError:  # nothing to read yet; a broken pipe just ends the tail
            return False
        if not chunk:
            self._efd = None
            return False
        self._stderr_tail = (self._stderr_tail + chunk)[-STDERR_TAIL:]
        return True

    def _wait(self, writing: bool, deadline: float) -> tuple[bool, bool]:
        """Wait until the ``time.monotonic()`` ``deadline`` for the peer to
        have output to read or, if ``writing``, room for input; drain stderr
        meanwhile. Return (readable, writable); both False means the
        deadline passed."""
        while (left := deadline - time.monotonic()) > 0:
            watched = [self._rfd] if self._efd is None else [self._rfd, self._efd]
            readable, writable, _ = select.select(
                watched, [self._wfd] if writing else [], [], left)
            if self._efd is not None and self._efd in readable:
                self._drain_stderr()
            if self._rfd in readable or writable:
                return self._rfd in readable, bool(writable)
        return False, False

    def _parse_response(self, line: bytes) -> tuple[str, list[float]]:
        """Check one response line's format; its values are checked by
        ``score_corpus``."""
        try:
            obj = json.loads(line)
        except ValueError as exc:  # not JSON, or bytes that are not UTF-8
            raise ProtocolError(f"invalid JSON from scorer: {exc}") from exc
        if not isinstance(obj, dict) or "id" not in obj or "logprobs" not in obj:
            raise ProtocolError("response missing id or logprobs")
        logprobs = obj["logprobs"]
        # JSON numbers parse to float or int, and an int must fit a float;
        # true and false parse to bool, which is not a number here.
        if isinstance(logprobs, list) and {float, int}.issuperset(map(type, logprobs)):
            try:
                deque(map(float, logprobs), maxlen=0)  # converts every value, keeps none
                return str(obj["id"]), logprobs
            except OverflowError:
                pass
        raise ProtocolError("logprobs is not a list of numbers")

    def _read_lines(self, cap: int) -> list[bytes]:
        """Read what the peer has sent; return the complete lines in it. An
        unfinished line longer than ``cap`` bytes is a ``ProtocolError``."""
        try:
            chunk = os.read(self._rfd, 1 << 16)
        except BlockingIOError:  # select may report a socket ready spuriously
            return []
        except OSError as exc:
            raise ProtocolError(f"cannot read from scorer: {exc}") from exc
        if not chunk:
            raise ProtocolError(self._exit_status(" before responding"))
        self._buffer += chunk
        lines = []
        if b"\n" in chunk:
            *lines, self._buffer = self._buffer.split(b"\n")
        if len(self._buffer) > cap:
            raise ProtocolError(f"scorer response line is longer than {cap} bytes")
        return [bytes(line) for line in lines]

    def _write(self, data: memoryview) -> memoryview:
        """Write what the peer will take now; return the unwritten rest."""
        try:
            return data[os.write(self._wfd, data) :]
        except BlockingIOError:
            return data
        except BrokenPipeError as exc:
            raise ProtocolError(f"cannot send to scorer: {self._exit_status()}") from exc
        except OSError as exc:
            raise ProtocolError(f"cannot send to scorer: {exc}") from exc

    def score_windows(self, windows: Iterable[np.ndarray]) -> Iterator[list[float]]:
        """Score id windows, yielding their log-probabilities in input order.

        Each window's ids are decoded to tokens as its request is built.
        Windows are drawn from ``windows`` only as requests are sent, and at
        most ``MAX_IN_FLIGHT`` windows are either awaiting a response or
        holding one that is not yet due, so neither the input nor the output
        is held in memory as a whole. The ``timeout`` counts from the peer's
        last progress, or from when the caller resumes the generator.
        """
        windows = iter(windows)
        pending: dict[str, tuple[int, int]] = {}  # request id -> (window index, tokens)
        ready: dict[int, list[float]] = {}  # responses that arrived ahead of their turn
        out = memoryview(b"")
        sent = 0
        due = 0
        exhausted = False
        deadline = time.monotonic() + self.timeout
        while True:
            if not out and not exhausted and len(pending) + len(ready) < MAX_IN_FLIGHT:
                window = next(windows, None)
                if window is None:
                    exhausted = True
                else:
                    req_id = f"q{self._next_id}"
                    self._next_id += 1
                    pending[req_id] = (sent, len(window))
                    sent += 1
                    request = json.dumps({"id": req_id, "tokens": decode(window)}) + "\n"
                    out = memoryview(request.encode("utf-8"))
            if due in ready:
                yield ready.pop(due)
                due += 1
                deadline = time.monotonic() + self.timeout
                continue
            if due == sent and exhausted:
                return
            readable, writable = self._wait(bool(out), deadline)
            if not readable and not writable:
                if out:
                    raise ProtocolError(f"cannot send to scorer: timed out after {self.timeout}s")
                raise ProtocolError(f"scorer timed out after {self.timeout}s")
            if writable:
                rest = self._write(out)
                if len(rest) < len(out):
                    deadline = time.monotonic() + self.timeout
                out = rest
            if readable:
                longest = max(n for _, n in pending.values())
                for line in self._read_lines(LINE_BYTES_PER_TOKEN * longest + LINE_SLACK):
                    resp_id, logprobs = self._parse_response(line)
                    if resp_id not in pending:
                        raise ProtocolError(f"unknown response id {resp_id!r}")
                    ready[pending.pop(resp_id)[0]] = logprobs
                    deadline = time.monotonic() + self.timeout

    def log_probs(self, tokens: Sequence[str]) -> list[float]:
        """The values the scorer returns for one window of tokens, after the
        format check only: their count and range are not checked."""
        (logprobs,) = self.score_windows([encode(tokens)])
        return logprobs


def _window_sum(logprobs: Sequence[float], n_tokens: int, doc_id: str) -> float:
    """The sum of one window's log-probabilities, which must be ``n_tokens``
    numbers, each finite and <= 0, with a sum within the float range;
    otherwise a ``ScorerError`` naming the document."""
    try:
        n_values = len(logprobs)
    except TypeError:  # an iterator or None: not a sequence
        raise ScorerError(f"scorer returned {type(logprobs).__name__!r}, not a sequence, "
                          f"for document {doc_id!r}") from None
    if n_values != n_tokens:
        raise ScorerError(
            f"scorer returned {n_values} values for {n_tokens} tokens (document {doc_id!r})"
        )
    # In C first: a finite sum means every value is a finite number.
    try:
        total = math.fsum(logprobs)
        if math.isfinite(total) and max(logprobs) <= 0:
            return total
    except (TypeError, ValueError, OverflowError):  # a non-number, inf + -inf, or too large a sum
        pass
    # Otherwise find the first bad value, to name it.
    for lp in logprobs:
        try:
            if -math.inf < lp <= 0:  # false for NaN
                continue
        except TypeError:
            raise ScorerError(f"value that is not a number on document {doc_id!r}: {lp!r}") from None
        problem = "log-probability > 0" if lp > 0 else "non-finite log-probability"
        raise ScorerError(f"{problem} on document {doc_id!r}: {lp}")
    raise ScorerError(f"log-probabilities on document {doc_id!r} sum beyond the float range")


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

    The windows go to ``scorer.score_windows`` as slices of each
    document's ids. Its output is checked here, for every scorer: one
    number per token, each in (-inf, 0], or ``ScorerError`` names the
    document.
    An average NLL above about 709 nats per token (ln of the largest
    float) has no finite perplexity and raises ``ScorerError``.
    """
    if len(corpus) == 0:
        raise ScorerError("cannot score an empty corpus")
    ctx = scorer.context_len
    if ctx < 1:
        raise ScorerError(f"context_len must be >= 1, got {ctx}")
    sampled = sorted(sample_fraction(corpus, sample_frac, seed), key=lambda d: d.id)

    def spans():
        for doc in sampled:
            for start in range(0, doc.token_count, ctx):
                yield doc, start

    # Windows are sliced only as the scorer asks for them, so an external
    # scorer can keep several in flight without the corpus being copied.
    results = iter(scorer.score_windows(doc.ids[start : start + ctx] for doc, start in spans()))
    window_sums = []
    m_tokens = 0
    for doc, start in spans():
        try:
            logprobs = next(results)
        except ProtocolError:
            raise
        except Exception as exc:
            raise ScorerError(f"scorer failed on document {doc.id!r}: {exc}") from exc
        n_tokens = min(ctx, doc.token_count - start)
        window_sums.append(_window_sum(logprobs, n_tokens, doc.id))
        m_tokens += n_tokens
    if m_tokens == 0:
        raise ScorerError("sampled corpus contains no scoreable tokens")
    try:
        # + 0.0 turns the -0.0 of an all-zero sum into 0.0 and leaves any
        # other value as it is.
        avg_nll = -math.fsum(window_sums) / m_tokens + 0.0
        perplexity = math.exp(avg_nll)
    except OverflowError:
        raise ScorerError(
            "average NLL is too large for a finite perplexity (above about 709 nats per token)"
        ) from None
    return SyntheticityResult(
        avg_nll=avg_nll,
        perplexity=perplexity,
        s=1.0 / perplexity,
        m_tokens=m_tokens,
    )
