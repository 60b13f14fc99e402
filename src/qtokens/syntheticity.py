"""Syntheticity: inverse perplexity of a corpus under a teacher scorer.

A likelihood scorer assigns a log-probability to every token given its
in-window prefix. The syntheticity score is ``1 / exp(avg_nll)``, so
text the teacher finds predictable scores close to 1 and text it finds
surprising scores close to 0.

Two scorers are provided: a count-based k-gram model with add-smoothing
for desk-scale runs, and a client for an external process or socket that
speaks a newline-delimited JSON protocol (one request/response object per
line, matched by id), which lives in ``qtokens.external`` and is opened by
``external_scorer_connect``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .corpus import Corpus, UNKNOWN_TOKEN, encode, sample_fraction
from .errors import ScorerError, _shown

if TYPE_CHECKING:
    from .external import ExternalScorer

DEFAULT_CONTEXT_LEN = 1024
# The k-gram teacher, fixed so that S means the same in every run.
KGRAM_K = 3
KGRAM_SMOOTHING = 1.0
DEFAULT_SAMPLE_FRACTION = 0.25
# Tokens the k-gram scorer scores in one numpy pass.
SCORE_BATCH_TOKENS = 1 << 14


class LikelihoodScorer(Protocol):
    """Anything that can score windows of token ids.

    Each window is an int32 array of ids of the process-wide vocabulary, at
    most ``context_len`` long; a scorer that reads tokens turns them back
    into strings with ``qtokens.corpus.decode``. ``score_windows`` is a
    generator, which ``score_corpus`` closes when it stops, that yields one
    sequence per window, in input order, holding one number per token: its
    log-probability, a finite number <= 0 (not a bool). ``score_corpus``
    checks every value and raises ``ScorerError``, naming the document, for
    any that breaks this contract; a scorer need not check its own output.
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


@dataclass(eq=False)
class KgramScorer:
    """Count-based k-gram model with add-alpha smoothing, on integer ids.

    Probabilities are normalized over the training vocabulary plus one
    unknown symbol, ``n_events`` events in all, so they sum to 1 for every
    context. ``lookup`` maps a token id to its event; tokens outside the
    vocabulary (as targets or context) are mapped to the unknown symbol,
    which keeps every log-probability finite.

    The counts live in four sorted-key arrays over integer token ids. A
    context of m tokens is keyed by the table index of its first m - 1
    tokens and its last id, so keys stay below the table size times
    ``n_events`` whatever k is. The context table holds every context seen
    in training plus the shorter n-grams that chain to them, with how
    often each preceded a token; the pair table holds each (context index,
    token id) with its count.
    """

    # Lets perfbench tell k-gram scoring time apart in its traces.
    kind = "builtin-kgram"

    k: int
    smoothing: float
    context_len: int
    lookup: np.ndarray
    n_events: int
    ctx_keys: np.ndarray
    ctx_totals: np.ndarray
    pair_keys: np.ndarray
    pair_counts: np.ndarray

    def _probs(self, windows: Sequence[np.ndarray]) -> np.ndarray:
        """Probability of every token of ``windows``, laid end to end, given
        the tokens before it in its own window."""
        lengths = np.fromiter(map(len, windows), dtype=np.int64, count=len(windows))
        ids = np.take(self.lookup, np.concatenate(windows), mode="clip")
        # Offset of every position in its window; a position has min(offset, k - 1)
        # tokens of context.
        offset = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        radix = self.n_events
        ctx = np.zeros(len(ids), dtype=np.int64)  # every position has the empty context
        for m in range(1, self.k):
            at = np.flatnonzero(offset >= m)
            # Extend the (m-1)-token context of position i - 1 by ids[i - 1],
            # keyed as in training.
            prefix = ctx[at - 1]
            pos, found = _find(self.ctx_keys, prefix * radix + ids[at - 1] + 1)
            ctx[at] = np.where((prefix >= 0) & found, pos, -1)  # -1: never seen
        seen = ctx >= 0
        totals = np.where(seen, self.ctx_totals[ctx], 0)
        pos, found = _find(self.pair_keys, ctx * radix + ids)
        counts = np.where(seen & found, self.pair_counts[pos], 0)
        return (counts + self.smoothing) / (totals + self.smoothing * self.n_events)

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


def train_kgram_scorer(reference: Corpus) -> KgramScorer:
    """Fit the k-gram teacher (``KGRAM_K``, ``KGRAM_SMOOTHING``,
    ``DEFAULT_CONTEXT_LEN``) on a reference corpus.

    Counts every k-gram (shorter contexts at document starts included), so
    the first tokens of a document are scored against truncated contexts.
    """
    k = KGRAM_K
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
    # Event space: vocabulary (``types``, its sorted ids) plus the unknown symbol.
    unk, unk_found = _find(types, encode([UNKNOWN_TOKEN]))
    lookup = np.full(types[-1] + 2, unk[0] if unk_found[0] else len(types), dtype=np.int64)
    lookup[types] = np.arange(len(types))
    return KgramScorer(k, KGRAM_SMOOTHING, DEFAULT_CONTEXT_LEN, lookup, radix,
                       np.concatenate(tables), np.bincount(ctx, minlength=size),
                       pair_keys, pair_counts)


def _window_sum(logprobs: Sequence[float], n_tokens: int, doc_id: str) -> float:
    """The sum of one window's log-probabilities, which must be ``n_tokens``
    numbers (not bools), each finite and <= 0, with a sum within the float
    range; otherwise a ``ScorerError`` naming the document."""
    try:
        n_values = len(logprobs)
    except TypeError:  # an iterator or None: not a sequence
        raise ScorerError(f"scorer returned {type(logprobs).__name__!r}, not a sequence, "
                          f"for document {doc_id!r}") from None
    if n_values != n_tokens:
        raise ScorerError(
            f"scorer returned {n_values} values for {n_tokens} tokens (document {doc_id!r})"
        )
    # In C first: a finite sum of values that are all below 0 means every
    # value is a finite number. A bool is never below 0.
    try:
        total = math.fsum(logprobs)
        if math.isfinite(total) and max(logprobs) < 0:
            return total
    except (TypeError, ValueError, OverflowError):  # a non-number, inf + -inf, or too large a sum
        total = math.nan
    # Otherwise check each value, to name the first bad one.
    for lp in logprobs:
        try:
            if isinstance(lp, (bool, np.bool_)):  # ordered like 0 and 1, but not a number
                raise TypeError
            if -math.inf < lp <= 0:  # false for NaN
                continue
        except TypeError:
            raise ScorerError(f"value that is not a number on document {doc_id!r}: {lp!r}") from None
        problem = "log-probability > 0" if lp > 0 else "non-finite log-probability"
        raise ScorerError(f"{problem} on document {doc_id!r}: {lp}")
    if math.isfinite(total):  # every value is valid, and the largest is 0
        return total
    raise ScorerError(f"log-probabilities on document {doc_id!r} sum beyond the float range")


def external_scorer_connect(command_or_endpoint: str, context_len: int = DEFAULT_CONTEXT_LEN,
                            timeout: float = 30.0) -> ExternalScorer:
    """Connect to an external scorer (``tcp://host:port`` or a command line).
    The client module is imported here, on the first connection."""
    from .external import ExternalScorer

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
    document. A ``ScorerError`` the scorer raises, such as a closed
    scorer's, passes through as raised; any other exception is wrapped in
    one that names the document.
    An average NLL above about 709 nats per token (ln of the largest
    float) has no finite perplexity and raises ``ScorerError``.
    """
    if len(corpus) == 0:
        raise ScorerError("cannot score an empty corpus")
    ctx = scorer.context_len
    if ctx < 1:
        raise ScorerError(f"context_len must be >= 1, got {_shown(ctx)}")
    sampled = sorted(sample_fraction(corpus, sample_frac, seed), key=lambda d: d.id)

    def spans():
        for doc in sampled:
            for start in range(0, doc.token_count, ctx):
                yield doc, start

    # Windows are sliced only as the scorer asks for them, so an external
    # scorer can keep several in flight without the corpus being copied.
    # Closing the generator tells the scorer when scoring ends, even early.
    results = scorer.score_windows(doc.ids[start : start + ctx] for doc, start in spans())
    window_sums = []
    m_tokens = 0
    with contextlib.closing(results):
        for doc, start in spans():
            try:
                logprobs = next(results)
            except ScorerError:
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
