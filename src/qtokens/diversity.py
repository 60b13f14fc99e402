"""Surface diversity metrics for corpora.

The headline score is the inverse compression ratio of the concatenated
corpus text: redundant text compresses well, so a high compression ratio
means low diversity. The report's other fields (type-token ratio, MATTR,
n-gram diversity, self-repetition) are the usual lexical baselines it is
compared against, each defined once, by ``_token_metrics``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .errors import DiversityError

# Dr is DEFLATE at zlib level 6 over the documents joined by newlines.
LEVEL = 6
SEPARATOR = b"\n"
# The report's MATTR window, n-gram orders and self-repetition order.
MATTR_WINDOW = 100
NGRAM_NS = (2, 3, 4)
SELF_REPETITION_N = 4


@dataclass
class DiversityReport:
    """Per-corpus diversity scores; ``dr`` is exactly ``1 / cr``. A ``cr``
    below 1 means the text is incompressible, which ``score`` warns of."""

    cr: float
    dr: float
    ttr: float
    mattr: float
    ngram_diversity: dict[int, float]
    self_repetition: float | None

    def to_flat_dict(self) -> dict:
        out = {"cr": self.cr, "dr": self.dr, "ttr": self.ttr, "mattr": self.mattr}
        for n in sorted(self.ngram_diversity):
            out[f"ngram_diversity_{n}"] = self.ngram_diversity[n]
        out["self_repetition"] = self.self_repetition
        return out


def compression_ratio(corpus: Corpus) -> float:
    """Original bytes over DEFLATE-compressed bytes of the joined corpus.

    Documents are joined with newlines and measured on UTF-8 bytes, and
    compressed at zlib level ``LEVEL`` (6). Compression is streamed
    document by document, so the concatenation is never materialized.
    """
    comp = zlib.compressobj(LEVEL)
    raw = 0
    compressed = 0
    for i, doc in enumerate(corpus):
        chunk = doc.text.encode("utf-8")
        if i > 0:
            raw += len(SEPARATOR)
            compressed += len(comp.compress(SEPARATOR))
        raw += len(chunk)
        compressed += len(comp.compress(chunk))
    compressed += len(comp.flush())
    if raw == 0:
        raise DiversityError("cannot compress empty corpus")
    return raw / compressed


def diversity_score(corpus: Corpus) -> float:
    """Inverse compression ratio; higher means more diverse."""
    return 1.0 / compression_ratio(corpus)


def _index_type(size: int) -> type:
    """The integer type of positions and ranks in a sequence of ``size`` tokens."""
    return np.int32 if size < 2**31 else np.int64


def _ngram_ranks(ids: np.ndarray, n_max: int) -> tuple[np.ndarray, list[int]]:
    """Rank the n_max-grams of ``ids``; also count the distinct n-grams for n = 1..n_max.

    Equal n-grams get equal ranks, numbered from 1 in the order of their keys
    (a unigram's rank is its id). An n-gram is keyed in int64 by its (n-1)-gram
    prefix rank and its last id, so keys stay below ``len(ids) * radix``
    whatever n and the ids' type are. Each level is one ``argsort`` of its
    keys: a neighbour mask over the sorted keys marks each new n-gram, and
    its running count, scattered back through the permutation, is the rank.
    Only one level is kept once the next exists. The chain stops at the
    longest n the sequence has, and that level's ranks are returned.
    """
    index = _index_type(len(ids))
    radix = np.int64(ids.max(initial=-1)) + 1
    rank, distinct = ids, [np.count_nonzero(np.bincount(ids))]
    for n in range(2, n_max + 1):
        m = len(ids) - n + 1
        if m < 1:
            break
        keys = np.multiply(rank[:m], radix, dtype=np.int64)
        keys += ids[n - 1 :]
        del rank
        order = np.argsort(keys).astype(index)
        keys = keys[order]
        new = np.empty(m, dtype=bool)
        new[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        del keys
        sorted_rank = np.cumsum(new, dtype=index)
        rank = np.empty(m, dtype=index)
        rank[order] = sorted_rank
        distinct.append(int(sorted_rank[-1]))
        del order, new, sorted_rank
    return rank, distinct


def _mattr(ids: np.ndarray, window: int) -> float:
    """MATTR of a sequence at least ``window`` long.

    A window's distinct count changes, as it slides one step, by -1 when the
    token leaving has no other occurrence before the new right edge and by
    +1 when the token entering has none after the old left edge; both follow
    from each position's previous and next occurrence. Positions and counts
    are in ``_index_type``, and each step's change in int8.
    """
    n = len(ids)
    index = _index_type(n)
    order = np.argsort(ids, kind="stable").astype(index)
    same = ids[order[1:]] == ids[order[:-1]]
    prev = np.full(n, -1, dtype=index)
    prev[order[1:][same]] = order[:-1][same]
    nxt = np.full(n, n, dtype=index)
    nxt[order[:-1][same]] = order[1:][same]
    del order, same
    starts = np.arange(n - window, dtype=index)
    delta = (prev[window:] <= starts).astype(np.int8)
    delta -= nxt[: n - window] >= starts + window
    counts = np.empty(n - window + 1, dtype=index)
    counts[0] = np.count_nonzero(prev[:window] < 0)
    del prev, nxt, starts
    np.cumsum(delta, dtype=index, out=counts[1:])
    counts[1:] += counts[0]
    ratios = counts / window
    # cumsum adds left to right, so the ratios are summed in window order.
    return float(np.cumsum(ratios, out=ratios)[-1]) / (n - window + 1)


def _self_repetition(rank: np.ndarray, lengths: np.ndarray, n: int) -> float:
    """Self-repetition of documents laid end to end, from their n-gram ranks.

    ``rank[i]`` names the n-gram at stream position i, as ``_ngram_ranks``
    gives it, and ``lengths`` holds each document's token count in stream
    order. N-grams that cross a document boundary are left out. The distinct
    (n-gram, document) pairs come from one sorted int64 key array and a
    neighbour mask.
    """
    eligible = lengths >= n
    if np.count_nonzero(eligible) < 2:
        raise DiversityError("self_repetition needs at least 2 documents with >= n tokens")
    n_docs = len(lengths)
    m = len(rank)
    doc = np.repeat(np.arange(n_docs, dtype=_index_type(n_docs)), lengths)
    # An n-gram lies inside one document when its first and last tokens do.
    inside = doc[:m] == doc[n - 1 :]
    gram, doc = rank[inside], doc[:m][inside]
    del inside
    pairs = gram.astype(np.int64)
    pairs *= n_docs
    pairs += doc
    pairs.sort()
    # An n-gram is in more than one document when its run of sorted pairs
    # holds a second distinct pair.
    second = pairs[1:] != pairs[:-1]
    pairs //= n_docs
    second &= pairs[1:] == pairs[:-1]
    shared = np.zeros(int(pairs[-1]) + 1, dtype=bool)
    shared[pairs[1:][second]] = True
    del pairs, second
    k = np.bincount(doc[shared[gram]], minlength=n_docs)[eligible]
    return float(np.cumsum(np.log1p(k))[-1] / len(k))


def score_corpus_diversity(corpus: Corpus) -> DiversityReport:
    """Compute the full diversity report for one corpus.

    TTR, MATTR (window ``MATTR_WINDOW``, 100 tokens) and n-gram diversity
    (n in ``NGRAM_NS``, 2 to 4) run on the concatenated stream of the
    documents' tokens, across document boundaries; self-repetition (n =
    ``SELF_REPETITION_N``, 4) counts within-document n-grams only. The
    compression metric reads the UTF-8 text instead. Metrics whose
    preconditions fail on this corpus (e.g. self-repetition with a single
    document) are reported as None. The compression ratio is computed
    first, so a failed compression is raised ahead of any token-metric error.
    """
    cr = compression_ratio(corpus)
    return DiversityReport(cr, 1.0 / cr, *_token_metrics(corpus))


def _token_metrics(corpus: Corpus) -> tuple[float, float, dict[int, float | None], float | None]:
    """TTR, MATTR, n-gram diversity and self-repetition: the report's
    fields after ``cr`` and ``dr``, in order."""
    ids, lengths = corpus.token_ids()
    total = len(ids)
    if total == 0:
        raise DiversityError("corpus has no tokens")
    # Self-repetition's order is the longest the report counts, so it reads the last level.
    rank, distinct = _ngram_ranks(ids, SELF_REPETITION_N)
    ngd = {n: distinct[n - 1] / (total - n + 1) if total >= n else None for n in NGRAM_NS}
    try:
        sr = _self_repetition(rank, lengths, SELF_REPETITION_N)
    except DiversityError:
        sr = None
    del rank
    ttr = distinct[0] / total
    return ttr, _mattr(ids, MATTR_WINDOW) if total >= MATTR_WINDOW else ttr, ngd, sr
