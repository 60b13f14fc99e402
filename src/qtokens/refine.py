"""Non-transformative data refinement: coreset selection and dedup.

Selection hashes token n-grams into a fixed number of buckets, compares
the bucket distributions of the raw and target corpora, and scores each
document by how much more likely its n-grams are under the target
distribution than under the raw one. High-scoring documents are kept up
to a token budget.

Deduplication comes in two flavors: exact (first occurrence of each text
wins) and near (one-permutation MinHash signatures banded into an LSH
index; documents colliding in any band are clustered and one
representative per cluster survives).

Both hash a corpus one block of whole documents at a time, so their
temporaries stay bounded by the block, not the corpus: each distinct
token gets one keyed blake2b hash per corpus, and an n-gram's hash
combines its tokens' hashes with a 64-bit multiply-xor, so no n-gram is
hashed from Python.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterator, Sequence

import numpy as np

from .corpus import Corpus, decode
from .errors import RefineError, _check_seed, _shown

# Fixed, published hash seed: selections must be reproducible across machines.
FEATURE_HASH_SEED = 0x9E3779B1
# Selection features: uni- and bigram counts hashed into 65,536 buckets.
N_RANGE = (1, 2)
N_BUCKETS = 1 << 16
# Add-smoothing of both bucket distributions, relative to each one's total.
SMOOTHING = 1e-4
# select_by_weight's modes: rank by weight, or by weight plus Gumbel noise.
SELECT_MODES = ("topk", "gumbel-sample")

# Near dedup: 3-token shingles, 128 MinHash bins in 16 bands of 8 rows.
SHINGLE_N = 3
N_HASHES = 128
BANDS = 16

# Documents are hashed in blocks of whole documents of at most this many
# tokens in all (a longer document is a block alone).
BLOCK_TOKENS = 1 << 15

# Odd 64-bit multipliers of the n-gram hash combiner (splitmix64's).
_MIX_LEFT = np.uint64(0x9E3779B97F4A7C15)
_MIX_OUT = np.uint64(0xBF58476D1CE4E5B9)
# A MinHash bin no shingle fell in, before densification.
_EMPTY = np.uint64(np.iinfo(np.uint64).max)


def _blocks(corpus: Corpus, seed: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Keyed 64-bit hashes of the corpus's tokens, one block of whole documents at a time.

    Yields the index of the block's first document, the hash of each of
    the block's tokens (laid out document after document), and each
    token's int32 document index within the block. A block holds whole
    documents of at most ``BLOCK_TOKENS`` tokens in all, or one longer
    document alone. Each distinct token of the corpus is hashed once:
    8-byte blake2b of its UTF-8 bytes, keyed by ``seed``. Lookups go
    through the corpus's own types, so memory follows the corpus rather
    than the process vocabulary.
    """
    ids, lengths = corpus.token_ids()
    types = np.sort(ids)
    distinct = np.ones(len(types), dtype=bool)
    np.not_equal(types[1:], types[:-1], out=distinct[1:])
    types = types[distinct]
    key = seed.to_bytes(8, "big")
    type_hashes = np.fromiter(
        (
            int.from_bytes(hashlib.blake2b(t.encode("utf-8"), digest_size=8, key=key).digest(), "big")
            for t in decode(types)
        ),
        dtype=np.uint64,
        count=len(types),
    )
    if len(types) and types[-1] < len(ids) // 4:
        # A table spanning every id up to the corpus's largest costs under
        # 2 bytes per token here, and indexing it is about 20 times faster
        # than a binary search.
        table = np.zeros(int(types[-1]) + 1, dtype=np.uint64)
        table[types] = type_hashes
        lookup = table.__getitem__
    else:
        def lookup(block: np.ndarray) -> np.ndarray:
            return type_hashes[np.searchsorted(types, block)]
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    first = 0
    while first < len(lengths):
        stop = max(first + 1, int(np.searchsorted(offsets, offsets[first] + BLOCK_TOKENS, "right")) - 1)
        yield (
            first,
            lookup(ids[offsets[first] : offsets[stop]]),
            np.repeat(np.arange(stop - first, dtype=np.int32), lengths[first:stop]),
        )
        first = stop


def _combine(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Hash of each sequence (left, right) from the hashes of its two parts.

    Multiplying only the left hash makes the result depend on order; the
    xor-shift and multiply rounds after it carry every input bit into the
    low bits that pick a bucket. All arithmetic wraps modulo 2**64.
    """
    x = (left * _MIX_LEFT) ^ right
    x ^= x >> np.uint64(32)
    x *= _MIX_OUT
    x ^= x >> np.uint64(29)
    return x


def _ngram_hashes(
    hashes: np.ndarray, docs: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Hash and document index of every n-gram that lies inside one document.

    Unigrams are the inputs themselves, returned without a copy.
    """
    if n == 1:
        return hashes, docs
    m = max(len(hashes) - n + 1, 0)
    grams = hashes[:m]
    for k in range(1, n):
        grams = _combine(grams, hashes[k : k + m])
    inside = docs[:m] == docs[n - 1 : n - 1 + m]
    return grams[inside], docs[:m][inside]


def corpus_features(corpus: Corpus) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Bucket and document index of every uni- and bigram, one block of documents at a time.

    One ``(first document, buckets, document indices)`` triple per block
    of ``_blocks``: uint16 buckets and int32 indices counted from the
    block's first document, one entry per n-gram, so memory grows with
    the corpus's tokens, not with documents times ``N_BUCKETS``. A
    block's entries are its unigrams, then its bigrams. A bigram never
    spans two documents, so a document's entries are the ones it has
    alone. A unigram's bucket is its token hash mod ``N_BUCKETS``; a
    bigram's is the combined hash of its two tokens mod ``N_BUCKETS``.
    """
    lo, hi = N_RANGE
    blocks = []
    for first, hashes, docs in _blocks(corpus, FEATURE_HASH_SEED):
        grams = [_ngram_hashes(hashes, docs, n) for n in range(lo, hi + 1)]
        buckets = np.concatenate([(h % np.uint64(N_BUCKETS)).astype(np.uint16) for h, _ in grams])
        blocks.append((first, buckets, np.concatenate([d for _, d in grams])))
    return blocks


def _smoothed_log_probs(
    blocks: list[tuple[int, np.ndarray, np.ndarray]], name: str
) -> np.ndarray:
    if not blocks:  # a corpus with documents has at least one block
        raise RefineError(f"{name} corpus has no documents")
    counts = np.zeros(N_BUCKETS, dtype=np.int64)
    for _, buckets, _ in blocks:
        counts += np.bincount(buckets, minlength=N_BUCKETS)
    total = int(counts.sum())
    if total == 0:
        raise RefineError(f"{name} corpus has no n-grams")
    logp = counts.astype(np.float64)
    logp += SMOOTHING * total / N_BUCKETS
    logp /= total * (1 + SMOOTHING)
    return np.log(logp, out=logp)


def importance_weights(raw: Corpus, target: Corpus) -> list[float]:
    """Log-likelihood ratio of each raw document under target vs raw buckets.

    Each corpus's bucket distribution gets add-smoothing proportional to
    its own total (``count + SMOOTHING * total / N_BUCKETS`` per bucket),
    so every bucket has positive probability, weights stay finite, and
    scaling both totals by the same factor leaves the weights unchanged.
    Only the two corpus distributions are made dense; the target's
    features are dropped once counted, and each raw block's documents
    are summed on their own.
    """
    raw_blocks = corpus_features(raw)
    raw_logp = _smoothed_log_probs(raw_blocks, "raw")
    delta = _smoothed_log_probs(corpus_features(target), "target")
    delta -= raw_logp
    weights = np.zeros(len(raw))
    for first, buckets, docs in raw_blocks:
        block = np.bincount(docs, weights=delta[buckets])
        weights[first : first + len(block)] = block
    return weights.tolist()


def select_by_weight(
    corpus: Corpus,
    log_weights: Sequence[float],
    budget_tokens: int,
    mode: str = "topk",
    seed: int = 0,
) -> Corpus:
    """Keep the highest-ranked documents within a token budget.

    ``topk`` ranks by weight; ``gumbel-sample`` perturbs weights with
    seeded Gumbel noise before ranking. Ties break on document id.
    Accumulation stops at the first document that would exceed the
    budget, so the output token count never exceeds it. A NaN weight has
    no rank and is rejected. A budget below every document's token count
    selects nothing.
    """
    if budget_tokens < 1:
        raise RefineError(f"budget_tokens must be >= 1, got {_shown(budget_tokens)}")
    if len(log_weights) != len(corpus):
        raise RefineError(
            f"weights cover {len(log_weights)} documents, corpus has {len(corpus)}"
        )
    for w, doc in zip(log_weights, corpus.documents):
        if math.isnan(w):
            raise RefineError(f"document {doc.id!r} has a NaN weight")
    if mode not in SELECT_MODES:
        raise RefineError(f"unknown selection mode {mode!r}")
    _check_seed(seed, RefineError)
    keys = list(log_weights)
    if mode == "gumbel-sample":
        rng = np.random.default_rng(seed)
        noise = rng.gumbel(size=len(keys))
        keys = [w + g for w, g in zip(keys, noise)]
    ranked = sorted(
        zip(keys, corpus.documents), key=lambda pair: (-pair[0], pair[1].id)
    )
    selected = []
    used = 0
    for _, doc in ranked:
        if used + doc.token_count > budget_tokens:
            break
        selected.append(doc)
        used += doc.token_count
    return Corpus(selected)


def dedup_exact(corpus: Corpus) -> Corpus:
    """Keep the first occurrence of each exact text, in stable order."""
    seen: set[str] = set()
    kept = []
    for doc in corpus:
        if doc.text in seen:
            continue
        seen.add(doc.text)
        kept.append(doc)
    return Corpus(kept)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def minhash_signature(corpus: Corpus, seed: int) -> np.ndarray:
    """One-permutation MinHash signatures of every document's token shingles.

    Returns a ``(len(corpus), N_HASHES)`` uint64 matrix. Each shingle (a
    ``SHINGLE_N``-gram, 3 tokens, inside one document) gets one 64-bit
    hash, keyed by ``seed``, an integer in [0, 2**64). Its top 7 bits
    pick one of the ``N_HASHES`` (128) bins and each document keeps its
    smallest hash per bin (Li, Owen and Zhang, "One Permutation Hashing",
    2012). A bin none of the document's shingles fell in takes the value
    of the next filled bin to its right, circularly, plus a multiple of
    the distance to it (rotation densification, Shrivastava and Li, 2014).
    Two documents then agree on a row with probability close to their
    shingle Jaccard similarity. A document with fewer than ``SHINGLE_N``
    tokens has no shingles; every entry of its row is the largest uint64.
    """
    _check_seed(seed, RefineError)
    sig = np.full((len(corpus), N_HASHES), _EMPTY, dtype=np.uint64)
    for first, hashes, docs in _blocks(corpus, seed):
        shingles, owners = _ngram_hashes(hashes, docs, SHINGLE_N)
        bins = ((shingles >> np.uint64(32)) * np.uint64(N_HASHES)) >> np.uint64(32)
        np.minimum.at(sig[first:], (owners, bins.astype(np.intp)), shingles)
    # A row's densification reads only that row, so it runs in place on
    # chunks of rows, and its temporaries stay near a block's size.
    chunk = max(1, BLOCK_TOKENS // N_HASHES)
    for start in range(0, len(sig), chunk):
        rows = sig[start : start + chunk]
        # Column of the next filled bin at or after each bin, over two turns
        # of the circle; 2 * N_HASHES where a row has none.
        filled = np.tile(rows != _EMPTY, 2)
        turns = np.where(filled, np.arange(2 * N_HASHES), 2 * N_HASHES)
        nearest = np.minimum.accumulate(turns[:, ::-1], axis=1)[:, ::-1][:, :N_HASHES]
        distance = (nearest - np.arange(N_HASHES)).astype(np.uint64)
        # Offsets are distance times an odd constant, so a borrowed value
        # differs from the one it came from and from those at other distances.
        dense = np.take_along_axis(rows, nearest % N_HASHES, axis=1) + distance * _MIX_LEFT
        rows[...] = np.where(nearest < 2 * N_HASHES, dense, _EMPTY)
    return sig


def dedup_near(corpus: Corpus, seed: int = 0) -> Corpus:
    """Collapse near-duplicate documents found by MinHash-LSH banding.

    The ``N_HASHES`` (128) signature rows of ``minhash_signature`` form
    ``BANDS`` (16) bands of 8 rows. Documents whose signatures agree on
    all rows of at least one band are clustered together (transitively);
    the longest document in each cluster survives, the earliest on a tie.
    Documents too short to shingle are never clustered.
    """
    rows = N_HASHES // BANDS
    sig = minhash_signature(corpus, seed)
    shingled = np.flatnonzero([doc.token_count >= SHINGLE_N for doc in corpus])
    sig = sig[shingled]
    uf = _UnionFind(len(corpus))
    for band in range(BANDS):
        # Each document joins the first document whose band equals its own.
        _, first, inverse = np.unique(
            sig[:, band * rows : (band + 1) * rows],
            axis=0, return_index=True, return_inverse=True,
        )
        leaders = first[inverse.reshape(-1)]
        for i in np.flatnonzero(leaders != np.arange(len(shingled))):
            uf.union(int(shingled[leaders[i]]), int(shingled[i]))
    clusters: dict[int, list[int]] = {}
    for i in range(len(corpus)):
        clusters.setdefault(uf.find(i), []).append(i)
    survivors = {
        max(members, key=lambda i: (corpus.documents[i].token_count, -i))
        for members in clusters.values()
    }
    return Corpus([doc for i, doc in enumerate(corpus.documents) if i in survivors])
