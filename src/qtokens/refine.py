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

Both hash a whole corpus at once: each distinct token gets one keyed
blake2b hash, and an n-gram's hash combines its tokens' hashes with a
64-bit multiply-xor, so no n-gram is hashed from Python.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .diversity import _encode
from .errors import RefineError

# Fixed, published hash seed: selections must be reproducible across machines.
FEATURE_HASH_SEED = 0x9E3779B1
# Selection features: uni- and bigram counts hashed into 65,536 buckets.
N_RANGE = (1, 2)
N_BUCKETS = 1 << 16

DEFAULT_SHINGLE_N = 3
DEFAULT_N_HASHES = 128
DEFAULT_BANDS = 16

# Odd 64-bit multipliers of the n-gram hash combiner (splitmix64's).
_MIX_LEFT = np.uint64(0x9E3779B97F4A7C15)
_MIX_OUT = np.uint64(0xBF58476D1CE4E5B9)
# A MinHash bin no shingle fell in, before densification.
_EMPTY = np.uint64(np.iinfo(np.uint64).max)


def _token_hashes(corpus: Corpus, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Keyed 64-bit hash of every token of the corpus, and its document index.

    Tokens are laid out document after document. Each distinct token is
    hashed once: 8-byte blake2b of its UTF-8 bytes, keyed by ``seed``.
    """
    lengths = [doc.token_count for doc in corpus]
    ids, types = _encode((tok for doc in corpus for tok in doc.tokens), sum(lengths))
    key = seed.to_bytes(8, "big")
    type_hashes = np.fromiter(
        (
            int.from_bytes(hashlib.blake2b(t.encode("utf-8"), digest_size=8, key=key).digest(), "big")
            for t in types
        ),
        dtype=np.uint64,
        count=len(types),
    )
    return type_hashes[ids], np.repeat(np.arange(len(lengths)), lengths)


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
    """Hash and document index of every n-gram that lies inside one document."""
    m = max(len(hashes) - n + 1, 0)
    grams = hashes[:m]
    for k in range(1, n):
        grams = _combine(grams, hashes[k : k + m])
    inside = docs[:m] == docs[n - 1 : n - 1 + m]
    return grams[inside], docs[:m][inside]


def corpus_features(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """Bucket and document index of every uni- and bigram of the corpus.

    Two flat int64 arrays with one entry per n-gram, so memory grows with
    the corpus's tokens, not with documents times ``N_BUCKETS``. A bigram
    never spans two documents, so a document's entries are the ones it
    has alone. A unigram's bucket is its token hash mod ``N_BUCKETS``; a
    bigram's is the combined hash of its two tokens mod ``N_BUCKETS``.
    """
    hashes, docs = _token_hashes(corpus, FEATURE_HASH_SEED)
    lo, hi = N_RANGE
    grams = [_ngram_hashes(hashes, docs, n) for n in range(lo, hi + 1)]
    buckets = np.concatenate([h for h, _ in grams])
    buckets %= np.uint64(N_BUCKETS)
    # Every bucket is below 2**16, so its bits read the same as an int64.
    return buckets.view(np.int64), np.concatenate([d for _, d in grams])


def _smoothed_log_probs(
    buckets: np.ndarray, n_docs: int, name: str, smoothing: float
) -> np.ndarray:
    if n_docs == 0:
        raise RefineError(f"{name} corpus has no documents")
    total = len(buckets)
    if total == 0:
        raise RefineError(f"{name} corpus has no n-grams")
    counts = np.bincount(buckets, minlength=N_BUCKETS)
    return np.log((counts + smoothing * total / N_BUCKETS) / (total * (1 + smoothing)))


def importance_weights(raw: Corpus, target: Corpus, smoothing: float = 1e-4) -> list[float]:
    """Log-likelihood ratio of each raw document under target vs raw buckets.

    Each corpus's bucket distribution gets add-smoothing proportional to
    its own total (``count + smoothing * total / N_BUCKETS`` per bucket),
    so every bucket has positive probability, weights stay finite, and
    scaling both totals by the same factor leaves the weights unchanged.
    Only the two corpus distributions are made dense.
    """
    if smoothing <= 0:
        raise RefineError(f"smoothing must be > 0, got {smoothing}")
    raw_buckets, raw_docs = corpus_features(raw)
    raw_logp = _smoothed_log_probs(raw_buckets, len(raw), "raw", smoothing)
    target_buckets, _ = corpus_features(target)
    target_logp = _smoothed_log_probs(target_buckets, len(target), "target", smoothing)
    delta = target_logp - raw_logp
    return np.bincount(raw_docs, weights=delta[raw_buckets], minlength=len(raw)).tolist()


def select_by_weight(
    corpus: Corpus,
    log_weights: Sequence[float],
    budget_tokens: int,
    mode: str = "topk",
    seed: int = 0,
) -> tuple[Corpus, list[str]]:
    """Keep the highest-ranked documents within a token budget.

    ``topk`` ranks by weight; ``gumbel-sample`` perturbs weights with
    seeded Gumbel noise before ranking. Ties break on document id.
    Accumulation stops at the first document that would exceed the
    budget, so the output token count never exceeds it.

    Returns the selected corpus and any warnings.
    """
    if budget_tokens < 1:
        raise RefineError(f"budget_tokens must be >= 1, got {budget_tokens}")
    if len(log_weights) != len(corpus):
        raise RefineError(
            f"weights cover {len(log_weights)} documents, corpus has {len(corpus)}"
        )
    if mode not in ("topk", "gumbel-sample"):
        raise RefineError(f"unknown selection mode {mode!r}")
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
    warnings = []
    if not selected:
        warnings.append("budget smaller than the smallest document; empty selection")
    return Corpus(selected), warnings


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


def minhash_signature(corpus: Corpus, shingle_n: int, n_hashes: int, seed: int) -> np.ndarray:
    """One-permutation MinHash signatures of every document's token shingles.

    Returns a ``(len(corpus), n_hashes)`` uint64 matrix. Each shingle (a
    ``shingle_n``-gram inside one document) gets one 64-bit hash, keyed by
    ``seed``. Its high bits pick one of ``n_hashes`` bins (the top 7 bits
    for 128) and each document keeps its smallest hash per bin (Li, Owen
    and Zhang, "One Permutation Hashing", 2012). A bin none of the
    document's shingles fell in takes the value of the next filled bin to
    its right, circularly, plus a multiple of the distance to it
    (rotation densification, Shrivastava and Li, 2014). Two documents then
    agree on a row with probability close to their shingle Jaccard
    similarity. A document with fewer than ``shingle_n`` tokens has no
    shingles; every entry of its row is the largest uint64.
    """
    hashes, docs = _token_hashes(corpus, seed)
    shingles, owners = _ngram_hashes(hashes, docs, shingle_n)
    bins = ((shingles >> np.uint64(32)) * np.uint64(n_hashes)) >> np.uint64(32)
    sig = np.full((len(corpus), n_hashes), _EMPTY, dtype=np.uint64)
    np.minimum.at(sig, (owners, bins.astype(np.intp)), shingles)
    # Column of the next filled bin at or after each bin, over two turns
    # of the circle; 2 * n_hashes where a row has none.
    filled = np.tile(sig != _EMPTY, 2)
    turns = np.where(filled, np.arange(2 * n_hashes), 2 * n_hashes)
    nearest = np.minimum.accumulate(turns[:, ::-1], axis=1)[:, ::-1][:, :n_hashes]
    distance = (nearest - np.arange(n_hashes)).astype(np.uint64)
    # Offsets are distance times an odd constant, so a borrowed value
    # differs from the one it came from and from those at other distances.
    dense = np.take_along_axis(sig, nearest % n_hashes, axis=1) + distance * _MIX_LEFT
    return np.where(nearest < 2 * n_hashes, dense, _EMPTY)


def dedup_near(
    corpus: Corpus,
    shingle_n: int = DEFAULT_SHINGLE_N,
    n_hashes: int = DEFAULT_N_HASHES,
    bands: int = DEFAULT_BANDS,
    seed: int = 0,
    keep: str = "longest",
) -> Corpus:
    """Collapse near-duplicate documents found by MinHash-LSH banding.

    Documents whose signatures agree on all rows of at least one band are
    clustered together (transitively); the longest document in each
    cluster survives (``keep="first"`` keeps the earliest instead).
    Documents too short to shingle are never clustered.
    """
    if shingle_n < 1:
        raise RefineError(f"shingle_n must be >= 1, got {shingle_n}")
    if n_hashes < 1:
        raise RefineError(f"n_hashes must be >= 1, got {n_hashes}")
    if bands < 1 or n_hashes % bands != 0:
        raise RefineError(
            f"n_hashes ({n_hashes}) must be divisible by bands ({bands})"
        )
    if keep not in ("longest", "first"):
        raise RefineError(f"unknown keep policy {keep!r}")
    rows = n_hashes // bands
    sig = minhash_signature(corpus, shingle_n, n_hashes, seed)
    shingled = np.flatnonzero([doc.token_count >= shingle_n for doc in corpus])
    sig = sig[shingled]
    uf = _UnionFind(len(corpus))
    for band in range(bands):
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
    survivors = set()
    for members in clusters.values():
        if keep == "longest":
            best = max(members, key=lambda i: (corpus.documents[i].token_count, -i))
        else:
            best = min(members)
        survivors.add(best)
    return Corpus([doc for i, doc in enumerate(corpus.documents) if i in survivors])
