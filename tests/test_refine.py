import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from qtokens import refine
from qtokens.corpus import Corpus, Document, Tokenizer, decode
from qtokens.diversity import diversity_score
from qtokens.errors import RefineError
from qtokens.refine import (
    FEATURE_HASH_SEED,
    N_BUCKETS,
    corpus_features,
    dedup_exact,
    dedup_near,
    importance_weights,
    minhash_signature,
    select_by_weight,
)

from conftest import make_corpus

MASK64 = (1 << 64) - 1


def oracle_token_hash(token: str, seed: int = FEATURE_HASH_SEED) -> int:
    """The published token hash: 8-byte blake2b keyed by the seed."""
    digest = hashlib.blake2b(token.encode(), digest_size=8, key=seed.to_bytes(8, "big")).digest()
    return int.from_bytes(digest, "big")


def oracle_combine(left: int, right: int) -> int:
    """The published n-gram hash step, in Python integers."""
    x = ((left * 0x9E3779B97F4A7C15) & MASK64) ^ right
    x ^= x >> 32
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    return x ^ (x >> 29)


def oracle_gram_hash(gram, seed: int = FEATURE_HASH_SEED) -> int:
    return functools.reduce(oracle_combine, [oracle_token_hash(t, seed) for t in gram])


def oracle_bucket(gram: tuple[str, ...]) -> int:
    """The published bucket convention, computed independently."""
    return oracle_gram_hash(gram) % N_BUCKETS


def oracle_counts(tokens: list[str]) -> dict[int, int]:
    """Bucket counts of a token list's uni- and bigrams."""
    counts: dict[int, int] = {}
    for n in (1, 2):
        for i in range(len(tokens) - n + 1):
            bucket = oracle_bucket(tuple(tokens[i : i + n]))
            counts[bucket] = counts.get(bucket, 0) + 1
    return counts


def oracle_signature(tokens, seed: int) -> list[int]:
    """One-permutation MinHash with rotation densification over 3-token
    shingles and 128 bins, one shingle at a time."""
    shingle_n, n_hashes = 3, 128
    if len(tokens) < shingle_n:
        return [MASK64] * n_hashes
    bins: list[int | None] = [None] * n_hashes
    for i in range(len(tokens) - shingle_n + 1):
        h = oracle_gram_hash(tokens[i : i + shingle_n], seed)
        j = ((h >> 32) * n_hashes) >> 32
        bins[j] = h if bins[j] is None else min(bins[j], h)
    signature = []
    for j in range(n_hashes):
        t = next(t for t in range(n_hashes) if bins[(j + t) % n_hashes] is not None)
        signature.append((bins[(j + t) % n_hashes] + t * 0x9E3779B97F4A7C15) & MASK64)
    return signature


def jaccard(tokens_a, tokens_b, shingle_n: int) -> float:
    """Exact shingle-set Jaccard similarity."""
    sa = {tuple(tokens_a[i : i + shingle_n]) for i in range(len(tokens_a) - shingle_n + 1)}
    sb = {tuple(tokens_b[i : i + shingle_n]) for i in range(len(tokens_b) - shingle_n + 1)}
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def lsh_collision_probability(jaccard_sim: float, n_hashes: int, bands: int) -> float:
    """Probability that two documents share a band if every row agrees
    independently with probability ``jaccard_sim``; only approximate for
    densified one-permutation rows."""
    rows = n_hashes // bands
    return 1.0 - (1.0 - jaccard_sim**rows) ** bands


def flat_features(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """corpus_features' blocks laid end to end: every n-gram's bucket and
    its document index in the corpus."""
    blocks = corpus_features(corpus)
    return (np.concatenate([np.zeros(0, np.uint16)] + [b for _, b, _ in blocks]),
            np.concatenate([np.zeros(0, np.int32)] + [first + d for first, _, d in blocks]))


def test_features_empty_document():
    buckets, docs = flat_features(Corpus([Document.create("e", "")]))
    assert len(buckets) == len(docs) == 0


def test_features_single_repeated_token():
    # "a" three times and ("a", "a") twice, in two distinct buckets
    buckets, docs = flat_features(Corpus([Document.create("a", "a a a")]))
    assert list(buckets) == [oracle_bucket(("a",))] * 3 + [oracle_bucket(("a", "a"))] * 2
    assert list(docs) == [0] * 5


def test_features_match_brute_force_enumeration():
    rng = np.random.default_rng(14)
    text = " ".join(f"w{v}" for v in rng.integers(0, 9, size=20))
    buckets, _ = flat_features(Corpus([Document.create("d", text)]))
    ids, counts = np.unique(buckets, return_counts=True)
    expected = oracle_counts(text.split())
    assert list(ids) == sorted(expected)
    assert list(counts) == [expected[b] for b in sorted(expected)]
    assert counts.sum() == 20 + 19


def test_combined_hash_has_no_collisions():
    tokens = [f"t{i}" for i in range(400)]
    h = np.array([oracle_token_hash(t) for t in tokens], dtype=np.uint64)
    left, right = (a.ravel() for a in np.meshgrid(h, h, indexing="ij"))
    pairs = refine._combine(left, right)
    assert len(np.unique(pairs)) == len(h) ** 2
    # the pair (a, b) never hashes like (b, a), nor like a unigram
    assert not (pairs == refine._combine(right, left))[left != right].any()
    assert not np.isin(pairs, h).any()
    assert [int(x) for x in pairs[:3]] == [
        oracle_combine(oracle_token_hash(tokens[0]), oracle_token_hash(t)) for t in tokens[:3]
    ]
    small = h[:120]
    left, mid, right = (a.ravel() for a in np.meshgrid(small, small, small, indexing="ij"))
    assert len(np.unique(refine._combine(refine._combine(left, mid), right))) == len(small) ** 3


def test_each_distinct_token_hashed_once_per_corpus(monkeypatch):
    corpus = make_corpus(["a b a b a b", "b a b a c", "a b c a b c d"])
    calls = []
    real = hashlib.blake2b

    def counting(data, **kwargs):
        calls.append(data)
        return real(data, **kwargs)

    monkeypatch.setattr(refine.hashlib, "blake2b", counting)
    corpus_features(corpus)
    assert sorted(calls) == [b"a", b"b", b"c", b"d"]
    calls.clear()
    minhash_signature(corpus, seed=5)
    assert sorted(calls) == [b"a", b"b", b"c", b"d"]


def test_whole_corpus_equals_each_document_alone():
    # n-grams and shingles never cross a document boundary, so sharing one
    # pass over the corpus changes no document's features or signature
    rng = np.random.default_rng(23)
    texts = [" ".join(f"w{v}" for v in rng.integers(0, 12, size=n)) for n in (9, 0, 1, 2, 3, 40)]
    corpus = make_corpus(texts)
    buckets, docs = flat_features(corpus)
    signatures = minhash_signature(corpus, seed=7)
    for i, doc in enumerate(corpus):
        alone_buckets, alone_docs = flat_features(Corpus([doc]))
        assert (buckets[docs == i] == alone_buckets).all() and (alone_docs == 0).all()
        assert (signatures[i] == minhash_signature(Corpus([doc]), seed=7)[0]).all()
        assert signatures[i].tolist() == oracle_signature(Tokenizer().tokenize(doc.text), seed=7)
    assert len(buckets) == sum(2 * len(t.split()) - 1 for t in texts if t)


def test_id_table_and_binary_search_both_match_the_oracles():
    # A corpus whose largest token id is under a quarter of its tokens looks
    # its token hashes up in a table indexed by id; any other searches its
    # sorted types. The 300 padding tokens give every later token an id
    # above a quarter of a 54-token corpus; the other corpus repeats ids
    # 0 to 19, whichever tokens they are.
    make_corpus([" ".join(f"lookup-pad{i}" for i in range(300))])
    rng = np.random.default_rng(37)
    searched = make_corpus(
        [" ".join(f"lookup{v}" for v in rng.integers(0, 20, size=n)) for n in (9, 2, 3, 40)])
    ids = rng.integers(0, 20, size=200).astype(np.int32)
    indexed = Corpus([Document("low-ids", "", ids)])
    assert searched.token_ids()[0].max() >= searched.total_tokens // 4
    assert indexed.token_ids()[0].max() < indexed.total_tokens // 4
    for corpus in (searched, indexed):
        signatures = minhash_signature(corpus, 3)
        buckets, docs = flat_features(corpus)
        for i, doc in enumerate(corpus):
            tokens = decode(doc.ids)
            assert signatures[i].tolist() == oracle_signature(tokens, 3)
            counts = dict(zip(*np.unique(buckets[docs == i], return_counts=True)))
            assert counts == oracle_counts(tokens)


@pytest.mark.parametrize("length", [3, 12, 300], ids=lambda length: f"{length}-128")
def test_minhash_signature_matches_pure_python_oracle(length):
    # short documents leave most of the 128 bins empty, so densification does the work
    rng = np.random.default_rng(length)
    tokens = [f"w{v}" for v in rng.integers(0, 40, size=length)]
    [signature] = minhash_signature(Corpus([Document.create("d", " ".join(tokens))]), 11)
    assert signature.tolist() == oracle_signature(tokens, 11)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_minhash_signature_rejects_seed_out_of_range(seed):
    corpus = make_corpus(["a b c d e", "a b c d f"])
    with pytest.raises(RefineError, match=r"seed must be in \[0, 2\*\*64\)"):
        minhash_signature(corpus, seed)
    with pytest.raises(RefineError, match="seed must be in"):
        dedup_near(corpus, seed=seed)


def test_weights_zero_when_distributions_match():
    corpus = make_corpus(["a b c", "d e f", "a b c"])
    weights = importance_weights(corpus, corpus)
    assert weights == [0.0, 0.0, 0.0]


def test_weights_scale_invariant():
    raw_texts = ["a b c d", "e f g h"]
    target_texts = ["a b a b", "c d c d"]
    w1 = importance_weights(make_corpus(raw_texts), make_corpus(target_texts))
    # Each corpus three times over, under fresh ids, triples every count
    # and leaves every document's weight as it was.
    w3 = importance_weights(
        make_corpus(raw_texts * 3, id_prefix="raw3"),
        make_corpus(target_texts * 3, id_prefix="target3"),
    )
    assert w3 == pytest.approx(w1 * 3, rel=1e-12)


def test_weights_positive_when_target_dominates():
    # target has much more of the probe's vocabulary than raw does
    raw = make_corpus(["x y z w q r s t u v", "a b a b"])
    target = make_corpus(["a b a b a b", "a b x y"])
    weights = importance_weights(raw, target)
    assert weights[1] > 0
    assert weights[0] < 0


def test_weights_hand_computed_small_fixture():
    # sum_b count_doc[b] * (log p_target[b] - log p_raw[b]) with the
    # relative add-smoothing p[b] = (c[b] + g*T/B) / (T*(1+g)), from a
    # pure-Python enumeration of every document's uni- and bigrams.
    rng = np.random.default_rng(21)
    raw_texts = [" ".join(f"w{v}" for v in rng.integers(0, 30, size=25)) for _ in range(6)]
    target_texts = [" ".join(f"w{v}" for v in rng.integers(0, 12, size=25)) for _ in range(4)]
    g = 1e-4

    def distribution(texts):
        counts: dict[int, int] = {}
        for text in texts:
            for bucket, count in oracle_counts(text.split()).items():
                counts[bucket] = counts.get(bucket, 0) + count
        total = sum(counts.values())
        return lambda b: (counts.get(b, 0) + g * total / N_BUCKETS) / (total * (1 + g))

    p_raw, p_tgt = distribution(raw_texts), distribution(target_texts)
    expected = [
        sum(
            count * (math.log(p_tgt(b)) - math.log(p_raw(b)))
            for b, count in oracle_counts(text.split()).items()
        )
        for text in raw_texts
    ]
    weights = importance_weights(make_corpus(raw_texts), make_corpus(target_texts))
    # every weight is far from 0, so rel=1e-12 is a real bound
    assert min(abs(w) for w in expected) > 1.0
    assert weights == pytest.approx(expected, rel=1e-12)


def test_weights_read_features_through_corpus_features(monkeypatch):
    # Callers that wrap refine.corpus_features (the benchmark's tracer)
    # see both corpora go through it.
    seen = []
    real = refine.corpus_features

    def recording(corpus):
        seen.append([doc.id for doc in corpus])
        return real(corpus)

    monkeypatch.setattr(refine, "corpus_features", recording)
    raw = make_corpus(["a b c", "c d e"], id_prefix="raw")
    target = make_corpus(["a b"], id_prefix="target")
    importance_weights(raw, target)
    assert seen == [["raw:0", "raw:1"], ["target:0"]]


def test_dedup_near_reads_signatures_through_minhash_signature(monkeypatch):
    # The same holds for dedup_near and refine.minhash_signature.
    seen = []
    real = refine.minhash_signature

    def recording(corpus, *args):
        seen.append([doc.id for doc in corpus])
        return real(corpus, *args)

    monkeypatch.setattr(refine, "minhash_signature", recording)
    dedup_near(make_corpus(["a b c d", "a b c d", "e f"]))
    assert seen == [["doc:0", "doc:1", "doc:2"]]


def _features_memory(vocabulary: int) -> tuple[int, int]:
    """Bytes held after, and peak bytes during, corpus_features on 200 x 300 tokens."""
    rng = np.random.default_rng(19)
    corpus = make_corpus(
        [" ".join(f"w{v}" for v in rng.integers(0, vocabulary, size=300)) for _ in range(200)]
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        blocks = corpus_features(corpus)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # 60,000 tokens span two blocks; each block's arrays are its own
    assert len(blocks) == 2
    assert sum(len(b) for _, b, _ in blocks) == sum(len(d) for _, _, d in blocks) == 200 * (2 * 300 - 1)
    assert all(b.dtype == np.uint16 and int(b.max()) < N_BUCKETS for _, b, _ in blocks)
    assert set(np.concatenate([first + d for first, _, d in blocks]).tolist()) == set(range(200))
    return held, peak


def test_corpus_features_memory_is_sparse():
    held, peak = _features_memory(5000)
    # dense storage would hold 200 x 65,536 int64 counts (100 MB)
    assert held < 8 * 2**20
    # About 59k distinct n-grams here against 2.5k with 50 words: the peak
    # must not grow with them (an n-gram -> bucket memo took it from 1.3 MB
    # to 9.8 MB).
    _, few_ngrams_peak = _features_memory(50)
    assert peak < 1.2 * few_ngrams_peak


def peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def zipf_corpora() -> tuple[Corpus, Corpus]:
    """200,000 raw tokens, 400 per document, drawn Zipf(1.1) from 20,000
    words, and a 40,000-token target drawn the same way."""
    rng = np.random.default_rng(3)
    weights = 1.0 / np.arange(1, 20_001) ** 1.1
    words = np.array([f"z{i}" for i in range(20_000)])

    def corpus(n_docs, prefix):
        draws = rng.choice(20_000, size=(n_docs, 400), p=weights / weights.sum())
        return make_corpus([" ".join(words[row]) for row in draws], id_prefix=prefix)

    return corpus(500, "raw"), corpus(100, "target")


def test_memory_per_token():
    # Whole-corpus hashes, n-gram hashes, int64 buckets and an int64 copy
    # of the document indices once took importance_weights to 57 B and
    # minhash_signature to 53 B per token. In blocks they peak at about
    # 21 B and 18 B: the first holds 12 B per raw token of features, and
    # the second densifies 256 signature rows at a time (22 B when it
    # densified all at once).
    raw, target = zipf_corpora()
    tokens = raw.total_tokens + target.total_tokens
    assert peak_bytes(importance_weights, raw, target) / tokens <= 26
    assert peak_bytes(minhash_signature, raw, 0) / raw.total_tokens <= 28


def test_signature_memory_per_document():
    # 5,000 documents of 4 tokens: the 1 KB signature row is nearly all a
    # document holds. Densifying every row at once peaked at about 8.7 KB
    # per document; in chunks of rows it stays near 1.5 KB.
    rng = np.random.default_rng(31)
    corpus = make_corpus(
        [" ".join(f"w{v}" for v in row) for row in rng.integers(0, 3000, size=(5000, 4))]
    )
    assert peak_bytes(minhash_signature, corpus, 0) / len(corpus) <= 2500


def test_memory_does_not_follow_the_process_vocabulary():
    # Every corpus grows one process-wide vocabulary. A 12-token corpus
    # after 500k new tokens must peak as it does after 50k: a hash table
    # or a count indexed by token id would grow 10-fold.
    def small_corpus_peaks(vocabulary):
        make_corpus([" ".join(f"v{vocabulary}-{i}" for i in range(vocabulary))])
        small = make_corpus([" ".join(f"s{vocabulary}-{i}" for i in range(j, j + 6))
                                   for j in (0, 3)])
        return peak_bytes(importance_weights, small, small), peak_bytes(minhash_signature, small, 0)

    few = small_corpus_peaks(50_000)
    many = small_corpus_peaks(500_000)
    assert many[0] < 1.2 * few[0] and many[1] < 1.2 * few[1]


@pytest.mark.parametrize("block_tokens", [1, 7, 1_000_000])
def test_blocks_do_not_change_results(monkeypatch, block_tokens):
    # Empty documents, documents shorter than a shingle or a bigram, and
    # one document longer than the default block, against a block of one
    # token (every document alone), a few documents, and the whole corpus.
    rng = np.random.default_rng(29)

    def text(n):
        return " ".join(f"w{v}" for v in rng.integers(0, 60, size=n))

    lengths = [0, 1, 2, 0, 3, 40, refine.BLOCK_TOKENS + 500, 5, 0, 12, 2, 300, 0]
    raw = make_corpus([text(n) for n in lengths], id_prefix="raw")
    target = make_corpus([text(n) for n in (0, 30, 2, 80)], id_prefix="target")
    dups = make_corpus([raw.documents[i].text for i in (5, 11, 9, 5, 1, 11, 0)]
                             + [raw.documents[11].text + " extra"], id_prefix="dups")

    def results():
        weights = importance_weights(raw, target)
        selected = select_by_weight(raw, weights, 400)
        return (weights, minhash_signature(raw, 7), minhash_signature(dups, 7),
                [d.id for d in selected], [d.id for d in dedup_near(dups, 7)])

    default = results()
    monkeypatch.setattr(refine, "BLOCK_TOKENS", block_tokens)
    blocked = results()
    assert blocked[0] == default[0]
    assert (blocked[1] == default[1]).all() and (blocked[2] == default[2]).all()
    assert blocked[3:] == default[3:]
    assert len(default[4]) < len(dups)


@pytest.mark.parametrize(
    "raw_texts, target_texts, message",
    [
        ([], ["a b"], "raw corpus has no documents"),
        (["a b"], [], "target corpus has no documents"),
        (["", ""], ["a b"], "raw corpus has no n-grams"),
        (["a b"], ["", ""], "target corpus has no n-grams"),
    ],
)
def test_weights_name_the_corpus_without_ngrams(raw_texts, target_texts, message):
    with pytest.raises(RefineError, match=message):
        importance_weights(make_corpus(raw_texts), make_corpus(target_texts))


def weighted_corpus():
    texts = {
        "doc:0": "a a a a",          # 4 tokens
        "doc:1": "b b b",            # 3 tokens
        "doc:2": "c c",              # 2 tokens
        "doc:3": "d d d d d",        # 5 tokens
    }
    return Corpus([Document.create(k, v) for k, v in texts.items()])


def test_select_full_budget_returns_everything():
    corpus = weighted_corpus()
    weights = [0.5, 1.0, -0.5, 0.0]
    selected = select_by_weight(corpus, weights, budget_tokens=10**9)
    assert {d.id for d in selected} == {d.id for d in corpus}


def test_select_uniform_weights_tie_break_by_id():
    corpus = weighted_corpus()
    weights = [0.0, 0.0, 0.0, 0.0]
    selected = select_by_weight(corpus, weights, budget_tokens=9)
    assert [d.id for d in selected] == ["doc:0", "doc:1", "doc:2"]


def test_select_topk_highest_weights():
    corpus = weighted_corpus()
    weights = [2.0, 3.0, 1.0, 4.0]
    selected = select_by_weight(corpus, weights, budget_tokens=12)
    assert [d.id for d in selected] == ["doc:3", "doc:1", "doc:0"]


def test_select_budget_respected_exactly():
    rng = np.random.default_rng(6)
    corpus = make_corpus(
        [" ".join(["w"] * int(rng.integers(1, 30))) for _ in range(50)]
    )
    weights = list(rng.normal(size=50))
    for budget in (10, 57, 200):
        selected = select_by_weight(corpus, weights, budget)
        assert selected.total_tokens <= budget


@pytest.mark.parametrize(
    "weights, budget, mode, message",
    [([0.0] * 4, 0, "topk", "^budget_tokens must be >= 1, got 0$"),
     ([0.0] * 3, 9, "topk", "^weights cover 3 documents, corpus has 4$"),
     ([0.0] * 4, 9, "bottomk", "^unknown selection mode 'bottomk'$")],
    ids=["budget", "weights", "mode"],
)
def test_select_rejects_bad_arguments(weights, budget, mode, message):
    with pytest.raises(RefineError, match=message):
        select_by_weight(weighted_corpus(), weights, budget, mode=mode)


@pytest.mark.parametrize("mode", ["topk", "gumbel-sample"])
@pytest.mark.parametrize("weights, doc_id", [([math.nan, 1.0, 2.0, 3.0], "doc:0"),
                                             ([1.0, 2.0, math.nan, 3.0], "doc:2")],
                         ids=["first", "inside"])
def test_select_rejects_nan_weight(weights, doc_id, mode):
    # A NaN compares false both ways, so where it sits in the list, not
    # its value, would decide whether its document is kept.
    with pytest.raises(RefineError, match=f"^document '{doc_id}' has a NaN weight$"):
        select_by_weight(weighted_corpus(), weights, 9, mode=mode)


def test_select_budget_smaller_than_smallest_doc():
    corpus = weighted_corpus()
    weights = [0.0, 0.0, 0.0, 0.0]
    selected = select_by_weight(corpus, weights, budget_tokens=1)
    assert len(selected) == 0


def test_select_gumbel_deterministic_per_seed():
    corpus = weighted_corpus()
    weights = [0.1, 0.2, 0.3, 0.4]
    a = select_by_weight(corpus, weights, 9, mode="gumbel-sample", seed=3)
    b = select_by_weight(corpus, weights, 9, mode="gumbel-sample", seed=3)
    assert [d.id for d in a] == [d.id for d in b]
    # Two seeds may coincide, but ten seeds all giving one selection would
    # mean the seed is ignored.
    selections = {
        tuple(d.id for d in select_by_weight(corpus, weights, 9, mode="gumbel-sample", seed=s))
        for s in range(10)
    }
    assert len(selections) > 1


def test_dedup_exact_no_duplicates_identity():
    corpus = make_corpus(["a", "b", "c"])
    assert [d.id for d in dedup_exact(corpus)] == [d.id for d in corpus]


def test_dedup_exact_three_copies():
    corpus = Corpus(
        [Document.create(f"d{i}", "same text here") for i in range(3)]
        + [Document.create("u", "unique")]
    )
    survivors = dedup_exact(corpus)
    assert [d.id for d in survivors] == ["d0", "u"]


def test_dedup_exact_matches_hash_set_oracle():
    rng = np.random.default_rng(10)
    base = [" ".join(f"w{v}" for v in rng.integers(0, 100, size=12)) for _ in range(900)]
    dup_idx = rng.integers(0, 900, size=100)
    texts = base + [base[i] for i in dup_idx]
    corpus = make_corpus(texts)
    survivors = dedup_exact(corpus)
    assert len(survivors) == len(set(texts))


def test_dedup_near_disjoint_vocab_identity():
    corpus = make_corpus(
        [" ".join(f"a{i}_{j}" for j in range(30)) for i in range(5)]
    )
    assert len(dedup_near(corpus)) == 5


def test_dedup_near_collapses_near_duplicate_pair():
    rng = np.random.default_rng(8)
    words = [f"w{v}" for v in rng.integers(0, 5000, size=500)]
    original = " ".join(words)
    changed = list(words)
    changed[250] = "REPLACED"
    near = " ".join(changed)
    sim = jaccard(words, changed, 3)
    assert sim == pytest.approx(0.99, abs=0.005)
    corpus = Corpus([Document.create("a", original), Document.create("b", near)])
    # The margin, measured: one agreeing band of 8 rows is enough, and at
    # every seed most of the 16 bands agree.
    agreeing_bands = []
    for seed in range(100):
        signatures = minhash_signature(corpus, seed)
        agreeing_bands.append((signatures[0] == signatures[1]).reshape(16, 8).all(axis=1).sum())
    assert min(agreeing_bands) >= 8
    survivors = dedup_near(corpus)
    assert len(survivors) == 1


@pytest.mark.parametrize("n_edits", [15, 30, 60])
def test_minhash_rows_agree_at_the_jaccard_rate(n_edits):
    # Densified one-permutation rows are not independent, so the banding
    # formula is only a guide for the band rate; each row's agreement rate
    # is the shingle Jaccard similarity.
    rng = np.random.default_rng(n_edits)
    words = [f"w{v}" for v in rng.integers(0, 5000, size=500)]
    changed = list(words)
    for pos in rng.choice(500, size=n_edits, replace=False):
        changed[pos] = f"R{pos}"
    sim = jaccard(words, changed, 3)
    corpus = Corpus([Document.create("a", " ".join(words)), Document.create("b", " ".join(changed))])
    rows, bands = [], []
    for seed in range(200):
        signatures = minhash_signature(corpus, seed)
        agree = signatures[0] == signatures[1]
        rows.append(agree.mean())
        bands.append(agree.reshape(16, 8).all(axis=1).any())
    assert np.mean(rows) == pytest.approx(sim, abs=0.02)
    assert np.mean(bands) == pytest.approx(lsh_collision_probability(sim, 128, 16), abs=0.1)


ZIPF_WORDS = [f"w{i}" for i in range(5000)]
ZIPF_PROBS = 1.0 / np.arange(1, 5001) ** 1.1
ZIPF_PROBS /= ZIPF_PROBS.sum()


def planted_near_duplicates(seed: int, n_unique=100, n_pairs=40, length=300, edit_share=0.03):
    """Zipf documents, ``n_pairs`` of them copied with ``edit_share`` of
    their tokens replaced at random; returns the corpus and the pairs."""
    rng = np.random.default_rng(seed)
    docs = {
        f"u{i}": [ZIPF_WORDS[v] for v in rng.choice(5000, size=length, p=ZIPF_PROBS)]
        for i in range(n_unique)
    }
    pairs = []
    for k, original in enumerate(rng.choice(n_unique, size=n_pairs, replace=False)):
        copy = list(docs[f"u{original}"])
        for pos in rng.choice(length, size=round(edit_share * length), replace=False):
            copy[pos] = ZIPF_WORDS[rng.integers(5000)]
        docs[f"n{k}"] = copy
        pairs.append({f"u{original}", f"n{k}"})
    return Corpus([Document.create(i, " ".join(t)) for i, t in docs.items()]), pairs


@pytest.mark.parametrize("seed", range(5))
def test_dedup_near_recall_on_planted_near_duplicates(seed):
    # 9 of 300 tokens edited puts each pair near Jaccard 0.83. Over seeds
    # 0-99 of this generator the mean recall is 0.996 and the lowest 0.975.
    corpus, pairs = planted_near_duplicates(seed)
    kept = {d.id for d in dedup_near(corpus, seed=seed)}
    removed = {d.id for d in corpus} - kept
    assert removed <= set().union(*pairs)
    assert sum(not pair <= kept for pair in pairs) / len(pairs) >= 0.95


def test_dedup_near_idempotent():
    rng = np.random.default_rng(30)
    texts = []
    for i in range(60):
        words = [f"w{v}" for v in rng.integers(0, 200, size=80)]
        texts.append(" ".join(words))
        if i % 3 == 0:
            mutated = list(words)
            mutated[10] = "CHANGED"
            texts.append(" ".join(mutated))
    corpus = make_corpus(texts)
    once = dedup_near(corpus)
    twice = dedup_near(once)
    assert [d.id for d in twice] == [d.id for d in once]
    assert once.total_tokens <= corpus.total_tokens


def test_dedup_near_keeps_longest():
    rng = np.random.default_rng(9)
    words = [f"w{v}" for v in rng.integers(0, 1000, size=400)]
    longer = " ".join(words + ["tail", "tokens", "extra"])
    shorter = " ".join(words)
    corpus = Corpus([Document.create("short", shorter), Document.create("long", longer)])
    survivors = dedup_near(corpus)
    assert [d.id for d in survivors] == ["long"]


def test_dedup_increases_diversity_score():
    rng = np.random.default_rng(12)
    base = [" ".join(f"w{v}" for v in rng.integers(0, 3000, size=60)) for _ in range(200)]
    dup_idx = rng.integers(0, 200, size=60)  # 30% duplicates injected
    corpus = make_corpus(base + [base[i] for i in dup_idx])
    deduped = dedup_exact(corpus)
    assert len(deduped) == 200
    assert diversity_score(deduped) > diversity_score(corpus)
