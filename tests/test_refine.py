import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from qtokens import refine
from qtokens.corpus import Corpus, Document
from qtokens.diversity import diversity_score
from qtokens.errors import RefineError
from qtokens.refine import (
    FEATURE_HASH_SEED,
    aggregate_features,
    corpus_features,
    dedup_exact,
    dedup_near,
    hashed_ngram_features,
    importance_weights,
    jaccard,
    lsh_collision_probability,
    select_by_weight,
)


def test_features_empty_document():
    fv = hashed_ngram_features(Document.create("e", ""), (1, 2), 64)
    assert fv.total == 0
    assert not fv.buckets.any()


def test_features_single_repeated_token():
    fv = hashed_ngram_features(Document.create("a", "a a a"), (1, 1), 1 << 20)
    nonzero = fv.buckets[fv.buckets > 0]
    assert list(nonzero) == [3]
    assert fv.total == 3


def test_features_match_brute_force_enumeration():
    rng = np.random.default_rng(14)
    text = " ".join(f"w{v}" for v in rng.integers(0, 9, size=20))
    fv = hashed_ngram_features(Document.create("d", text), (1, 2), 64)

    # independent enumeration with the published bucket convention
    def bucket(ngram):
        digest = hashlib.blake2b(
            "\x1f".join(ngram).encode(), digest_size=8,
            key=FEATURE_HASH_SEED.to_bytes(8, "big"),
        ).digest()
        return int.from_bytes(digest, "big") % 64

    expected = np.zeros(64, dtype=np.int64)
    tokens = text.split()
    for n in (1, 2):
        for i in range(len(tokens) - n + 1):
            expected[bucket(tuple(tokens[i : i + n]))] += 1
    assert (fv.buckets == expected).all()
    assert fv.total == expected.sum() == 20 + 19


def test_features_short_document_zero_vector():
    fv = hashed_ngram_features(Document.create("s", "one"), (2, 3), 64)
    assert fv.total == 0


def test_features_invalid_params():
    doc = Document.create("x", "a b")
    with pytest.raises(RefineError):
        hashed_ngram_features(doc, (0, 2), 64)
    with pytest.raises(RefineError):
        hashed_ngram_features(doc, (2, 1), 64)
    with pytest.raises(RefineError):
        hashed_ngram_features(doc, (1, 2), 0)


def test_weights_zero_when_distributions_match():
    corpus = Corpus.from_texts(["a b c", "d e f", "a b c"])
    agg, per_doc = corpus_features(corpus, (1, 1), 32)
    weights = importance_weights(agg, agg, per_doc)
    assert weights == [0.0, 0.0, 0.0]


def test_weights_scale_invariant():
    raw_corpus = Corpus.from_texts(["a b c d", "e f g h"])
    target_corpus = Corpus.from_texts(["a b a b", "c d c d"])
    raw, per_doc = corpus_features(raw_corpus, (1, 1), 32)
    target, _ = corpus_features(target_corpus, (1, 1), 32)
    scaled_raw = aggregate_features([raw, raw, raw])
    scaled_target = aggregate_features([target, target, target])
    w1 = importance_weights(raw, target, per_doc, smoothing=0.01)
    w2 = importance_weights(scaled_raw, scaled_target, per_doc, smoothing=0.01)
    assert w1 == pytest.approx(w2, rel=1e-12)


def test_weights_positive_when_target_dominates():
    # target has much more of the doc's vocabulary than raw does
    raw_corpus = Corpus.from_texts(["x y z w q r s t u v"])
    target_corpus = Corpus.from_texts(["a b a b a b", "a b x y"])
    doc = Document.create("probe", "a b a b")
    n_range, buckets = (1, 1), 64
    raw, _ = corpus_features(raw_corpus, n_range, buckets)
    target, _ = corpus_features(target_corpus, n_range, buckets)
    probe_fv = hashed_ngram_features(doc, n_range, buckets)
    weights = importance_weights(raw, target, [probe_fv], smoothing=0.01)
    assert weights[0] > 0


def test_weights_hand_computed_small_fixture():
    # 4 buckets, hand-maintained counts; weights follow
    # sum_b count_doc[b] * (log p_target[b] - log p_raw[b]) with the
    # relative add-smoothing p[b] = (c[b] + g*T/B) / (T*(1+g)).
    from qtokens.refine import FeatureVector

    def fv(ids, counts):
        return FeatureVector(np.array(ids), np.array(counts), n_buckets=4, n_range=(1, 1))

    raw = fv([0, 1, 2, 3], [4, 3, 2, 1])
    target = fv([0, 1, 2, 3], [1, 2, 3, 4])
    docs = [
        fv([0], [2]),
        fv([3], [2]),
        fv([0, 1, 2, 3], [1, 1, 1, 1]),
        fv([1, 2], [2, 2]),
        fv([0, 3], [5, 5]),
    ]
    g = 0.1
    p_raw = [(c + g * 10 / 4) / (10 * (1 + g)) for c in (4, 3, 2, 1)]
    p_tgt = [(c + g * 10 / 4) / (10 * (1 + g)) for c in (1, 2, 3, 4)]
    expected = []
    for doc in docs:
        expected.append(
            sum(
                int(doc.buckets[b]) * (math.log(p_tgt[b]) - math.log(p_raw[b]))
                for b in range(4)
            )
        )
    weights = importance_weights(raw, target, docs, smoothing=g)
    assert weights == pytest.approx(expected, rel=1e-12)
    # symmetric document sees both distributions alike
    assert weights[4] == pytest.approx(0.0, abs=1e-12)


def test_corpus_features_hash_each_distinct_ngram_once(monkeypatch):
    corpus = Corpus.from_texts(["a b a b a b", "b a b a c", "a b c a b c"])
    calls = []
    real = refine._ngram_hash

    def counting(gram, seed):
        calls.append(gram)
        return real(gram, seed)

    monkeypatch.setattr(refine, "_ngram_hash", counting)
    agg, per_doc = corpus_features(corpus, (1, 2), 64)
    distinct = {
        tuple(doc.tokens[i : i + n])
        for doc in corpus
        for n in (1, 2)
        for i in range(len(doc.tokens) - n + 1)
    }
    assert len(calls) == len(distinct) == 3 + 5
    assert sorted(calls) == sorted(distinct)
    # sharing the hashes across documents changes no vector
    for doc, fv in zip(corpus, per_doc):
        alone = hashed_ngram_features(doc, (1, 2), 64)
        assert (fv.ids == alone.ids).all() and (fv.counts == alone.counts).all()
    assert (agg.buckets == sum(fv.buckets for fv in per_doc)).all()


def test_corpus_features_memory_is_sparse():
    rng = np.random.default_rng(19)
    corpus = Corpus.from_texts(
        [" ".join(f"w{v}" for v in rng.integers(0, 5000, size=300)) for _ in range(200)]
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        features = corpus_features(corpus)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # dense storage would hold 200 x 65,536 int64 counts (100 MB)
    assert held < 8 * 2**20
    assert features[1][0].n_buckets == 1 << 16


@pytest.mark.parametrize(
    "raw_buckets, target_buckets, doc_buckets, raw_range",
    [
        (64, 32, 64, (1, 2)),
        (64, 64, 32, (1, 2)),
        (64, 64, 64, (1, 1)),
    ],
)
def test_weights_reject_mismatched_vectors(raw_buckets, target_buckets, doc_buckets, raw_range):
    corpus = Corpus.from_texts(["a b c", "c d e"])
    raw, _ = corpus_features(corpus, raw_range, raw_buckets)
    target, _ = corpus_features(corpus, (1, 2), target_buckets)
    _, docs = corpus_features(corpus, (1, 2), doc_buckets)
    with pytest.raises(RefineError, match="disagree"):
        importance_weights(raw, target, docs)


def test_weights_invalid_smoothing():
    corpus = Corpus.from_texts(["a b"])
    agg, per_doc = corpus_features(corpus, (1, 1), 8)
    with pytest.raises(RefineError):
        importance_weights(agg, agg, per_doc, smoothing=0.0)


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
    selected, warnings = select_by_weight(corpus, weights, budget_tokens=10**9)
    assert {d.id for d in selected} == {d.id for d in corpus}
    assert not warnings


def test_select_uniform_weights_tie_break_by_id():
    corpus = weighted_corpus()
    weights = [0.0, 0.0, 0.0, 0.0]
    selected, _ = select_by_weight(corpus, weights, budget_tokens=9)
    assert [d.id for d in selected] == ["doc:0", "doc:1", "doc:2"]


def test_select_topk_highest_weights():
    corpus = weighted_corpus()
    weights = [2.0, 3.0, 1.0, 4.0]
    selected, _ = select_by_weight(corpus, weights, budget_tokens=12)
    assert [d.id for d in selected] == ["doc:3", "doc:1", "doc:0"]


def test_select_budget_respected_exactly():
    rng = np.random.default_rng(6)
    corpus = Corpus.from_texts(
        [" ".join(["w"] * int(rng.integers(1, 30))) for _ in range(50)]
    )
    weights = list(rng.normal(size=50))
    for budget in (10, 57, 200):
        selected, _ = select_by_weight(corpus, weights, budget)
        assert selected.total_tokens <= budget


def test_select_budget_smaller_than_smallest_doc():
    corpus = weighted_corpus()
    weights = [0.0, 0.0, 0.0, 0.0]
    selected, warnings = select_by_weight(corpus, weights, budget_tokens=1)
    assert len(selected) == 0
    assert warnings


def test_select_gumbel_deterministic_per_seed():
    corpus = weighted_corpus()
    weights = [0.1, 0.2, 0.3, 0.4]
    a, _ = select_by_weight(corpus, weights, 9, mode="gumbel-sample", seed=3)
    b, _ = select_by_weight(corpus, weights, 9, mode="gumbel-sample", seed=3)
    assert [d.id for d in a] == [d.id for d in b]
    # Two seeds may coincide, but ten seeds all giving one selection would
    # mean the seed is ignored.
    selections = {
        tuple(d.id for d in select_by_weight(corpus, weights, 9, mode="gumbel-sample", seed=s)[0])
        for s in range(10)
    }
    assert len(selections) > 1


def test_dedup_exact_no_duplicates_identity():
    corpus = Corpus.from_texts(["a", "b", "c"])
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
    corpus = Corpus.from_texts(texts)
    survivors = dedup_exact(corpus)
    assert len(survivors) == len(set(texts))


def test_dedup_near_disjoint_vocab_identity():
    corpus = Corpus.from_texts(
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
    assert lsh_collision_probability(sim, 128, 16) > 0.999
    corpus = Corpus([Document.create("a", original), Document.create("b", near)])
    survivors = dedup_near(corpus)
    assert len(survivors) == 1


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
    corpus = Corpus.from_texts(texts)
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
    survivors_first = dedup_near(corpus, keep="first")
    assert [d.id for d in survivors_first] == ["short"]


def test_dedup_near_band_arithmetic_validated():
    corpus = Corpus.from_texts(["a b c d e"])
    with pytest.raises(RefineError, match="divisible"):
        dedup_near(corpus, n_hashes=100, bands=16)


@pytest.mark.parametrize("n_hashes, bands", [(0, 1), (-4, 2)])
def test_dedup_near_rejects_non_positive_hash_count(n_hashes, bands):
    corpus = Corpus.from_texts(["a b c d e", "a b c d e f"])
    with pytest.raises(RefineError, match="n_hashes must be >= 1"):
        dedup_near(corpus, n_hashes=n_hashes, bands=bands)


def test_dedup_increases_diversity_score():
    rng = np.random.default_rng(12)
    base = [" ".join(f"w{v}" for v in rng.integers(0, 3000, size=60)) for _ in range(200)]
    dup_idx = rng.integers(0, 200, size=60)  # 30% duplicates injected
    corpus = Corpus.from_texts(base + [base[i] for i in dup_idx])
    deduped = dedup_exact(corpus)
    assert len(deduped) == 200
    assert diversity_score(deduped) > diversity_score(corpus)
