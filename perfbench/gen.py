"""Seeded input generator for the benchmark workloads.

Everything is derived from ``numpy.random.default_rng(seed)``, so one seed
always gives byte-identical files. Corpora are JSONL (``{"id", "text"}`` per
line) drawn from a Zipf distribution over a synthetic vocabulary of
pronounceable words. Ground truth the output checks need (planted duplicate
groups, the selection budget, the query grid) goes to ``truth.json`` next to
the inputs; the program under test never reads it.
"""

from __future__ import annotations

import json
import os

import numpy as np

VOCAB_SIZE = 5000
ZIPF_EXPONENT = 1.1
DOC_TOKENS = 300
LAW_FITTER_SEED = 42

# Input sizes per workload. They fix the work in one job sequence; every
# seed produces inputs of exactly these sizes.
SIZES = {
    "score": {"docs_per_corpus": 400, "doc_tokens": DOC_TOKENS, "reference_docs": 200,
              "repeat_passages": 12, "repeat_share": 0.4},
    "refine": {"raw_docs": 360, "target_docs": 120, "doc_tokens": DOC_TOKENS,
               "budget_share": 0.3, "dedup_unique_docs": 300, "exact_groups": 20,
               "near_groups": 20, "copies_per_group": 2, "near_edit_share": 0.03},
    "law": {"forms": 4, "restarts": 4, "bootstrap_n": 24},
    "query": {"points": 50000, "presets": 2},
    "score-external": {"docs": 120, "doc_tokens": 2500, "context_len": 1024,
                       "peer_delay_ms": 2.0},
}

_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "st", "tr", "ch", "sh", "pl")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")


def vocabulary(rng: np.random.Generator, size: int = VOCAB_SIZE) -> list[str]:
    """``size`` distinct words of one to four consonant-vowel syllables."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        n_syll = int(rng.integers(1, 5))
        word = "".join(
            _ONSETS[int(rng.integers(len(_ONSETS)))] + _VOWELS[int(rng.integers(len(_VOWELS)))]
            for _ in range(n_syll)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def zipf_probs(size: int, shift: int = 0) -> np.ndarray:
    """Zipf weights over word ranks; ``shift`` rotates which words are frequent."""
    ranks = (np.arange(size) - shift) % size + 1
    weights = ranks.astype(float) ** -ZIPF_EXPONENT
    return weights / weights.sum()


def draw_tokens(rng, words, probs, n: int) -> list[str]:
    return [words[i] for i in rng.choice(len(words), size=n, p=probs)]


def write_jsonl(path: str, docs: list[tuple[str, list[str]]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, tokens in docs:
            fh.write(json.dumps({"id": doc_id, "text": " ".join(tokens)}) + "\n")


def _plain_docs(rng, words, probs, prefix: str, n_docs: int, n_tokens: int):
    return [(f"{prefix}-{i}", draw_tokens(rng, words, probs, n_tokens)) for i in range(n_docs)]


def gen_score(rng, words, out: str) -> dict:
    size = SIZES["score"]
    probs = zipf_probs(len(words))
    n, length = size["docs_per_corpus"], size["doc_tokens"]
    plain = _plain_docs(rng, words, probs, "a", n, length)
    # Corpus B splices passages from a small shared pool into every document,
    # so it compresses better (lower Dr) and repeats n-grams across documents.
    passages = [draw_tokens(rng, words, probs, 30) for _ in range(size["repeat_passages"])]
    repeated = []
    for i in range(n):
        tokens: list[str] = []
        while len(tokens) < length:
            if rng.random() < size["repeat_share"]:
                tokens.extend(passages[int(rng.integers(len(passages)))])
            else:
                tokens.extend(draw_tokens(rng, words, probs, 30))
        repeated.append((f"b-{i}", tokens[:length]))
    reference = _plain_docs(rng, words, probs, "ref", size["reference_docs"], length)
    write_jsonl(os.path.join(out, "corpus_a.jsonl"), plain)
    write_jsonl(os.path.join(out, "corpus_b.jsonl"), repeated)
    write_jsonl(os.path.join(out, "reference.jsonl"), reference)
    return {"corpora": ["corpus_a.jsonl", "corpus_b.jsonl"], "reference": "reference.jsonl"}


def gen_refine(rng, words, out: str) -> dict:
    size = SIZES["refine"]
    length = size["doc_tokens"]
    base = zipf_probs(len(words))
    shifted = zipf_probs(len(words), shift=len(words) // 3)
    # Raw is half base distribution, half the target's shifted one, interleaved.
    raw = []
    for i in range(size["raw_docs"]):
        probs = shifted if i % 2 else base
        raw.append((f"raw-{i}", draw_tokens(rng, words, probs, length)))
    target = _plain_docs(rng, words, shifted, "tgt", size["target_docs"], length)
    budget = int(size["budget_share"] * size["raw_docs"] * length)

    unique = _plain_docs(rng, words, base, "u", size["dedup_unique_docs"], length)
    picks = rng.choice(len(unique), size=size["exact_groups"] + size["near_groups"], replace=False)
    docs = list(unique)
    groups = []
    for g, pick in enumerate(picks):
        orig_id, orig_tokens = unique[int(pick)]
        exact = g < size["exact_groups"]
        members = [orig_id]
        for c in range(size["copies_per_group"]):
            tokens = list(orig_tokens)
            if not exact:
                n_edit = max(1, int(size["near_edit_share"] * len(tokens)))
                for pos in rng.choice(len(tokens), size=n_edit, replace=False):
                    tokens[int(pos)] = words[int(rng.integers(len(words)))]
            copy_id = f"{'x' if exact else 'n'}{g}-{c}"
            docs.append((copy_id, tokens))
            members.append(copy_id)
        groups.append({"kind": "exact" if exact else "near", "members": members})
    order = rng.permutation(len(docs))
    write_jsonl(os.path.join(out, "raw.jsonl"), raw)
    write_jsonl(os.path.join(out, "target.jsonl"), target)
    write_jsonl(os.path.join(out, "dups.jsonl"), [docs[int(i)] for i in order])
    return {"raw": "raw.jsonl", "target": "target.jsonl", "dups": "dups.jsonl",
            "budget_tokens": budget, "groups": groups}


def gen_law(rng, out: str) -> dict:
    size = SIZES["law"]
    # The law workload reads no corpus: its input is the embedded fixture.
    # The fitter's --seed stays fixed, because the number of LM evaluations
    # in the restarts and bootstrap resamples varies by about 10% between
    # seeds, which would swamp a real change in job time.
    return {"restarts": size["restarts"], "bootstrap_n": size["bootstrap_n"],
            "cli_seed": LAW_FITTER_SEED}


def gen_query(rng, out: str) -> dict:
    n = SIZES["query"]["points"]
    grid = {
        "n_millions": rng.uniform(25.0, 1500.0, n).tolist(),
        "d_tokens": (10.0 ** rng.uniform(8.0, 11.0, n)).tolist(),
        "dr": rng.uniform(0.25, 0.5, n).tolist(),
        "s": rng.uniform(0.01, 0.2, n).tolist(),
    }
    with open(os.path.join(out, "grid.json"), "w", encoding="utf-8") as fh:
        json.dump(grid, fh)
    return {"grid": "grid.json", "presets": ["paper-ours", "besiroglu-chinchilla"]}


def gen_score_external(rng, words, out: str) -> dict:
    size = SIZES["score-external"]
    docs = _plain_docs(rng, words, zipf_probs(len(words)), "long", size["docs"],
                       size["doc_tokens"])
    write_jsonl(os.path.join(out, "long.jsonl"), docs)
    return {"corpus": "long.jsonl", "context_len": size["context_len"],
            "peer_delay_ms": size["peer_delay_ms"]}


def generate(workload: str, seed: int, out: str) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``out``; return the truth record."""
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x5EED])
    if workload == "law":
        truth = gen_law(rng, out)
    elif workload == "query":
        truth = gen_query(rng, out)
    else:
        words = vocabulary(rng)
        make = {"score": gen_score, "refine": gen_refine,
                "score-external": gen_score_external}[workload]
        truth = make(rng, words, out)
    # The program's own --seed (sampling, MinHash, restarts, bootstrap) must
    # be non-negative, whatever the benchmark seed is.
    truth.setdefault("cli_seed", int(rng.integers(1 << 30)))
    truth.update(workload=workload, seed=seed, sizes=SIZES[workload])
    with open(os.path.join(out, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh)
    return truth
