"""Token ids are numbered in the order a process first meets each token, so
they differ from run to run; no output may depend on that numbering.

Each check computes the diversity report, S under a k-gram teacher,
selection weights and near-dedup survivors through the library, and the
``score``, ``select --report`` and ``dedup --mode near --report`` outputs
through the CLI, once in a fresh process and again after other corpora
have taken ids first, under each tokenizer.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

from qtokens import cli
from qtokens.corpus import Tokenizer, load_jsonl
from qtokens.diversity import score_corpus_diversity
from qtokens.refine import dedup_near, importance_weights
from qtokens.syntheticity import score_corpus, train_kgram_scorer

from conftest import make_corpus

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
WORDS = [f"w{v}" for v in range(200)] + ["é", "日本", "straße", "ø"]


def write_inputs(directory: str) -> None:
    rng = np.random.default_rng(5)

    def texts(n_docs, low, high, shift=0):
        return [
            " ".join(WORDS[(v + shift) % len(WORDS)] for v in rng.zipf(1.3, size=int(n)) % 120)
            for n in rng.integers(low, high, size=n_docs)
        ]

    corpus = texts(30, 20, 90)
    # Near duplicates: one word changed in a long document.
    corpus += [" ".join(["w7", *text.split()[1:]]) for text in corpus[:4]]
    for name, rows in (("corpus", corpus), ("reference", texts(20, 30, 80)),
                       ("target", texts(10, 20, 60, shift=40))):
        with open(os.path.join(directory, f"{name}.jsonl"), "w", encoding="utf-8") as fh:
            for text in rows:
                fh.write(json.dumps({"text": text}, ensure_ascii=False) + "\n")
    with open(os.path.join(directory, "vocab.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{word}\n" for word in WORDS[::2]))


def spec_of(directory: str, tokenizer: str) -> str:
    return f"vocab:{os.path.join(directory, 'vocab.txt')}" if tokenizer == "vocab" else tokenizer


def load_unrelated(directory: str, tokenizer: str) -> None:
    """Give ids first to a corpus of new words and the inputs' words in reverse."""
    with open(os.path.join(directory, "corpus.jsonl"), encoding="utf-8") as fh:
        words = " ".join(json.loads(line)["text"] for line in fh).split()
    text = " ".join(["unrelated", "ünrelated", *reversed(words)])
    make_corpus([text], Tokenizer(spec_of(directory, tokenizer)))


def outputs(directory: str, tokenizer: str) -> dict:
    spec = spec_of(directory, tokenizer)
    path = {name: os.path.join(directory, f"{name}.jsonl")
            for name in ("corpus", "reference", "target")}
    tok = Tokenizer(spec)
    corpus, reference, target = (load_jsonl(path[name], tok)
                                 for name in ("corpus", "reference", "target"))
    result = score_corpus(train_kgram_scorer(reference), corpus, 1.0, 0)
    out = {
        "ids": corpus.token_ids()[0].tolist(),
        "report": score_corpus_diversity(corpus).to_flat_dict(),
        "s": [result.avg_nll, result.s, result.m_tokens],
        "weights": importance_weights(corpus, target),
        "near": [doc.id for doc in dedup_near(corpus, seed=3)],
    }
    scorer = f"kgram:{path['reference']}"
    kept, side = os.path.join(directory, "kept.jsonl"), os.path.join(directory, "side.json")
    for argv in (
        ["score", path["corpus"], "--scorer", scorer],
        ["select", path["corpus"], "--target", path["target"], "--budget-tokens", "900",
         "--out", kept, "--report", side, "--scorer", scorer],
        ["dedup", path["corpus"], "--mode", "near", "--out", kept, "--report", side,
         "--scorer", scorer],
    ):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["--seed", "3", "--tokenizer", spec, *argv]) == 0
        out[argv[0]] = stdout.getvalue()
        for written in (kept, side) if argv[0] != "score" else ():
            with open(written, encoding="utf-8") as fh:
                out[argv[0]] += fh.read()
    return out


def run_steps(directory: str, steps: list) -> list:
    """Run ``("unrelated" | "outputs", tokenizer)`` steps in order; return the outputs."""
    results = []
    for action, tokenizer in steps:
        if action == "unrelated":
            load_unrelated(directory, tokenizer)
        else:
            results.append(outputs(directory, tokenizer))
    return results


def in_fresh_process(directory: str, steps: list) -> list:
    code = (f"import json, sys; sys.path.insert(0, {TESTS_DIR!r}); "
            f"from test_token_ids import run_steps; "
            f"print(json.dumps(run_steps({directory!r}, {steps!r})))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120, check=True)
    return json.loads(result.stdout)


def test_outputs_do_not_depend_on_id_numbering(tmp_path):
    directory = str(tmp_path)
    write_inputs(directory)
    tokenizers = ("whitespace", "byte", "vocab")
    # Cold, then again after an unrelated corpus, then under the other
    # tokenizers, all in one process.
    same_process = in_fresh_process(directory, [
        ("outputs", "whitespace"), ("unrelated", "whitespace"), ("outputs", "whitespace"),
        ("outputs", "byte"), ("outputs", "vocab"),
    ])
    cold = {"whitespace": same_process[0]}
    cold.update({t: in_fresh_process(directory, [("outputs", t)])[0] for t in tokenizers[1:]})
    # Each tokenizer's inputs after an unrelated corpus took ids first.
    renumbered = dict(zip(tokenizers, in_fresh_process(
        directory, [step for t in tokenizers for step in (("unrelated", t), ("outputs", t))])))
    # This process has tokenized the other tests' corpora already.
    here = {t: json.loads(json.dumps(outputs(directory, t))) for t in tokenizers}

    warm = dict(zip(tokenizers, same_process[1:]))
    for tokenizer in tokenizers:
        want = cold[tokenizer]
        assert renumbered[tokenizer]["ids"] != want["ids"]
        for got in (warm[tokenizer], renumbered[tokenizer], here[tokenizer]):
            assert {k: v for k, v in got.items() if k != "ids"} == {
                k: v for k, v in want.items() if k != "ids"}
    # The tokenizers differ, so the check compared different outputs.
    assert len({json.dumps(cold[t]["report"]) for t in tokenizers}) == 3
