"""The README's library example runs as written, and its `score` columns,
`fit` CSV headers, refinement settings and memory, and external-scorer
figures are the real ones."""

import inspect
import os
import re
import subprocess
import sys

import numpy as np

import qtokens
from qtokens import diversity, external, refine, syntheticity
from qtokens.cli import main
from qtokens.fitting import EXPERIMENTS_CSV_HEADER, QUALITY_CSV_HEADER

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def test_readme_library_example_runs(tmp_path, write_corpus):
    with open(README, encoding="utf-8") as fh:
        (example,) = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    rng = np.random.default_rng(3)
    write_corpus("corpus.jsonl", [
        {"id": f"d{i}", "text": " ".join(f"w{v}" for v in rng.integers(0, 50, size=60))}
        for i in range(40)
    ])
    run = subprocess.run([sys.executable, "-c", example], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert 0.0 <= float(run.stdout) <= 1.0
    # The calls the section names beside the example import from the package too.
    with open(README, encoding="utf-8") as fh:
        (returns,) = re.findall(r"^Library calls return (.*?)\n\n", fh.read(), re.M | re.S)
    names = re.findall(r"`(\w+)` returns", returns)
    assert names == ["score_corpus_diversity", "select_by_weight", "bootstrap_se"]
    assert [name for name in names if not hasattr(qtokens, name)] == []


def test_readme_gives_the_refinement_memory_measured():
    from test_refine import peak_bytes, zipf_corpora

    with open(README, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    ((weights, signatures),) = re.findall(
        r"selection weights peak at about (\d+) bytes per token of the two corpora and "
        r"MinHash signatures at about (\d+) bytes per raw token", text)
    # Each peak moves by about half a byte with what the process ran before.
    raw, target = zipf_corpora()
    tokens = raw.total_tokens + target.total_tokens
    assert abs(peak_bytes(refine.importance_weights, raw, target) / tokens - int(weights)) < 1
    assert abs(peak_bytes(refine.minhash_signature, raw, 0) / raw.total_tokens
               - int(signatures)) < 1


def test_readme_lists_the_score_columns(write_corpus, capsys):
    with open(README, encoding="utf-8") as fh:
        (columns,) = re.findall(r"^`(corpus,tokens,[^`]*)`", fh.read(), re.M)
    path = write_corpus("c.jsonl", [{"text": "a b c"}, {"text": "c d e"}])
    assert main(["score", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == columns


def test_readme_gives_the_fit_csv_headers():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    assert re.findall(r"^`(model_size_m,[^`]*)`", text, re.M) == [",".join(EXPERIMENTS_CSV_HEADER)]
    assert re.findall(r"^`(data_label,[^`]*)`", text, re.M) == [",".join(QUALITY_CSV_HEADER)]


def test_readme_gives_the_fuzz_case_count():
    from test_fuzz import CASES

    with open(README, encoding="utf-8") as fh:
        (count,) = re.findall(r"`tests/test_fuzz.py` runs the CLI in-process on (\d+) seeded",
                              fh.read())
    assert int(count) == sum(n_cases for _, n_cases, _ in CASES.values())


def fixed_setting(pattern):
    """The one match of ``pattern`` in README's "Fixed settings" paragraph."""
    with open(README, encoding="utf-8") as fh:
        (paragraph,) = re.findall(r"^\*\*Fixed settings\.\*\*(.*?)\n\n", fh.read(), re.M | re.S)
    (value,) = re.findall(pattern, " ".join(paragraph.split()))
    return value


def test_readme_fixed_diversity_settings_are_the_module_constants():
    assert int(fixed_setting(r"zlib level (\d+) ")) == diversity.LEVEL
    assert int(fixed_setting(r"MATTR window of (\d+) tokens")) == diversity.MATTR_WINDOW
    orders = fixed_setting(r"n-gram diversity for n = (\d+(?:, \d+)* and \d+),")
    assert tuple(map(int, re.findall(r"\d+", orders))) == diversity.NGRAM_NS
    assert int(fixed_setting(r"self-repetition over (\d+)-grams")) == diversity.SELF_REPETITION_N


def test_readme_fixed_refine_settings_are_the_module_constants():
    smoothing = fixed_setting(r"smooths both bucket distributions by ([\d.e-]+)\.")
    assert float(smoothing) == refine.SMOOTHING
    block = fixed_setting(r"documents of at most ([\d,]+) tokens")
    assert int(block.replace(",", "")) == refine.BLOCK_TOKENS
    assert int(fixed_setting(r"(\d+)-token shingles")) == refine.SHINGLE_N
    minhash = fixed_setting(r"MinHash with (\d+) bins in (\d+) bands of (\d+) rows")
    bins, bands, rows = map(int, minhash)
    assert (bins, bands, rows) == (refine.N_HASHES, refine.BANDS, refine.N_HASHES // refine.BANDS)
    densify = fixed_setting(r"densifies the signatures (\d+) rows at a time")
    assert int(densify) == refine.BLOCK_TOKENS // refine.N_HASHES


def protocol_figure(pattern):
    """The one match of ``pattern`` in README's "External scorer protocol"
    section."""
    with open(README, encoding="utf-8") as fh:
        (section,) = re.findall(r"^## External scorer protocol\n(.*?)^## ", fh.read(), re.M | re.S)
    (value,) = re.findall(pattern, " ".join(section.split()))
    return value


def test_readme_external_scorer_settings_are_the_module_constants():
    budget = protocol_figure(r"fewer than ([\d,]+) tokens \(`MAX_IN_FLIGHT_TOKENS`\)")
    assert int(budget.replace(",", "")) == external.MAX_IN_FLIGHT_TOKENS
    assert int(protocol_figure(r"pipes are grown to (\d+) MiB")) << 20 == external.PIPE_BYTES
    line_bytes = protocol_figure(r"at most (\d+) bytes per token")
    assert int(line_bytes) == external.LINE_BYTES_PER_TOKEN
    slack = protocol_figure(r"awaiting an answer, plus (\d+) KiB")
    assert int(slack) << 10 == external.LINE_SLACK
    tail = protocol_figure(r"keeping only the last (\d+) KiB")
    assert int(tail) << 10 == external.STDERR_TAIL
    timeout = protocol_figure(r"within `timeout` \((\d+) s by default\)")
    default = inspect.signature(syntheticity.external_scorer_connect).parameters["timeout"].default
    assert float(timeout) == default
