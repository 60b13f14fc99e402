"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``).
Criterion 2 is expected to fail and is marked strict-xfail: on this
dataset every functional form converges to an R-squared near 0.71, and
at any converged least-squares solution R-squared equals the squared
Pearson correlation, so the criterion's R-squared window [0.35, 0.55] is
incompatible with criterion 1's Pearson >= 0.80. See the test body.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qtokens import diversity
from qtokens.corpus import Corpus, Document
from qtokens.diversity import diversity_score, score_corpus_diversity
from qtokens.errors import ScalingDomainError
from qtokens.fitting import ExperimentPoint, fit_constants
from qtokens.fixtures import fixture_points, verify_fixtures
from qtokens.refine import dedup_exact, dedup_near, select_by_weight
from qtokens.scaling_law import (
    PRESETS,
    QualityInputs,
    ScalingConstants,
    default_initial_guess,
    invert_effective_tokens,
    predict_accuracy,
    predict_accuracy_unclamped,
    scaling_factor_q,
)
from qtokens.syntheticity import score_corpus

from conftest import make_corpus


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    return ok


def test_criterion_1_fixture_fit_correlation():
    start = time.perf_counter()
    fit = fit_constants(fixture_points(), default_initial_guess("F1"))
    elapsed = time.perf_counter() - start
    ok = fit.pearson >= 0.80 and elapsed < 10.0
    assert report(
        1, ok, f"F1 fixture fit pearson={fit.pearson:.4f} (>= 0.80) in {elapsed:.2f}s (< 10s)"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable on the embedded dataset: all four forms converge to "
        "R2 ~ 0.65-0.71 (rank F3 > F4 > F1 > F2), and R2 = pearson^2 at any "
        "converged fit, so R2 in [0.35, 0.55] contradicts criterion 1"
    ),
)
def test_criterion_2_functional_form_ranking():
    points = fixture_points()
    r2 = {}
    for form in ("F1", "F2", "F3", "F4"):
        r2[form] = fit_constants(points, default_initial_guess(form)).r2
    rank_ok = r2["F1"] > r2["F4"] > r2["F2"] > r2["F3"]
    window_ok = abs(r2["F1"] - 0.45) <= 0.10
    detail = (
        f"R2: F1={r2['F1']:.3f} F2={r2['F2']:.3f} F3={r2['F3']:.3f} F4={r2['F4']:.3f}; "
        f"rank F1>F4>F2>F3 {'holds' if rank_ok else 'violated'}; "
        f"F1 within 0.45+-0.10 {'holds' if window_ok else 'violated'}"
    )
    assert report(2, rank_ok and window_ok, detail)


def test_criterion_3_forward_prediction_spot_checks():
    ours = PRESETS["paper-ours"]
    g25 = predict_accuracy(
        QualityInputs(d=10_993_147_242, dr=0.36370, s=0.02635, n_millions=25), ours
    )
    g500 = predict_accuracy(
        QualityInputs(d=10_993_147_242, dr=0.36370, s=0.02635, n_millions=500), ours
    )
    ok25 = abs(g25 - 0.380) <= 0.015 and abs(g25 - 0.3827) <= 0.015
    ok500 = abs(g500 - 0.4509) <= 0.05
    assert report(
        3,
        ok25 and ok500,
        f"G(25M, Random 100%)={g25:.4f} vs 0.380+-0.015 (obs 0.3827); "
        f"G(500M, Random 100%)={g500:.4f} vs 0.4509+-0.05",
    )


def test_criterion_4_inverse_identity_and_exact_recovery():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    checked = 0
    while checked < 1000:
        e = float(rng.uniform(-1, 2))
        a = float(rng.uniform(-300, 300))
        alpha = float(rng.uniform(0.02, 0.9))
        beta = float(rng.uniform(0.1, 1.2))
        n = float(10 ** rng.uniform(0.5, 3.5))
        dq = float(10 ** rng.uniform(2, 11))
        scale = max(1.0, abs(e) + abs(a) / n**alpha)
        t = float(rng.choice([-1.0, 1.0])) * 10 ** float(rng.uniform(-3, 0.5)) * scale
        b = t * dq**beta
        if not math.isfinite(b) or b == 0:
            continue
        consts = ScalingConstants(e=e, a=a, alpha=alpha, b=b, beta=beta, c1=0, c2=0)
        score = predict_accuracy_unclamped(
            QualityInputs(d=dq, dr=0.5, s=0.5, n_millions=n), consts
        )
        try:
            back = invert_effective_tokens(consts, n, score)
        except ScalingDomainError:
            continue
        worst = max(worst, abs(back - dq) / dq)
        checked += 1
    roundtrip_ok = worst < 1e-9

    truth = ScalingConstants(e=0.6, a=0.4, alpha=0.30, b=5.0, beta=0.35, c1=-2.0, c2=1.5)
    pts = []
    sizes = (25, 50, 75, 125, 350, 500, 1500)
    gen = np.random.default_rng(42)
    for i in range(42):
        n = sizes[i % len(sizes)]
        d = float(10 ** gen.uniform(8, 10.5))
        dr = float(gen.uniform(0.25, 0.5))
        s = float(gen.uniform(0.02, 0.15))
        dq = d * math.exp(truth.c1 * dr + truth.c2 * s)
        acc = truth.e + truth.a / n**truth.alpha + truth.b / dq**truth.beta
        pts.append(ExperimentPoint(n, d, dr, s, acc))
    init = ScalingConstants(e=0.72, a=0.32, alpha=0.36, b=6.5, beta=0.2975,
                            c1=-2.4, c2=1.2)
    fit = fit_constants(pts, init)
    rel_errs = [
        abs(getattr(fit.constants, k) - getattr(truth, k)) / abs(getattr(truth, k))
        for k in ("e", "a", "alpha", "b", "beta", "c1", "c2")
    ]
    recovery_ok = max(rel_errs) < 1e-4 and fit.sse < 1e-12
    assert report(
        4,
        roundtrip_ok and recovery_ok,
        f"1000 inverse round trips worst rel err {worst:.2e} (< 1e-9); "
        f"noiseless recovery worst rel err {max(rel_errs):.2e} (< 1e-4), "
        f"sse {fit.sse:.2e} (< 1e-12)",
    )


def test_criterion_5_metric_properties(monkeypatch):
    repeated = Corpus([Document.create("rep", "x" * (1 << 20))])
    rng = np.random.default_rng(12345)
    raw = rng.integers(0, 256, size=1 << 19, dtype=np.uint8).tobytes()
    random_hex = Corpus([Document.create("hex", raw.hex())])
    dr_ok = diversity_score(repeated) < diversity_score(random_hex)

    class UniformScorer:
        context_len = 1024

        def __init__(self, v):
            self.v = v

        def score_windows(self, windows):
            for window in windows:
                yield [-math.log(self.v)] * len(window)

    corpus16 = make_corpus(["a b c d e f g h", "i j k l m n o p"])  # 16 tokens
    uniform_ok = all(
        score_corpus(UniformScorer(v), corpus16, 1.0, 0).perplexity == float(v)
        for v in (2, 4, 32)
    )

    gen = np.random.default_rng(777)
    oracle_ok = True
    for _ in range(100):
        length = int(gen.integers(4, 150))
        vocab = int(gen.integers(2, 25))
        tokens = [f"t{v}" for v in gen.integers(0, vocab, size=length)]
        window = int(gen.integers(1, 40))
        n = int(gen.integers(1, min(4, length) + 1))
        ttr_oracle = len(set(tokens)) / len(tokens)
        if len(tokens) < window:
            mattr_oracle = ttr_oracle
        else:
            ratios = [
                len(set(tokens[i : i + window])) / window
                for i in range(len(tokens) - window + 1)
            ]
            mattr_oracle = sum(ratios) / len(ratios)
        grams = [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
        ngram_oracle = len(set(grams)) / len(grams)
        # The report reads its window and orders when it is computed.
        monkeypatch.setattr(diversity, "MATTR_WINDOW", window)
        monkeypatch.setattr(diversity, "NGRAM_NS", (n,))
        monkeypatch.setattr(diversity, "SELF_REPETITION_N", n)
        got = score_corpus_diversity(make_corpus([" ".join(tokens)]))
        if (
            got.ttr != ttr_oracle
            or got.mattr != mattr_oracle
            or got.ngram_diversity[n] != ngram_oracle
        ):
            oracle_ok = False
            break
    assert report(
        5,
        dr_ok and uniform_ok and oracle_ok,
        f"Dr(repetitive) < Dr(random-hex): {dr_ok}; uniform perplexity == |V|: "
        f"{uniform_ok}; 100 brute-force oracle matches (exact): {oracle_ok}",
    )


def test_criterion_6_quality_direction():
    ours = PRESETS["paper-ours"]
    assert ours.c1 < 0 and ours.c2 > 0
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(100):
        dr = float(rng.uniform(0.2, 0.6))
        s = float(rng.uniform(0.01, 0.2))
        h = 1e-7
        q = scaling_factor_q(dr, s, ours)
        if not (
            scaling_factor_q(dr, s + h, ours) > q
            and scaling_factor_q(dr - h, s, ours) > q
        ):
            ok = False
            break
    assert report(
        6, ok, "Q strictly increases as S rises or Dr falls at 100 random points"
    )


def test_criterion_7_refinement_properties():
    rng = np.random.default_rng(70)
    base = [
        " ".join(f"w{v}" for v in rng.integers(0, 4000, size=int(rng.integers(30, 90))))
        for _ in range(1000)
    ]
    corpus = make_corpus(base)
    exact_once = dedup_exact(corpus)
    near_once = dedup_near(corpus)
    idempotent = (
        [d.id for d in dedup_exact(exact_once)] == [d.id for d in exact_once]
        and [d.id for d in dedup_near(near_once)] == [d.id for d in near_once]
    )

    dup_idx = rng.integers(0, 1000, size=300)  # 30% exact duplicates injected
    padded = make_corpus(base + [base[i] for i in dup_idx], id_prefix="pad")
    dr_up = diversity_score(dedup_exact(padded)) > diversity_score(padded)

    weights = list(rng.normal(size=1000))
    budgets_ok = True
    for budget in (100, 1777, 25_000):
        selected = select_by_weight(corpus, weights, budget)
        if selected.total_tokens > budget:
            budgets_ok = False
    assert report(
        7,
        idempotent and dr_up and budgets_ok,
        f"dedup idempotent on 1k docs: {idempotent}; Dr rises after dedup of 30% "
        f"duplicates: {dr_up}; selection within token budgets: {budgets_ok}",
    )


def test_criterion_8_declared_fixtures():
    # The training runs, benchmark accuracies, and teacher Dr/S values are
    # not reproducible at desk scale; they enter only as verified fixtures.
    verify_fixtures()
    points = fixture_points()
    labels = {p.label for p in points}
    assert report(
        8,
        len(points) == 207 and labels == {"Random", "Selection", "Selection + Synthesis"},
        "embedded tables checksum-verified; 207 points across 3 pipelines consumed "
        "as fixtures (not re-derived)",
    )


def _run(args):
    return subprocess.run(
        [sys.executable, "-m", "qtokens.cli", *args], capture_output=True, timeout=120
    )


def test_criterion_9_determinism(tmp_path):
    fit_a = _run(["--seed", "42", "fit", "--fixture", "--form", "F1"])
    fit_b = _run(["--seed", "42", "fit", "--fixture", "--form", "F1"])
    fits_ok = fit_a.returncode == 0 and fit_a.stdout == fit_b.stdout

    corpus = tmp_path / "c.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for i in range(20):
            fh.write(json.dumps({"id": f"d{i}", "text": f"alpha beta w{i} " * 10}) + "\n")
    score_a = _run(["--seed", "42", "score", str(corpus)])
    score_b = _run(["--seed", "42", "score", str(corpus)])
    score_ok = score_a.returncode == 0 and score_a.stdout == score_b.stdout

    (tmp_path / "fit.json").write_bytes(fit_a.stdout)
    r1 = _run(["report", "--fit-report", str(tmp_path / "fit.json"),
               "--out-dir", str(tmp_path / "r1")])
    r2 = _run(["report", "--fit-report", str(tmp_path / "fit.json"),
               "--out-dir", str(tmp_path / "r2")])
    report_ok = r1.returncode == 0 and all(
        (tmp_path / "r1" / n).read_bytes() == (tmp_path / "r2" / n).read_bytes()
        for n in ("pred_vs_true.svg", "acc_vs_dq.svg", "q_surface.csv")
    )
    assert report(
        9,
        fits_ok and score_ok and report_ok,
        f"byte-identical reruns: fit JSON {fits_ok}, score CSV {score_ok}, "
        f"report files {report_ok}",
    )
