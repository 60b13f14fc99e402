"""One job sequence of one workload, in a fresh Python process.

``run.py`` starts this once per iteration. The process imports ``qtokens``
from the checkout's ``src`` directory, finishes the workload's set-up, runs
the job sequence through ``qtokens.cli.main`` and the library calls the
README documents, checks the outputs, and writes one JSON result file.
With ``--spans FILE`` it also wraps the program's public functions, writes
every span to FILE and adds per-layer metrics to the result.

Usage: python3 worker.py --workload score --inputs DIR --out DIR --result FILE
       [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import shlex
import sys
import time
import traceback
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from probe import host_probe  # noqa: E402


class Run:
    """State of one job sequence: inputs, job and check outcomes, digests."""

    def __init__(self, inputs: str, out: str):
        self.inputs = inputs
        self.out = out
        with open(os.path.join(inputs, "truth.json"), encoding="utf-8") as fh:
            self.truth = json.load(fh)
        self.seed = str(self.truth["cli_seed"])
        self.jobs: list[dict] = []
        self.checks: list[dict] = []
        self.windows = {"attempted": 0, "failed": 0}
        self.digest = hashlib.sha256()
        self.counts: dict[str, float] = {}
        self.state: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def out_path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def job(self, name: str, fn, *args):
        """Run one job; an exception or a nonzero exit counts as a failed job."""
        start = time.perf_counter()
        try:
            value = fn(*args)
            ok = True
        except Exception:
            traceback.print_exc()
            value, ok = None, False
        self.jobs.append({"name": name, "ok": ok, "s": time.perf_counter() - start})
        return value

    def cli(self, name: str, argv: list[str]) -> str:
        from qtokens import cli

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    rc = cli.main(["--seed", self.seed] + argv)
                except SystemExit as exc:
                    rc = exc.code
            if rc != 0:
                raise RuntimeError(f"qtokens {argv[0]} exited with {rc}")
            return buf.getvalue()

        return self.job(name, call) or ""

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def add_output(self, text) -> None:
        self.digest.update(text if isinstance(text, bytes) else str(text).encode("utf-8"))
        self.digest.update(b"\0")

    def add_file(self, name: str) -> None:
        with open(self.out_path(name), "rb") as fh:
            self.add_output(fh.read())

    def jobs_ok(self, *names: str) -> bool:
        return all(j["ok"] for j in self.jobs if j["name"] in names)


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


# --- score --------------------------------------------------------------------

def jobs_score(run: Run) -> None:
    t = run.truth
    corpora = [run.path(name) for name in t["corpora"]]
    csv_text = run.cli("score", ["score", *corpora, "--scorer", "kgram:" + run.path(t["reference"])])
    run.state["csv"] = csv_text
    run.add_output(csv_text)


def check_score(run: Run) -> None:
    import csv

    rows = {row["corpus"]: row for row in csv.DictReader(io.StringIO(run.state["csv"]))}
    tokens_read = 0
    for name in run.truth["corpora"] + [run.truth["reference"]]:
        tokens_read += sum(len(d["text"].split()) for d in read_jsonl(run.path(name)))
    run.counts["tokens"] = tokens_read
    for name in run.truth["corpora"]:
        row = rows.get(name)
        if row is None or not run.jobs_ok("score"):
            run.check(f"score row {name}", False, "missing row")
            continue
        texts = [d["text"] for d in read_jsonl(run.path(name))]
        joined = "\n".join(texts).encode("utf-8")
        dr = len(zlib.compress(joined, 6)) / len(joined)
        # The CLI prints six significant digits.
        run.check(f"dr {name}", rel_close(float(row["dr"]), dr, 1e-5), f"{row['dr']} vs {dr:.6g}")
        tokens = [tok for text in texts for tok in text.split()]
        ttr = len(set(tokens)) / len(tokens)
        run.check(f"ttr {name}", rel_close(float(row["ttr"]), ttr, 1e-5), f"{row['ttr']} vs {ttr:.6g}")
        for n in (2, 3, 4):
            total = len(tokens) - n + 1
            ngd = len({tuple(tokens[i:i + n]) for i in range(total)}) / total
            cell = row[f"ngram_diversity_{n}"]
            run.check(f"ngram{n} {name}", rel_close(float(cell), ngd, 1e-5), f"{cell} vs {ngd:.6g}")
        s = float(row["syntheticity"] or "nan")
        run.check(f"s {name}", 0.0 < s <= 1.0, f"S={s}")


# --- refine -------------------------------------------------------------------

def jobs_refine(run: Run) -> None:
    t = run.truth
    run.cli("select", ["select", run.path(t["raw"]), "--target", run.path(t["target"]),
                       "--budget-tokens", str(t["budget_tokens"]),
                       "--out", run.out_path("selected.jsonl"),
                       "--report", run.out_path("select_report.json")])
    run.cli("dedup-near", ["dedup", run.path(t["dups"]), "--mode", "near",
                           "--out", run.out_path("near.jsonl")])
    run.cli("dedup-exact", ["dedup", run.path(t["dups"]), "--mode", "exact",
                            "--out", run.out_path("exact.jsonl")])


def check_refine(run: Run) -> None:
    t = run.truth
    raw = read_jsonl(run.path(t["raw"]))
    target = read_jsonl(run.path(t["target"]))
    dups = read_jsonl(run.path(t["dups"]))

    def ntok(docs):
        return sum(len(d["text"].split()) for d in docs)

    run.counts["tokens"] = ntok(raw) + ntok(target) + 2 * ntok(dups)
    if not run.jobs_ok("select", "dedup-near", "dedup-exact"):
        run.check("refine jobs", False, "a job failed; outputs not checked")
        return
    for name in ("selected.jsonl", "select_report.json", "near.jsonl", "exact.jsonl"):
        run.add_file(name)

    selected = read_jsonl(run.out_path("selected.jsonl"))
    raw_ids = {d["id"] for d in raw}
    sel_ids = [d["id"] for d in selected]
    used = ntok(selected)
    run.check("select subset", set(sel_ids) <= raw_ids and len(set(sel_ids)) == len(sel_ids))
    run.check("select budget", used <= t["budget_tokens"], f"{used} > {t['budget_tokens']}")
    with open(run.out_path("select_report.json"), encoding="utf-8") as fh:
        side = json.load(fh)
    run.check("select sidecar", side["after"]["tokens"] == used
              and side["before"]["tokens"] == ntok(raw) and side["after"]["dr"] is not None)
    run.counts["budget_used"] = used / t["budget_tokens"]

    all_ids = {d["id"] for d in dups}
    exact_groups = [set(g["members"]) for g in t["groups"] if g["kind"] == "exact"]
    near_groups = [set(g["members"]) for g in t["groups"] if g["kind"] == "near"]
    planted = set().union(*exact_groups, *near_groups)

    exact_kept = {d["id"] for d in read_jsonl(run.out_path("exact.jsonl"))}
    removed = all_ids - exact_kept
    run.check("exact removes only planted copies",
              removed <= set().union(*exact_groups)
              and all(len(g & exact_kept) == 1 for g in exact_groups),
              f"removed {len(removed)}")

    near_kept = {d["id"] for d in read_jsonl(run.out_path("near.jsonl"))}
    removed = all_ids - near_kept
    run.check("near removes only planted groups", removed <= planted,
              f"{len(removed - planted)} unplanted removed")
    planted_copies = sum(len(g) - 1 for g in near_groups)
    caught = sum(len(g - near_kept) for g in near_groups)
    run.counts["dup_recall"] = caught / planted_copies


# --- law ----------------------------------------------------------------------

FORMS = ("F1", "F2", "F3", "F4")


def setup_law(run: Run) -> None:
    from qtokens import fixtures

    try:
        fixtures.verify_fixtures()
        run.check("fixture checksum", True)
    except Exception as exc:
        run.check("fixture checksum", False, str(exc))


def jobs_law(run: Run) -> None:
    t = run.truth
    for form in FORMS:
        run.cli(f"fit-{form}", ["fit", "--fixture", "--form", form,
                                "--out", run.out_path(f"fit_{form}.json")])
    run.cli("fit-restarts", ["fit", "--fixture", "--restarts", str(t["restarts"]),
                             "--out", run.out_path("fit_restarts.json")])
    run.cli("fit-bootstrap", ["fit", "--fixture", "--bootstrap-n", str(t["bootstrap_n"]),
                              "--out", run.out_path("fit_bootstrap.json")])
    run.cli("report", ["report", "--fit-report", run.out_path("fit_F1.json"),
                       "--out-dir", run.out_path("plots")])


def check_law(run: Run) -> None:
    t = run.truth
    # Attempted LM fits: one per form, the base fit plus each restart, and
    # the base fit plus each bootstrap resample.
    run.counts["fits"] = len(FORMS) + 1 + t["restarts"] + 1 + t["bootstrap_n"]
    if not all(j["ok"] for j in run.jobs):
        run.check("law jobs", False, "a job failed; outputs not checked")
        return
    names = [f"fit_{f}.json" for f in FORMS] + ["fit_restarts.json", "fit_bootstrap.json"]
    names += [os.path.join("plots", p) for p in ("pred_vs_true.svg", "acc_vs_dq.svg",
                                                 "q_surface.csv")]
    for name in names:
        run.add_file(name)
    with open(run.out_path("fit_F1.json"), encoding="utf-8") as fh:
        f1 = json.load(fh)
    run.check("F1 pearson >= 0.80", f1["pearson"] >= 0.80, f"pearson={f1['pearson']:.4f}")
    with open(run.out_path("fit_bootstrap.json"), encoding="utf-8") as fh:
        boot = json.load(fh)
    run.check("bootstrap se", boot["se"] is not None and all(
        math.isfinite(v) for v in boot["se"].values()))


# --- query --------------------------------------------------------------------

def prepare_query(run: Run) -> None:
    with open(run.path(run.truth["grid"]), encoding="utf-8") as fh:
        grid = json.load(fh)
    run.state["points"] = list(zip(grid["n_millions"], grid["d_tokens"], grid["dr"], grid["s"]))


def jobs_query(run: Run) -> None:
    from qtokens import scaling_law as law

    def sweep():
        predict = law.predict_accuracy
        unclamped = law.predict_accuracy_unclamped
        invert = law.invert_effective_tokens
        inputs = law.QualityInputs
        out = []
        for preset in run.truth["presets"]:
            consts = law.PRESETS[preset]
            acc, dq = [], []
            for n, d, dr, s in run.state["points"]:
                q_in = inputs(d=d, dr=dr, s=s, n_millions=n)
                acc.append(predict(q_in, consts))
                dq.append(invert(consts, n, unclamped(q_in, consts)))
            out.append((preset, acc, dq))
        return out

    run.state["results"] = run.job("sweep", sweep)


def check_query(run: Run) -> None:
    from qtokens import scaling_law as law

    points = run.state["points"]
    run.counts["queries"] = len(points) * len(run.truth["presets"])
    if not run.jobs_ok("sweep"):
        run.check("sweep", False, "sweep failed")
        return
    for preset, acc, dq in run.state["results"]:
        consts = law.PRESETS[preset]
        worst = 0.0
        for (n, d, dr, s), got in zip(points, dq):
            want = law.effective_tokens(law.QualityInputs(d=d, dr=dr, s=s, n_millions=n), consts)
            worst = max(worst, abs(got - want) / want)
        run.check(f"round trip {preset}", worst <= 1e-9, f"worst relative error {worst:.3g}")
        run.check(f"accuracy range {preset}", all(0.0 <= a <= 1.0 for a in acc))
        run.add_output(json.dumps([preset, acc, dq]))


# --- score-external -----------------------------------------------------------

def setup_score_external(run: Run) -> None:
    from qtokens import syntheticity

    t = run.truth
    cmd = " ".join(shlex.quote(part) for part in (
        sys.executable, os.path.join(HERE, "peer.py"), "--delay-ms", str(t["peer_delay_ms"]),
        "--stats", run.out_path("peer_stats.json")))
    scorer = syntheticity.external_scorer_connect(cmd, context_len=t["context_len"])
    run.state["scorer"] = scorer
    scorer.log_probs(["warmup"])


def jobs_score_external(run: Run) -> None:
    from qtokens import corpus, syntheticity

    def score():
        docs = corpus.load_jsonl(run.path(run.truth["corpus"]))
        return syntheticity.score_corpus(run.state["scorer"], docs, sample_frac=1.0)

    run.state["result"] = run.job("score_corpus", score)


def teardown_score_external(run: Run) -> None:
    scorer = run.state.get("scorer")
    if scorer is not None:
        scorer.close()


def check_score_external(run: Run) -> None:
    from peer import logprob

    ctx = run.truth["context_len"]
    docs = sorted(read_jsonl(run.path(run.truth["corpus"])), key=lambda d: d["id"])
    window_sums = []
    m_tokens = 0
    for doc in docs:
        tokens = doc["text"].split()
        for i in range(0, len(tokens), ctx):
            window = tokens[i:i + ctx]
            window_sums.append(math.fsum(logprob(tok) for tok in window))
            m_tokens += len(window)
    run.counts["tokens"] = m_tokens
    result = run.state.get("result")
    run.windows["attempted"] += len(window_sums)
    if result is None:
        run.windows["failed"] += len(window_sums)
        run.check("avg_nll", False, "scoring failed")
        return
    want = -math.fsum(window_sums) / m_tokens
    run.check("avg_nll", rel_close(result.avg_nll, want, 1e-12), f"{result.avg_nll!r} vs {want!r}")
    run.check("m_tokens", result.m_tokens == m_tokens, f"{result.m_tokens} vs {m_tokens}")
    run.add_output(repr((result.avg_nll, result.m_tokens)))
    stats_path = run.out_path("peer_stats.json")
    if os.path.exists(stats_path):
        with open(stats_path, encoding="utf-8") as fh:
            run.state["peer"] = json.load(fh)
        # The peer's nominal service delay in the jobs; the warm-up request
        # in set-up was a batch of its own.
        batches = run.state["peer"]["batches"] - 1
        run.counts["service_wait_s"] = batches * run.truth["peer_delay_ms"] / 1000.0
    run.check("peer stats", "peer" in run.state)


WORKLOADS = {
    # name: (setup, prepare, jobs, teardown, check). Set-up counts in setup_s;
    # prepare reads benchmark-side inputs and counts in no metric.
    "score": (None, None, jobs_score, None, check_score),
    "refine": (None, None, jobs_refine, None, check_refine),
    "law": (setup_law, None, jobs_law, None, check_law),
    "query": (None, prepare_query, jobs_query, None, check_query),
    "score-external": (setup_score_external, None, jobs_score_external, teardown_score_external,
                       check_score_external),
}


# --- tracing ------------------------------------------------------------------

def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _info_load(args, kwargs, result):
    return {"path": os.path.basename(args[0]), "docs": len(result),
            "tokens": result.total_tokens, "bytes": result.total_bytes}


def _info_deflate(args, kwargs, result):
    corpus = args[0]
    return {"bytes": corpus.total_bytes + max(len(corpus) - 1, 0)}


def _info_fit(fn):
    def info(args, kwargs, result):
        return {"form": result.constants.form, "restarts": _bound(fn, args, kwargs)["n_restarts"],
                "evals": result.n_evals, "iters": result.n_iters}
    return info


def trace_targets() -> dict:
    """Wrapped callables, each with an optional info hook and an RSS flag."""
    from qtokens import fitting

    fit_info = _info_fit(fitting.fit_constants)
    return {
        "corpus.load_jsonl": (_info_load, False),
        "corpus.Tokenizer.tokenize": (None, False),
        "corpus.Tokenizer.count": (None, False),
        "diversity.score_corpus_diversity": (None, True),
        "diversity.compression_ratio": (_info_deflate, False),
        "diversity.diversity_score": (None, False),
        "diversity.type_token_ratio": (None, False),
        "diversity.mattr": (None, False),
        "diversity.ngram_diversity": (None, False),
        "diversity.self_repetition": (None, False),
        "syntheticity.train_kgram_scorer": (
            lambda a, k, r: {"contexts": len(getattr(r, "_counts", ()))}, False),
        "syntheticity.score_corpus": (
            lambda a, k, r: {"kind": getattr(a[0], "kind", ""), "m_tokens": r.m_tokens}, False),
        "syntheticity.KgramScorer.log_probs": (None, False),
        "syntheticity.ExternalScorer.log_probs": (None, False),
        "syntheticity.ExternalScorer.score_batches": (
            lambda a, k, r: {"windows": len(r)}, False),
        "refine.corpus_features": (None, True),
        "refine.importance_weights": (None, False),
        "refine.select_by_weight": (None, False),
        "refine.minhash_signature": (None, False),
        "refine.dedup_near": (None, False),
        "refine.dedup_exact": (None, False),
        "fitting.fit_constants": (fit_info, False),
        "fitting.bootstrap_se": (None, False),
        "scaling_law.predict_accuracy": (None, False),
        "scaling_law.invert_effective_tokens": (None, False),
        "report.write_report": (None, False),
        "cli.main": (None, False),
    }


def layer_metrics(run: Run, spans: list[list]) -> tuple[dict, list[float], dict]:
    """Per-layer metrics of one traced job sequence, its scorer round trips
    (ms), and calls, total and self seconds per span name."""
    summary = tracing.summarize(spans)
    parents = {s[0]: s[1] for s in spans}
    names = {s[0]: s[2] for s in spans}

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def of(name):
        # Spans whose call raised carry no info; they are left out here.
        return [s for s in by_name.get(name, ()) if s[5] is not None]

    def under(span_id, predicate) -> bool:
        span_id = parents[span_id]
        while span_id >= 0:
            if predicate(span_id):
                return True
            span_id = parents[span_id]
        return False

    m: dict[str, float] = {}
    loads = of("corpus.load_jsonl")
    reference = run.truth.get("reference")
    scorer_side = {s[0] for s in loads if s[5]["path"] == reference}
    scorer_side |= {s[0] for s in of("syntheticity.train_kgram_scorer")}
    m["corpus.load_s"] = total("corpus.load_jsonl")
    m["corpus.docs"] = sum(s[5]["docs"] for s in loads)
    m["corpus.tokens"] = sum(s[5]["tokens"] for s in loads)
    m["corpus.bytes"] = sum(s[5]["bytes"] for s in loads)
    # Tokenize calls spent on the documents being measured, not on training
    # the k-gram teacher from the reference corpus.
    scored_docs = sum(s[5]["docs"] for s in loads if s[0] not in scorer_side)
    own_calls = sum(1 for s in by_name.get("corpus.Tokenizer.tokenize", ())
                    if not under(s[0], lambda p: p in scorer_side))
    m["corpus.tokenize_calls_per_doc"] = own_calls / scored_docs if scored_docs else 0.0

    m["diversity.report_s"] = total("diversity.score_corpus_diversity")
    m["diversity.report_rss_mb"] = max(
        [s[5]["rss_growth_mb"] for s in of("diversity.score_corpus_diversity")], default=0.0)
    deflate_s = total("diversity.compression_ratio")
    deflate_bytes = sum(s[5]["bytes"] for s in of("diversity.compression_ratio"))
    m["diversity.deflate_s"] = deflate_s
    m["diversity.deflate_mb_per_s"] = deflate_bytes / deflate_s / 1e6 if deflate_s else 0.0
    m["diversity.ttr_s"] = total("diversity.type_token_ratio")
    m["diversity.mattr_s"] = total("diversity.mattr")
    m["diversity.ngram_s"] = total("diversity.ngram_diversity")
    m["diversity.self_repetition_s"] = total("diversity.self_repetition")

    trains = of("syntheticity.train_kgram_scorer")
    m["syntheticity.kgram_train_s"] = total("syntheticity.train_kgram_scorer")
    m["syntheticity.kgram_contexts"] = sum(s[5]["contexts"] for s in trains)
    scores = of("syntheticity.score_corpus")
    m["syntheticity.kgram_score_s"] = sum(
        s[4] - s[3] for s in scores if s[5]["kind"] == "builtin-kgram")
    m["syntheticity.scored_tokens"] = sum(s[5]["m_tokens"] for s in scores)
    batches = of("syntheticity.ExternalScorer.score_batches")
    rtt_ms = [(s[4] - s[3]) * 1000.0 for s in batches]
    m["syntheticity.scorer_calls"] = len(batches)
    m["syntheticity.windows_per_call"] = (
        sum(s[5]["windows"] for s in batches) / len(batches) if batches else 0.0)
    peer = run.state.get("peer", {})
    m["syntheticity.bytes_sent"] = peer.get("bytes_read", 0)
    m["syntheticity.bytes_received"] = peer.get("bytes_written", 0)
    m["syntheticity.peer_batches"] = peer.get("batches", 0)
    m["syntheticity.peer_batch_mean"] = (
        peer["requests"] / peer["batches"] if peer.get("batches") else 0.0)
    m["syntheticity.peer_batch_max"] = peer.get("max_batch", 0)
    m["syntheticity.peer_idle_s"] = peer.get("idle_s", 0.0)

    m["refine.features_s"] = total("refine.corpus_features")
    m["refine.features_rss_mb"] = max(
        [s[5]["rss_growth_mb"] for s in of("refine.corpus_features")], default=0.0)
    m["refine.weights_s"] = total("refine.importance_weights")
    m["refine.select_s"] = total("refine.select_by_weight")
    m["refine.minhash_s"] = total("refine.minhash_signature")
    m["refine.dedup_near_s"] = total("refine.dedup_near")
    m["refine.dedup_exact_s"] = total("refine.dedup_exact")
    m["refine.dup_recall"] = run.counts.get("dup_recall", 0.0)
    m["refine.budget_used"] = run.counts.get("budget_used", 0.0)

    in_bootstrap = lambda p: names[p] == "fitting.bootstrap_se"  # noqa: E731
    plain = [s for s in of("fitting.fit_constants")
             if s[5]["restarts"] == 0 and not under(s[0], in_bootstrap)]
    for form in FORMS:
        m[f"fitting.fit_s.{form}"] = sum(s[4] - s[3] for s in plain if s[5]["form"] == form)
    f1 = [s for s in plain if s[5]["form"] == "F1"][:1]
    m["fitting.residual_evals"] = f1[0][5]["evals"] if f1 else 0
    m["fitting.lm_iters"] = f1[0][5]["iters"] if f1 else 0
    m["fitting.evals_per_iter"] = (
        f1[0][5]["evals"] / f1[0][5]["iters"] if f1 and f1[0][5]["iters"] else 0.0)
    m["fitting.bootstrap_s"] = total("fitting.bootstrap_se")
    m["fitting.restarts_s"] = sum(
        s[4] - s[3] for s in of("fitting.fit_constants") if s[5]["restarts"] > 0)

    for key, name in (("predict_us", "scaling_law.predict_accuracy"),
                      ("invert_us", "scaling_law.invert_effective_tokens")):
        m[f"scaling_law.{key}"] = total(name) / calls(name) * 1e6 if calls(name) else 0.0
    m["report.write_s"] = total("report.write_report")
    m["cli.self_s"] = summary.get("cli.main", {}).get("self_s", 0.0)
    m["trace.spans"] = len(spans)
    return m, rtt_ms, summary


# --- main ---------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description="Run one job sequence of one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="trace the job sequence into this file")
    parser.add_argument("--run-id", default="", help="identifier written with every span")
    args = parser.parse_args()

    # Set-up: everything from process start to ready for the first job.
    sys.path.insert(0, SRC)
    import qtokens
    from qtokens import cli  # noqa: F401  (set-up includes importing the CLI)

    if not os.path.abspath(qtokens.__file__).startswith(SRC + os.sep):
        print(f"qtokens imported from {qtokens.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup, prepare, jobs, teardown, check = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    run = Run(args.inputs, args.out)
    try:
        if setup is not None:
            setup(run)
        ready = time.monotonic()
        if prepare is not None:
            prepare(run)

        tracer = None
        if args.spans:
            tracer = tracing.Tracer(run_id=args.run_id)
            tracer.install(trace_targets())
        start = time.perf_counter()
        jobs(run)
        job_s = time.perf_counter() - start
        rss_mb = tracing.peak_rss_mb()
        # After the RSS reading, so the probe cannot set the peak.
        probe_s = host_probe()
        if tracer is not None:
            tracer.uninstall()
    finally:
        if teardown is not None:
            teardown(run)
    check(run)

    result = {
        "ready": ready,
        "probe_s": probe_s,
        "job_s": job_s,
        "fixed_wait_s": run.counts.get("service_wait_s", 0.0),
        "peak_rss_mb": rss_mb,
        "jobs": run.jobs,
        "checks": run.checks,
        "windows": run.windows,
        "counts": run.counts,
        "digest": run.digest.hexdigest(),
    }
    if tracer is not None:
        tracer.write(args.spans)
        result["layers"], result["rtt_ms"], result["span_summary"] = layer_metrics(
            run, tracer.spans)
        result["missing"] = tracer.missing
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
