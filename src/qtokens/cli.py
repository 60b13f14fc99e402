"""Command-line interface.

Subcommands: score, fit, predict, invert, select, dedup, report. Data
goes to stdout (or --out files), errors to stderr with a nonzero exit
code. Every run is deterministic given its flags and --seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import replace

from . import diversity, fitting, fixtures, refine, report as report_mod
from .corpus import Corpus, Tokenizer, load_jsonl, write_jsonl
from .errors import DiversityError, QTokensError
from .scaling_law import (
    PRESETS,
    QualityInputs,
    ScalingConstants,
    default_initial_guess,
    effective_tokens,
    invert_effective_tokens,
    predict_accuracy,
)
from .syntheticity import external_scorer_connect, score_corpus, train_kgram_scorer

SCORER_ENV = "QTOKENS_SCORER"

SCORE_COLUMNS = [
    "corpus",
    "tokens",
    "cr",
    "dr",
    "ttr",
    "mattr",
    "ngram_diversity_2",
    "ngram_diversity_3",
    "ngram_diversity_4",
    "self_repetition",
    "avg_nll",
    "perplexity",
    "syntheticity",
]


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise QTokensError(f"{path}: not valid JSON: {exc}") from exc


def _load_constants(spec: str) -> ScalingConstants:
    if spec in PRESETS:
        return PRESETS[spec]
    if os.path.exists(spec):
        return ScalingConstants.from_dict(_read_json(spec))
    raise QTokensError(
        f"unknown constants {spec!r}: not a preset ({', '.join(sorted(PRESETS))}) "
        f"or a JSON file"
    )


def _make_scorer(spec: str | None, tokenizer: Tokenizer):
    if spec is None:
        spec = os.environ.get(SCORER_ENV) or "none"
        if spec != "none" and not spec.startswith(("kgram:", "external:")):
            spec = f"external:{spec}"
    if spec == "none":
        return None
    if spec.startswith("kgram:"):
        reference = load_jsonl(spec.split(":", 1)[1], tokenizer)
        return train_kgram_scorer(reference)
    if spec.startswith("external:"):
        return external_scorer_connect(spec.split(":", 1)[1])
    raise QTokensError(f"unknown scorer spec {spec!r}")


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _close_scorer(scorer) -> None:
    close = getattr(scorer, "close", None)
    if close is not None:
        close()


def cmd_score(args) -> int:
    tokenizer = Tokenizer.from_spec(args.tokenizer)
    scorer = _make_scorer(args.scorer, tokenizer)

    def score_one(path: str) -> dict:
        corpus = load_jsonl(path, tokenizer)
        name = os.path.basename(path)
        rep = diversity.score_corpus_diversity(corpus)
        for warning in rep.warnings:
            print(f"warning: {name}: {warning}", file=sys.stderr)
        row = {"corpus": name, "tokens": corpus.total_tokens, **rep.to_flat_dict()}
        if scorer is not None:
            result = score_corpus(scorer, corpus, seed=args.seed)
            row["avg_nll"] = result.avg_nll
            row["perplexity"] = result.perplexity
            row["syntheticity"] = result.s
        return row

    try:
        rows = [score_one(path) for path in args.inputs]
    finally:
        _close_scorer(scorer)

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SCORE_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt_cell(v) for k, v in row.items()})
    sys.stdout.write(buf.getvalue())
    return 0


def cmd_fit(args) -> int:
    if args.fixture:
        if args.quality:
            raise QTokensError("--quality needs --experiments, not --fixture")
        points = fixtures.fixture_points()
    else:
        quality = fitting.load_quality_csv(args.quality) if args.quality else None
        points = fitting.load_experiments_csv(args.experiments, quality)
    if args.init:
        init = replace(_load_constants(args.init), form=args.form)
    else:
        init = default_initial_guess(args.form)
    report = fitting.fit_constants(
        points, init, n_restarts=args.restarts, restart_seed=args.seed
    )
    if args.bootstrap_n:
        report.se = fitting.bootstrap_se(
            points, report, n_resamples=args.bootstrap_n, seed=args.seed
        )
        if 2 * report.bootstrap_converged < args.bootstrap_n:
            print(
                f"warning: only {report.bootstrap_converged} of {args.bootstrap_n} bootstrap "
                f"refits converged within {fitting.MAX_ITERS} iterations; the standard "
                f"errors are bounded by the iteration cap",
                file=sys.stderr,
            )
    payload = fitting.fit_report_to_dict(report, points, seed=args.seed)
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_predict(args) -> int:
    consts = _load_constants(args.constants)
    q_in = QualityInputs(d=args.d_tokens, dr=args.dr, s=args.s, n_millions=args.n_millions)
    dq = effective_tokens(q_in, consts)
    acc = predict_accuracy(q_in, consts)
    sys.stdout.write(f"accuracy {acc:.6f}\n")
    sys.stdout.write(f"effective_tokens {dq:.6e}\n")
    return 0


def cmd_invert(args) -> int:
    consts = _load_constants(args.constants)
    dq = invert_effective_tokens(consts, args.n_millions, args.loss)
    sys.stdout.write(f"effective_tokens {dq:.6e}\n")
    return 0


def _sidecar(args, tokenizer: Tokenizer, before: Corpus, after: Corpus, **extra) -> dict | None:
    """The ``--report`` sidecar, or None if none was asked for: seed,
    document and token counts, Dr and S before and after refinement, then
    ``extra``.

    Dr is null for a corpus with no text, and S for one with no tokens or
    when no scorer is set; a scorer that fails fails the command, as in
    ``score``."""
    if not args.report:
        return None
    scorer = _make_scorer(args.scorer, tokenizer)
    side = {
        "seed": args.seed,
        "before": {"documents": len(before), "tokens": before.total_tokens},
        "after": {"documents": len(after), "tokens": after.total_tokens},
    }
    try:
        for key, corpus in (("before", before), ("after", after)):
            try:
                side[key]["dr"] = diversity.diversity_score(corpus)
            except DiversityError:
                side[key]["dr"] = None
            side[key]["syntheticity"] = None
            if scorer is not None and corpus.total_tokens > 0:
                side[key]["syntheticity"] = score_corpus(scorer, corpus, seed=args.seed).s
    finally:
        _close_scorer(scorer)
    side.update(extra)
    return side


def _write_outputs(args, tokenizer: Tokenizer, before: Corpus, after: Corpus, **extra) -> None:
    """Write ``after`` to ``--out``, then the sidecar. The sidecar is
    computed first, so a command whose sidecar fails writes neither file."""
    side = _sidecar(args, tokenizer, before, after, **extra)
    write_jsonl(after, args.out)
    if side is not None:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(side, fh, indent=2)
            fh.write("\n")


def cmd_select(args) -> int:
    tokenizer = Tokenizer.from_spec(args.tokenizer)
    raw = load_jsonl(args.input, tokenizer)
    target = load_jsonl(args.target, tokenizer)
    weights = refine.importance_weights(raw, target)
    selected, warnings = refine.select_by_weight(
        raw, weights, args.budget_tokens, mode=args.mode, seed=args.seed
    )
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _write_outputs(args, tokenizer, raw, selected, budget_tokens=args.budget_tokens, mode=args.mode)
    return 0


def cmd_dedup(args) -> int:
    tokenizer = Tokenizer.from_spec(args.tokenizer)
    corpus = load_jsonl(args.input, tokenizer)
    if args.mode == "exact":
        deduped = refine.dedup_exact(corpus)
    else:
        deduped = refine.dedup_near(corpus, seed=args.seed)
    _write_outputs(args, tokenizer, corpus, deduped, mode=args.mode)
    return 0


def cmd_report(args) -> int:
    paths = report_mod.write_report(_read_json(args.fit_report), args.out_dir)
    for path in paths:
        sys.stdout.write(path + "\n")
    return 0


def _seed(text: str) -> int:
    """``--seed``: an integer in [0, 2**64), the range numpy's generators
    and the 8-byte MinHash key both take."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtokens",
        description="Corpus quality metrics and the effective-token scaling law.",
    )
    parser.add_argument("--seed", type=_seed, default=42, help="global random seed")
    parser.add_argument(
        "--tokenizer",
        default="whitespace",
        help="whitespace | byte | vocab:<path>",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The syntheticity scorer: score's S columns, select's and dedup's sidecar.
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--scorer", default=None,
                         help=f"none | kgram:<ref.jsonl> | external:<target> "
                              f"(default from ${SCORER_ENV} if set)")

    p = sub.add_parser("score", parents=[scoring],
                       help="diversity/syntheticity metrics per corpus")
    p.add_argument("inputs", nargs="+", help="JSONL corpus files")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("fit", help="estimate scaling-law constants")
    data = p.add_mutually_exclusive_group(required=True)
    data.add_argument("--experiments", help="experiments CSV path")
    data.add_argument("--fixture", action="store_true", help="use the embedded dataset")
    p.add_argument("--quality", help="separate quality CSV (label, pct, dr, s); "
                                     "needs --experiments")
    p.add_argument("--form", default="F1", choices=["F1", "F2", "F3", "F4"])
    p.add_argument("--init", help="initial constants: preset name or JSON path")
    p.add_argument("--restarts", type=int, default=0,
                   help="extra fits from perturbed initial guesses; best SSE wins")
    p.add_argument("--bootstrap-n", type=int, default=0)
    p.add_argument("--out", help="write report JSON here instead of stdout")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict accuracy and effective tokens")
    p.add_argument("--constants", required=True, help="preset name or JSON path")
    p.add_argument("--n-millions", type=float, required=True)
    p.add_argument("--d-tokens", type=float, required=True)
    p.add_argument("--dr", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("invert", help="effective tokens needed for a target score")
    p.add_argument("--constants", required=True)
    p.add_argument("--n-millions", type=float, required=True)
    p.add_argument("--loss", type=float, required=True, help="unclamped model score")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("select", parents=[scoring],
                       help="importance-sampling coreset selection")
    p.add_argument("input", help="raw corpus JSONL")
    p.add_argument("--target", required=True, help="target corpus JSONL")
    p.add_argument("--budget-tokens", type=int, required=True)
    p.add_argument("--mode", default="topk", choices=["topk", "gumbel-sample"])
    p.add_argument("--out", required=True, help="selected corpus JSONL")
    p.add_argument("--report", help="sidecar JSON with before/after stats")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("dedup", parents=[scoring], help="remove exact or near duplicates")
    p.add_argument("input", help="corpus JSONL")
    p.add_argument("--mode", default="exact", choices=["exact", "near"])
    p.add_argument("--out", required=True, help="deduplicated corpus JSONL")
    p.add_argument("--report", help="sidecar JSON with before/after stats")
    p.set_defaults(func=cmd_dedup)

    p = sub.add_parser("report", help="render SVG/CSV report files for a fit")
    p.add_argument("--fit-report", required=True, help="fit report JSON path")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QTokensError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
