"""Corpus quality metrics, effective training tokens, and the revised
accuracy scaling law.

The package measures two corpus quality signals (diversity as inverse
compression ratio, syntheticity as inverse teacher perplexity), converts
raw token counts into quality-adjusted effective tokens, fits the
seven-constant accuracy scaling law to observed training runs, and
provides importance-sampling selection and deduplication for refining
corpora.

Importing the package loads none of its modules: each public name below is
imported from its module on first use (PEP 562), so ``qtokens.predict_accuracy``
costs only the scalar law, which needs no numpy.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_MODULE_OF = {
    name: module
    for module, names in {
        "corpus": ("Corpus", "Document", "Tokenizer", "load_jsonl", "sample_fraction",
                   "write_jsonl"),
        "diversity": ("DiversityReport", "compression_ratio", "diversity_score",
                      "score_corpus_diversity"),
        "errors": ("QTokensError",),
        "fitting": ("ExperimentPoint", "FitReport", "bootstrap_se", "experiment_points",
                    "fit_constants", "pearson", "r_squared"),
        "refine": ("dedup_exact", "dedup_near", "importance_weights", "select_by_weight"),
        "scaling_law": ("PRESETS", "QualityInputs", "ScalingConstants", "clamp_unit",
                        "default_initial_guess", "effective_tokens", "invert_effective_tokens",
                        "predict_accuracy", "scaling_factor_q"),
        "syntheticity": ("KgramScorer", "SyntheticityResult", "external_scorer_connect",
                         "score_corpus", "train_kgram_scorer"),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
