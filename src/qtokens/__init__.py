"""Corpus quality metrics, effective training tokens, and the revised
accuracy scaling law.

The package measures two corpus quality signals (diversity as inverse
compression ratio, syntheticity as inverse teacher perplexity), converts
raw token counts into quality-adjusted effective tokens, fits the
seven-constant accuracy scaling law to observed training runs, and
provides importance-sampling selection and deduplication for refining
corpora.
"""

from .corpus import Corpus, Document, Tokenizer, load_jsonl, sample_fraction, write_jsonl
from .diversity import (
    DiversityReport,
    compression_ratio,
    diversity_score,
    score_corpus_diversity,
)
from .errors import QTokensError
from .fitting import (
    ExperimentPoint,
    FitReport,
    bootstrap_se,
    experiment_points,
    fit_constants,
    pearson,
    r_squared,
)
from .refine import (
    dedup_exact,
    dedup_near,
    importance_weights,
    select_by_weight,
)
from .scaling_law import (
    PRESETS,
    QualityInputs,
    ScalingConstants,
    clamp_unit,
    default_initial_guess,
    effective_tokens,
    invert_effective_tokens,
    predict_accuracy,
    scaling_factor_q,
)
from .syntheticity import (
    KgramScorer,
    SyntheticityResult,
    external_scorer_connect,
    score_corpus,
    train_kgram_scorer,
)

__version__ = "0.1.0"
