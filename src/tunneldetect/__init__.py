"""Lexicographical DNS tunneling detection with a character-level 1D-CNN.

Typical flow: generate (or load) a labeled corpus, train, evaluate at a
decision threshold, then score real names or resolver logs. The `cli`
module exposes the same pipeline as a command-line tool.
"""

__version__ = "0.1.0"

from .datagen import (
    CorpusSpec,
    DomainSample,
    build_corpus,
    desk_scale_spec,
    read_corpus,
    write_corpus,
)
from .evaluation import (
    MetricsReport,
    compute_metrics,
    export_scatter,
    per_tool_breakdown,
    predict_samples,
    score,
)
from .model_store import load, save
from .network import (
    DEFAULT_HYPERPARAMS,
    Hyperparams,
    ModelParams,
    count_parameters,
    init_params,
)
from .tokenizer import Vocabulary, encode_batch
from .training import (
    TrainConfig,
    default_grid,
    grid_search,
    kfold_cross_validate,
    stratified_folds,
    train,
)
