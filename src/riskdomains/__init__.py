"""Risk factor domain extraction for psychiatric narrative text.

Weakly supervised multilabel topic extraction over clinical paragraphs:
lexicon-driven weak labeling with multiword-expression fusion, a stemmed
1-3-gram TF-IDF vector space reduced by truncated SVD, three classifier
heads (cosine megadocument baseline, MLP, RBF network), per-domain
threshold calibration with open-world rejection to Other, multilabel
evaluation, and inter-annotator agreement tooling.

The package root exports the names a typical program needs; every other
name is imported from its module (riskdomains.corpus, .networks, ...).
"""

from .bundle import load_bundle, save_bundle
from .classify import classify_batch, classify_paragraph
from .corpus import default_synthetic_config, generate_synthetic_corpus
from .domains import Domain
from .errors import ConfigError, DataError, NumericalError, RiskDomainsError
from .pipeline import PipelineOptions, train_pipeline

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "Domain",
    "NumericalError",
    "PipelineOptions",
    "RiskDomainsError",
    "classify_batch",
    "classify_paragraph",
    "default_synthetic_config",
    "generate_synthetic_corpus",
    "load_bundle",
    "save_bundle",
    "train_pipeline",
]
