"""tally: how often does a concept actually occur in a caption corpus?

Estimate per-concept caption frequency in large image-text corpora
(synonym expansion → multi-pattern string matching → relevance judging),
analyze the resulting long tail against per-class accuracy, and exploit
the counts: swap each class name for its most frequent synonym when
building a zero-shot classifier, and train a balanced retrieval-augmented
linear probe whose weights are summed with the zero-shot matrix.
"""

from .analytics import (
    AccuracyTable,
    FrequencyTable,
    correlate,
    head_tail_split,
    log_bins,
    mean_per_class_accuracy,
    sort_by_frequency,
)
from .corpus import (
    CaptionRecord,
    CorpusShard,
    iter_shard,
    normalize_text,
    open_corpus,
    shard_corpus,
)
from .embeddings import (
    EmbeddingMatrix,
    average_normalized,
    cosine,
    load_embeddings,
    save_embeddings,
)
from .judge import (
    HttpJudge,
    JudgeVerdict,
    RuleStubJudge,
    ValidationSet,
    VerdictCache,
    definition_precision,
    filtered_frequency,
    judge_hits,
)
from .lexicon import (
    Concept,
    ConceptSet,
    FixtureSynonymProvider,
    HttpSynonymProvider,
    SynonymCache,
    SynonymSet,
    expand_synonyms,
    filter_synonyms,
)
from . import matcher
from .matcher import MatchHit, PatternAutomaton, caption_hits, count_captions, scan, scan_shards
from .realprompt import (
    ClassifierWeights,
    PromptTemplateSet,
    build_prompts,
    build_zeroshot,
    classify_batch,
    most_frequent_synonym,
)
from .reallinear import (
    RetrievalSet,
    TrainConfig,
    concept_queries,
    ensemble,
    evaluate,
    retrieve_balanced,
    train_crossmodal,
)

__version__ = "0.1.0"

# matcher.compile would shadow the builtin if imported by name.
compile_patterns = matcher.compile
