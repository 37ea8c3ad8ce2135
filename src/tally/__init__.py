"""tally: how often does a concept actually occur in a caption corpus?

Estimate per-concept caption frequency in large image-text corpora
(synonym expansion → multi-pattern string matching → relevance judging),
analyze the resulting long tail against per-class accuracy, and exploit
the counts: swap each class name for its most frequent synonym when
building a zero-shot classifier, and train a balanced retrieval-augmented
linear probe whose weights are summed with the zero-shot matrix.
"""
