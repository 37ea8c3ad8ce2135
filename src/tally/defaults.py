"""Defaults the `tally` parser shares with the modules that compute.

They live here, not in `reallinear`, so that building the parser imports
no numpy.
"""

DEFAULT_K = 500  # captions retrieved per concept
TRAIN_MODES = ("cross_modal", "image_only")
