"""Detector names and thresholds.

Kept apart from the detectors themselves, which need numpy, so the CLI
can build its parser, check its options and run ingest without loading
numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

DETECTORS = ("hashtag", "retweet", "time")

# How duplicate_shares counts a repeated text: within one account or
# across the corpus.
DUPLICATE_SCOPES = ("account", "corpus")


@dataclass(frozen=True)
class DetectorConfig:
    """Tunable thresholds for the three detectors; an instance out of
    range cannot be built (ValueError)."""

    hashtag_k: int = 5
    retweet_top_frac: float = 0.005
    retweet_min: int = 10
    time_bin_minutes: int = 30
    time_threshold: float = 0.99
    time_min: int = 10

    def __post_init__(self) -> None:
        if self.hashtag_k < 2:
            raise ValueError("hashtag_k must be >= 2")
        if not 0.0 < self.retweet_top_frac < 1.0:
            raise ValueError("retweet_top_frac must be in (0, 1)")
        if not 0.0 < self.time_threshold <= 1.0:
            raise ValueError("time_threshold must be in (0, 1]")
        if self.retweet_min < 1 or self.time_min < 1:
            raise ValueError("eligibility minima must be >= 1")
        if self.time_bin_minutes < 1:
            raise ValueError("time_bin_minutes must be >= 1")
