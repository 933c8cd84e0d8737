"""Detector and report settings: each field's name, type, default and
range check, declared once.

Kept apart from the modules that compute, which need numpy, so the CLI
can build its parser, check its options and run ingest without loading
numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

DETECTORS = ("hashtag", "retweet", "time")

# How duplicate_shares counts a repeated text: within one account or
# across the corpus.
DUPLICATE_SCOPES = ("account", "corpus")


def detector_set(names) -> set[str]:
    """The set of names; ValueError naming each one that is not a detector."""
    unknown = set(names) - set(DETECTORS)
    if unknown:
        raise ValueError(f"unknown detectors: {sorted(unknown)}")
    return set(names)


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
        if self.time_bin_minutes * 60 >= 2**63:
            # the detector divides int64 timestamps by the width in seconds
            raise ValueError(f"time_bin_minutes must be <= {(2**63 - 1) // 60}")


@dataclass(frozen=True)
class ReportConfig:
    """Settings of the report bundle; an instance out of range cannot be
    built (ValueError). Story hashtags are kept lowercased, without a
    leading "#", distinct and non-empty, in sorted order."""

    story_hashtags: tuple[str, ...] = ()
    duplicate_scope: str = "account"
    binarize_threshold: float = 0.5
    top_clusters: int = 5

    def __post_init__(self) -> None:
        tags = tuple(sorted({t.lower().lstrip("#") for t in self.story_hashtags} - {""}))
        object.__setattr__(self, "story_hashtags", tags)
        if self.top_clusters < 0:
            raise ValueError(f"--top-clusters must be at least 0, got {self.top_clusters}")
        if self.duplicate_scope not in DUPLICATE_SCOPES:
            scopes = ", ".join(DUPLICATE_SCOPES)
            raise ValueError(
                f"duplicate_scope must be one of {scopes}, got {self.duplicate_scope!r}"
            )
        check_threshold(self.binarize_threshold)


def check_threshold(threshold: float) -> None:
    """ValueError unless 0 < threshold < 1 (nan is outside)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"binarize threshold must be in (0, 1), got {threshold!r}")
