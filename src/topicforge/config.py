"""The configuration's types and checks, importable without numpy.

``pipeline.load_context`` checks a whole config before any stage runs, and
the ``dedup`` stage applies ``dedup.threshold`` to the best match that
``cluster`` stored in each representative's row. Neither needs numpy or the
stage modules, so everything they use lives here: the model and training
configs, each section's range checks, the one rule that turns a best
similarity into a dedup verdict, and the program's two exception classes,
one per non-zero exit code of the CLI. The modules that use these names
re-export them (``model.ModelConfig``, ``dedup.DEFAULT_THRESHOLD``,
``topicpage.check_quota``, ``pipeline.PipelineError``, ...).
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import asdict, dataclass

# the largest float32: both trainings multiply the learning rate into
# float32 arrays (``train.TRAIN_DTYPE``), where a larger one is inf
FLOAT32_MAX = 3.4028234663852886e+38

DEFAULT_THRESHOLD = 0.86  # dedup's: midpoint of the 0.85-0.88 similarity band
DEFAULT_ITEMS_PER_PAGE = 24


class ConfigError(Exception):
    """Bad or missing configuration; exit code 2."""


class PipelineError(Exception):
    """Fatal runtime failure such as a missing artifact; exit code 1."""


@dataclass
class ModelConfig:
    vocab_size: int
    seq_len: int = 16
    model_dim: int = 32
    num_layers: int = 2
    num_heads: int = 2
    ffn_dim: int = 64
    output_dim: int = 32
    num_classes: int = 0
    negative_loss: str = "literal"  # or "complement"

    def __post_init__(self):
        for name in ("vocab_size", "model_dim", "num_layers", "num_heads",
                     "ffn_dim", "output_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # tokenizer.token_ids refuses a shorter sequence
        if self.seq_len < 2:
            raise ValueError("seq_len must be >= 2")
        if self.model_dim % self.num_heads != 0:
            raise ValueError("model_dim must be divisible by num_heads")
        if self.negative_loss not in ("literal", "complement"):
            raise ValueError(f"unknown negative_loss mode {self.negative_loss!r}")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    eval_fraction: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be a finite number > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0.0 <= self.eval_fraction < 1.0:
            raise ValueError("eval_fraction must be in [0, 1)")


def parse_negative_ratio(negative_ratio: object) -> float | str:
    """``"auto"`` or a finite number >= 0; a numeric string counts as its number.

    Raises ValueError for anything else (booleans included).
    """
    if negative_ratio == "auto":
        return "auto"
    ratio = None
    if not isinstance(negative_ratio, bool):
        try:
            ratio = float(negative_ratio)
        except (TypeError, ValueError):
            pass
    if ratio is None or not math.isfinite(ratio) or ratio < 0:
        raise ValueError("negative_ratio must be 'auto' or a finite number "
                         f">= 0, got {negative_ratio!r}")
    return ratio


def check_cluster_threshold(threshold: float) -> None:
    """Raise ValueError unless ``threshold`` is a cosine distance in (0, 2)."""
    if not 0.0 < threshold < 2.0:
        raise ValueError("threshold must be in (0, 2)")


def check_dedup_threshold(threshold: float) -> None:
    """Raise ValueError unless ``threshold`` is a cosine similarity in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")


def dedup_verdict(best_similarity: float, threshold: float) -> str:
    """A candidate is a duplicate when its best similarity reaches the
    threshold, and kept otherwise."""
    return "duplicate" if best_similarity >= threshold else "kept"


def check_quota(quota: int) -> None:
    """Raise ValueError unless ``quota`` topics can be selected."""
    if quota < 0:
        raise ValueError("quota must be >= 0")


def check_items_per_page(items_per_page: int) -> None:
    """Raise ValueError unless a page can hold ``items_per_page`` items."""
    if items_per_page < 1:
        raise ValueError("items_per_page must be >= 1")


def check_window(n_days: int) -> None:
    """Raise ValueError unless an ``n_days`` window gives each arm of each
    period the 2 days its t-test needs."""
    if n_days < 8 or n_days % 4:
        raise ValueError(
            f"window length must be a multiple of 4, at least 8, got {n_days}")


def check_dates(start_date: str, n_days: int) -> None:
    """Raise ValueError unless ``start_date`` is an ISO date and an
    ``n_days`` window from it ends by ``date.max``, building no window."""
    room = dt.date.max - dt.date.fromisoformat(start_date)
    if n_days - 1 > room.days:
        raise ValueError(f"start_date must leave {n_days} days up to "
                         f"{dt.date.max}, got {start_date!r}")


def date_window(start_date: str, n_days: int) -> list[str]:
    """ISO dates from start_date, n_days long."""
    start = dt.date.fromisoformat(start_date)
    return [(start + dt.timedelta(days=i)).isoformat() for i in range(n_days)]


def check_traffic(base_mean: float, noise_sd: float,
                  lift_fraction: float) -> None:
    """Raise ValueError unless daily clicks can be drawn around ``base_mean``
    with standard deviation ``noise_sd``, and scaling them by ``1 +
    lift_fraction`` keeps them finite and at or above 0."""
    if not (math.isfinite(base_mean) and base_mean > 0):
        raise ValueError("base_mean must be > 0 and finite")
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ValueError("noise_sd must be >= 0 and finite")
    if not (math.isfinite(lift_fraction) and lift_fraction >= -1):
        raise ValueError("lift_fraction must be a finite number >= -1")
