"""Normalized entropy, the quality metric shared by the ranker's
evaluator and the analyses, and ``logistic``, the one overflow-free
logistic that the engine's ``tensor.sigmoid`` and ``tensor.bce_with_logits``
and the simulator's label oracle ``corpus.ground_truth_ctr`` all call."""

from __future__ import annotations

import math

import numpy as np


# predictions are clipped to [PREDICTION_CLIP, 1 - PREDICTION_CLIP], so
# the log loss stays finite on a saturated prediction
PREDICTION_CLIP = 1e-7


def logistic(x) -> np.ndarray:
    """1 / (1 + e^-x) elementwise, branching on sign so exp never
    overflows; |x| > 30 saturates cleanly."""
    x = np.asarray(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class SingleClassError(ValueError):
    """NE is undefined when every label is identical (denominator 0)."""


def normalized_entropy(labels, predictions) -> float:
    """Model cross-entropy over the cross-entropy of the base-rate
    predictor; 1.0 means no lift over predicting the mean."""
    y = np.asarray(labels, dtype=np.float64)
    p = np.clip(np.asarray(predictions, dtype=np.float64), PREDICTION_CLIP, 1.0 - PREDICTION_CLIP)
    if y.size == 0:
        raise SingleClassError("empty stream")
    base = y.mean()
    if base <= 0.0 or base >= 1.0:
        raise SingleClassError(f"single-class stream (positive rate {base})")
    model_ce = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean()
    base_ce = -(base * math.log(base) + (1.0 - base) * math.log(1.0 - base))
    return float(model_ce / base_ce)
