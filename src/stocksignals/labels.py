"""Buy/Hold/Sell label type and the shared tie rule."""

from __future__ import annotations

from enum import IntEnum
from typing import Sequence

import numpy as np


class Label(IntEnum):
    """Class labels, ordered Sell < Hold < Buy."""

    SELL = 0
    HOLD = 1
    BUY = 2


def majority_label(counts: Sequence[int]) -> Label:
    """Majority class of per-label counts (index = label value).

    Any tie resolves to Hold, the action that leaves a trading position
    unchanged.
    """
    best = max(counts)
    winners = [i for i, c in enumerate(counts) if c == best]
    if len(winners) != 1:
        return Label.HOLD
    return Label(winners[0])


def majority_labels(votes: np.ndarray) -> np.ndarray:
    """`majority_label` of each row of an (m, 3) count matrix, as label values.

    Kept beside the scalar form, which tree growth calls once per leaf, where
    a numpy call would cost more than the vote it counts.
    """
    winners = votes == votes.max(axis=1, keepdims=True)
    return np.where(winners.sum(axis=1) == 1, winners.argmax(axis=1), Label.HOLD)
