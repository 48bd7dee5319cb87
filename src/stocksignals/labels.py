"""Buy/Hold/Sell label type and the shared tie rule."""

from __future__ import annotations

from enum import IntEnum

import numpy as np


class Label(IntEnum):
    """Class labels, ordered Sell < Hold < Buy."""

    SELL = 0
    HOLD = 1
    BUY = 2


def majority_labels(votes: np.ndarray) -> np.ndarray:
    """Majority class of each row of an (m, 3) count matrix (column = label
    value), as label values.

    Any tie resolves to Hold, the action that leaves a trading position
    unchanged.
    """
    winners = votes == votes.max(axis=1, keepdims=True)
    return np.where(winners.sum(axis=1) == 1, winners.argmax(axis=1), Label.HOLD)
