"""Gaussian naive Bayes with population variances and variance smoothing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from stocksignals.errors import DimensionMismatch, EmptyTraining
from stocksignals.labels import Label

VAR_SMOOTHING = 1e-9
# Floor applied only when every feature is constant overall, so smoothed
# variances stay strictly positive.
VAR_FLOOR = 1e-12


@dataclass
class GaussianNbModel:
    classes: tuple[int, ...]
    priors: np.ndarray          # shape (c,)
    means: np.ndarray           # shape (c, d)
    variances: np.ndarray       # shape (c, d), smoothed, all > 0
    epsilon: float

    @property
    def n_features(self) -> int:
        return self.means.shape[1]


def fit_gaussian_nb(X, y) -> GaussianNbModel:
    """Class priors from frequencies; per-class feature means and 1/n variances.

    Variances are smoothed by epsilon = 1e-9 * max over features of the
    overall (population) variance, keeping densities finite for features
    that are constant within a class.
    """
    X_arr = np.asarray(X, dtype=float)
    y_arr = np.asarray(y, dtype=np.int64)
    if len(X_arr) == 0:
        raise EmptyTraining("no training rows")
    if len(X_arr) != len(y_arr):
        raise DimensionMismatch(f"{len(X_arr)} feature rows vs {len(y_arr)} labels")
    classes = tuple(sorted(int(c) for c in np.unique(y_arr)))
    n = len(y_arr)
    epsilon = VAR_SMOOTHING * float(X_arr.var(axis=0).max())
    if epsilon == 0.0:
        epsilon = VAR_FLOOR
    priors = np.empty(len(classes))
    means = np.empty((len(classes), X_arr.shape[1]))
    variances = np.empty_like(means)
    for i, cls in enumerate(classes):
        rows = X_arr[y_arr == cls]
        priors[i] = len(rows) / n
        means[i] = rows.mean(axis=0)
        variances[i] = rows.var(axis=0) + epsilon
    return GaussianNbModel(
        classes=classes, priors=priors, means=means, variances=variances,
        epsilon=epsilon,
    )


def class_log_scores(model: GaussianNbModel, x: Sequence[float]) -> np.ndarray:
    """log prior + sum of log Gaussian densities, one entry per class."""
    probe = np.asarray(x, dtype=float)
    if probe.shape != (model.n_features,):
        raise DimensionMismatch(
            f"input has {probe.size} features, model expects {model.n_features}"
        )
    log_density = -0.5 * (
        np.log(2.0 * math.pi * model.variances)
        + (probe - model.means) ** 2 / model.variances
    )
    return np.log(model.priors) + log_density.sum(axis=1)


def predict_gaussian_nb(model: GaussianNbModel, x: Sequence[float]) -> Label:
    """Argmax of the class log scores; exact ties resolve to Hold."""
    scores = class_log_scores(model, x)
    best = scores.max()
    winners = np.nonzero(scores == best)[0]
    if len(winners) != 1:
        return Label.HOLD
    return Label(model.classes[int(winners[0])])
