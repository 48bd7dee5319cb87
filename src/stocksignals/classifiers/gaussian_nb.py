"""Gaussian naive Bayes with population variances and variance smoothing.

`gaussian_nb_labels` scores a whole probe matrix at once: the log densities
form an (m, c, d) block that is summed over its last axis, the same pairwise
sum over one probe's (c, d) densities as a one-probe-at-a-time score, so
the scores are bit-identical to it. Each probe takes the class of its single
largest score; an exact tie, or a NaN score, resolves to Hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from stocksignals.classifiers.tree import as_training_arrays
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
    X_arr, y_arr = as_training_arrays(X, y)
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


def class_log_scores(model: GaussianNbModel, X: np.ndarray) -> np.ndarray:
    """(m, c) log prior + sum of log Gaussian densities, one row per probe."""
    log_density = -0.5 * (
        np.log(2.0 * math.pi * model.variances)
        + (X[:, None, :] - model.means) ** 2 / model.variances
    )
    return np.log(model.priors) + log_density.sum(axis=-1)


def gaussian_nb_labels(model: GaussianNbModel, X: np.ndarray) -> np.ndarray:
    """Label value of each row of X: the argmax class, or Hold on an exact tie."""
    scores = class_log_scores(model, X)
    winners = scores == scores.max(axis=1, keepdims=True)
    classes = np.asarray(model.classes)
    return np.where(winners.sum(axis=1) == 1, classes[winners.argmax(axis=1)], Label.HOLD)
