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


def fit_gaussian_nb(X: np.ndarray, y: np.ndarray) -> GaussianNbModel:
    """Class priors from frequencies; per-class feature means and 1/n variances,
    from validated training rows and their labels.

    Variances are smoothed by epsilon = 1e-9 * max over features of the
    overall (population) variance, keeping densities finite for features
    that are constant within a class.
    """
    classes = tuple(sorted(int(c) for c in np.unique(y)))
    n = len(y)
    epsilon = VAR_SMOOTHING * float(X.var(axis=0).max())
    if epsilon == 0.0:
        epsilon = VAR_FLOOR
    priors = np.empty(len(classes))
    means = np.empty((len(classes), X.shape[1]))
    variances = np.empty_like(means)
    for i, cls in enumerate(classes):
        rows = X[y == cls]
        priors[i] = len(rows) / n
        means[i] = rows.mean(axis=0)
        variances[i] = rows.var(axis=0) + epsilon
    return GaussianNbModel(
        classes=classes, priors=priors, means=means, variances=variances,
        epsilon=epsilon,
    )


def check_gaussian_nb(model: GaussianNbModel) -> None:
    """Raise ValueError unless a loaded model holds c ascending distinct
    classes in 0..2, c positive priors and (c, d) means and positive
    variances, all finite floats, and a finite positive epsilon."""
    c = len(model.classes)
    arrays = (model.priors, model.means, model.variances)
    if not (
        all(type(label) is int and 0 <= label <= 2 for label in model.classes)
        and list(model.classes) == sorted(set(model.classes))
        and c > 0
        and model.means.ndim == 2
        and model.priors.shape == (c,)
        and model.means.shape == model.variances.shape == (c, model.means.shape[1])
        and all(array.dtype.kind == "f" and np.isfinite(array).all() for array in arrays)
        and (model.priors > 0).all()
        and (model.variances > 0).all()
        and type(model.epsilon) is float
        and 0 < model.epsilon < math.inf
    ):
        raise ValueError(
            "a naive Bayes model needs ascending classes in 0..2 with finite positive priors, "
            "finite means and finite positive variances, and a finite positive epsilon"
        )


def class_log_scores(model: GaussianNbModel, X: np.ndarray) -> np.ndarray:
    """(m, c) log prior + sum of log Gaussian densities, one row per probe.

    A probe too large to square scores -inf, without a numpy warning.
    """
    with np.errstate(over="ignore"):
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
