"""Independent brute-force oracles used to cross-check the implementation.

Everything here is deliberately written the slow, obvious way (explicit
loops, boolean masks, per-candidate recounts, one feature or column at a
time) and shares no code with the package under test. The `reference_*`
functions are the package's former implementations, kept as bit-for-bit
references for the faster code that replaced them; the one exception,
`reference_evaluate_per_horizon`, builds on the package's own fit and metric
code, because what it checks is only how the work is shared across horizons.
"""

import math
from decimal import Decimal

import numpy as np


# --- labeling ----------------------------------------------------------------

def brute_force_labels(closes, horizons, up=1.01, down=0.99):
    """Per-day label list: 2 buy, 0 sell, 1 hold, None past the series end."""
    n = len(closes)
    table = []
    for i in range(n):
        row = []
        for h in horizons:
            j = i + h
            if j >= n:
                row.append(None)
            elif closes[j] >= up * closes[i]:
                row.append(2)
            elif closes[j] <= down * closes[i]:
                row.append(0)
            else:
                row.append(1)
        table.append(row)
    return table


# --- split search --------------------------------------------------------------

def gini_impurity(class_counts):
    """1 - sum(p_c^2) over the class proportions."""
    total = sum(class_counts)
    if total == 0:
        raise ValueError("impurity of an empty node is undefined")
    acc = 0.0
    for count in class_counts:
        p = count / total
        acc += p * p
    return 1.0 - acc


def entropy_impurity(class_counts):
    """-sum(p_c * log2 p_c), with 0 * log 0 taken as 0."""
    total = sum(class_counts)
    if total == 0:
        raise ValueError("impurity of an empty node is undefined")
    acc = 0.0
    for count in class_counts:
        if count:
            p = count / total
            acc -= p * math.log2(p)
    return acc


def _impurity(counts, criterion):
    return gini_impurity(counts) if criterion == "gini" else entropy_impurity(counts)


def brute_force_best_split(X, y, criterion):
    """Exhaustive search over every (feature, midpoint) candidate.

    Returns (feature, threshold, gain) for the positive-gain maximum, ties
    broken by lower feature then lower threshold, or None.
    """
    n = len(y)
    parent_counts = [0, 0, 0]
    for label in y:
        parent_counts[int(label)] += 1
    parent = _impurity(parent_counts, criterion)
    best = None
    n_features = len(X[0])
    for f in range(n_features):
        values = sorted({float(row[f]) for row in X})
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            left = [0, 0, 0]
            right = [0, 0, 0]
            for row, label in zip(X, y):
                if row[f] <= threshold:
                    left[int(label)] += 1
                else:
                    right[int(label)] += 1
            nl, nr = sum(left), sum(right)
            weighted = (nl * _impurity(left, criterion) + nr * _impurity(right, criterion)) / n
            gain = parent - weighted
            if gain > 0.0 and (best is None or gain > best[2]):
                best = (f, threshold, gain)
    return best


def _reference_impurity_rows(counts, sizes, criterion):
    p = counts / sizes[:, None]
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=1)
    logp = np.zeros_like(p)
    mask = p > 0
    logp[mask] = np.log2(p[mask])
    return -(p * logp).sum(axis=1)


def reference_best_split(X, y, criterion, candidate_features):
    """One feature at a time: (feature, threshold, gain) or None.

    The per-feature search the package used before it searched all
    candidates of a node at once. Its floats come from the same elementwise
    operations and 3-wide row sums, so gains must match bit for bit. Per
    feature the first maximum (lowest threshold) wins; across features a
    later one must beat the best gain strictly.
    """
    n = len(y)
    parent_counts = np.bincount(y, minlength=3).astype(float)
    parent = float(
        _reference_impurity_rows(parent_counts[None, :], np.array([float(n)]), criterion)[0]
    )
    best = None
    for feature in sorted(candidate_features):
        values = X[:, feature]
        order = np.argsort(values, kind="stable")
        ordered = values[order]
        boundaries = np.nonzero(ordered[1:] > ordered[:-1])[0] + 1
        if boundaries.size == 0:
            continue
        onehot = np.zeros((n, 3))
        onehot[np.arange(n), y[order]] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        left = prefix[boundaries - 1]
        right = parent_counts - left
        n_left = boundaries.astype(float)
        n_right = n - n_left
        weighted = (
            n_left * _reference_impurity_rows(left, n_left, criterion)
            + n_right * _reference_impurity_rows(right, n_right, criterion)
        ) / n
        gains = parent - weighted
        k = int(np.argmax(gains))
        gain = float(gains[k])
        if gain > 0.0 and (best is None or gain > best[2]):
            cut = boundaries[k]
            best = (feature, float((ordered[cut - 1] + ordered[cut]) / 2.0), gain)
    return best


# --- standardization ---------------------------------------------------------------

def reference_scaler(rows):
    """Per-column (means, stds) with the mean and the n-1 variance summed in row order.

    A constant column keeps its value as the mean and gets std 0. The sums
    are explicit loops: builtin sum() compensates rounding from Python 3.12
    on, which would make the reference depend on the interpreter.
    """
    n = len(rows)
    means, stds = [], []
    for j in range(len(rows[0])):
        column = [row[j] for row in rows]
        lo, hi = min(column), max(column)
        if lo == hi:
            means.append(lo)
            stds.append(0.0)
            continue
        acc = 0.0
        for x in column:
            acc += x
        mean = acc / n
        acc = 0.0
        for x in column:
            d = x - mean
            acc += d * d
        means.append(mean)
        stds.append(math.sqrt(acc / (n - 1)))
    return means, stds


def reference_standardize(means, stds, rows):
    """(x - mean) / std per cell; a zero-std column maps to 0."""
    return [
        [(x - m) / s if s else 0.0 for x, m, s in zip(row, means, stds)]
        for row in rows
    ]


# --- gaussian density ------------------------------------------------------------

def gaussian_log_posterior(prior, means, variances, x):
    """Log prior plus independent Gaussian log densities, the slow way."""
    acc = math.log(prior)
    for value, mu, var in zip(x, means, variances):
        acc += -0.5 * math.log(2.0 * math.pi * var) - (value - mu) ** 2 / (2.0 * var)
    return acc


# --- prediction, one row at a time -----------------------------------------------

def _reference_majority(votes):
    """Index of the single largest count; any tie is Hold (1)."""
    best = max(votes)
    winners = [i for i, count in enumerate(votes) if count == best]
    return winners[0] if len(winners) == 1 else 1


def reference_knn_predict(train_X, train_y, x, k):
    """Vote of the k nearest training rows by squared Euclidean distance.

    The package's former per-row kNN: a stable argsort of the distances, so
    equal distances keep the lower training index and NaN distances come
    after every number, lowest index first.
    """
    squared = ((np.asarray(train_X, dtype=float) - np.asarray(x, dtype=float)) ** 2).sum(axis=1)
    votes = [0, 0, 0]
    for i in np.argsort(squared, kind="stable")[:k]:
        votes[int(train_y[i])] += 1
    return _reference_majority(votes)


def reference_predict_tree(tree, x):
    """Walk from the root: x[feature] <= threshold goes left."""
    node = tree.root
    while hasattr(node, "threshold"):
        node = node.left if x[node.feature] <= node.threshold else node.right
    return int(node.label)


def reference_predict_forest(forest, x):
    """Majority of the trees' labels; ties are Hold."""
    votes = [0, 0, 0]
    for tree in forest.trees:
        votes[reference_predict_tree(tree, x)] += 1
    return _reference_majority(votes)


def reference_class_log_scores(model, x):
    """log prior + the (c, d) log densities summed per class, for one probe."""
    log_density = -0.5 * (
        np.log(2.0 * math.pi * model.variances)
        + (np.asarray(x, dtype=float) - model.means) ** 2 / model.variances
    )
    return np.log(model.priors) + log_density.sum(axis=1)


def reference_predict_gaussian_nb(model, x):
    """Class of the single largest log score; an exact tie (or NaN) is Hold."""
    scores = reference_class_log_scores(model, x)
    winners = np.nonzero(scores == scores.max())[0]
    return model.classes[int(winners[0])] if len(winners) == 1 else 1


# --- evaluation -------------------------------------------------------------------

def reference_evaluate_per_horizon(spec, split, sector=None):
    """The package's former evaluation loop: one fitted bundle per evaluable
    horizon, predicting that horizon's labeled test rows."""
    from stocksignals.classifiers import fit_bundles, predict_batch
    from stocksignals.errors import NoEvaluableHorizon
    from stocksignals.evaluation import (
        EvaluationReport,
        HorizonReport,
        class_metrics,
        confusion_matrix,
        micro_f1,
    )
    from stocksignals.labels import Label
    from stocksignals.transform import standardize_apply

    train, test = split.train, split.test
    evaluable, omitted = [], []
    for horizon in train.horizons:
        if (train.labels(horizon) >= 0).any() and (test.labels(horizon) >= 0).any():
            evaluable.append(horizon)
        else:
            omitted.append(horizon)
    if not evaluable:
        raise NoEvaluableHorizon("no horizon had labeled train and test rows")
    X_test = standardize_apply(split.scaler, test.X)
    reports = []
    for bundle in fit_bundles(spec, split, evaluable):
        y_true = test.labels(bundle.horizon)
        labeled = y_true >= 0
        cm = confusion_matrix(y_true[labeled].tolist(), predict_batch(bundle.model, X_test[labeled]))
        reports.append(
            HorizonReport(
                horizon=bundle.horizon,
                sell=class_metrics(cm, Label.SELL),
                hold=class_metrics(cm, Label.HOLD),
                buy=class_metrics(cm, Label.BUY),
                micro_f1=micro_f1(cm),
                confusion=cm,
                n_test=cm.total,
            )
        )
    return EvaluationReport(
        spec=spec,
        seed=spec.seed,
        horizons=tuple(reports),
        sector=sector,
        omitted_horizons=tuple(omitted),
    )


# --- backtest ---------------------------------------------------------------------

def simulate_backtest(closes, signals, fee="0.01", tp="0.01", sl="0.01", liquidate=True):
    """Straight-line hand-rule simulator.

    closes: list of (date, price); signals: list of (date, label int).
    Returns a list of trade tuples
    (open_date, close_date, side, entry, exit, reason, pnl) with Decimals.
    """
    fee = Decimal(fee)
    tp = Decimal(tp)
    sl = Decimal(sl)
    one = Decimal(1)
    side = None  # "long" / "short"
    entry = None
    entry_date = None
    trades = []

    def close_position(price, date, reason):
        nonlocal side, entry, entry_date
        if side == "long":
            pnl = price - entry - 2 * fee
        else:
            pnl = entry - price - 2 * fee
        trades.append((entry_date, date, side, entry, price, reason, pnl))
        side, entry, entry_date = None, None, None

    for (date, raw_price), (_, signal) in zip(closes, signals):
        price = Decimal(str(raw_price)).quantize(Decimal("0.0001"))
        if side == "long":
            if price >= entry * (one + tp):
                close_position(price, date, "take_profit")
            elif price <= entry * (one - sl):
                close_position(price, date, "stop_loss")
        elif side == "short":
            if price <= entry * (one - tp):
                close_position(price, date, "take_profit")
            elif price >= entry * (one + sl):
                close_position(price, date, "stop_loss")
        if signal == 2:  # buy
            if side is None:
                side, entry, entry_date = "long", price, date
            elif side == "short":
                close_position(price, date, "signal_reversal")
                side, entry, entry_date = "long", price, date
        elif signal == 0:  # sell
            if side is None:
                side, entry, entry_date = "short", price, date
            elif side == "long":
                close_position(price, date, "signal_reversal")
                side, entry, entry_date = "short", price, date
    if liquidate and side is not None:
        date, raw_price = closes[-1]
        close_position(Decimal(str(raw_price)).quantize(Decimal("0.0001")), date, "end_of_data")
    return trades
