"""Independent brute-force oracles used to cross-check the implementation.

Everything here is deliberately written the slow, obvious way (explicit
loops, boolean masks, per-candidate recounts, one feature or column at a
time) and shares no code with the package under test. The `reference_*`
functions are the package's former implementations, kept as bit-for-bit
references for the faster code that replaced them. Some exceptions build on
package code. The per-row ingest references read the input schema
(`RAW_COLUMNS` and friends), raise the package's error types and return its
`Dataset`, because what they check is the column layout that replaced them.
`reference_evaluate_per_horizon` uses the package's fit and metric code to
check the sharing across horizons, and the reference tree growers fill the
package's DecisionTree columns to check growing all trees of a split
together. `SplitMix64` is the scalar generator the package's vectorised
draws replaced.
"""

import csv
import datetime as dt
import io
import math
from collections import namedtuple
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


# --- ingest and assembly, one row at a time ------------------------------------

# One parsed CSV row: `values` holds the RAW_COLUMNS cells in order, an int in
# a count column, a float elsewhere, None when missing.
ReferenceRow = namedtuple("ReferenceRow", "date ticker sector values")


def _reference_numeric(cell, column, warnings):
    """Typed cell value, or None (counting a warning) when invalid."""
    from stocksignals.ingest import COUNT_COLUMNS

    text = cell.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        warnings[column] = warnings.get(column, 0) + 1
        return None
    if not math.isfinite(value):
        warnings[column] = warnings.get(column, 0) + 1
        return None
    if column in COUNT_COLUMNS:
        if value < 0 or value != int(value):
            warnings[column] = warnings.get(column, 0) + 1
            return None
        return int(value)
    if column == "PX_OFFICIAL_CLOSE" and value <= 0:
        warnings[column] = warnings.get(column, 0) + 1
        return None
    return value


def _reference_iso_date(text):
    """The date of a YYYY-MM-DD text, its form checked one character at a time."""
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise ValueError(text)
    if not all(text[i] in "0123456789" for i in (0, 1, 2, 3, 5, 6, 8, 9)):
        raise ValueError(text)
    return dt.date(int(text[:4]), int(text[5:7]), int(text[8:]))


def reference_parse_market_csv(data):
    """(rows, parse_warnings) of a market CSV's bytes, one ReferenceRow per data row."""
    from stocksignals.errors import DataError
    from stocksignals.ingest import CSV_COLUMNS, RAW_COLUMNS

    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8: {exc}") from None
    text = text.lstrip("\ufeff")
    if not text.strip():
        raise DataError("no header row")

    reader = csv.reader(io.StringIO(text))
    header = [name.strip() for name in next(reader)]
    positions = {}
    for i, name in enumerate(header):
        if name in positions and name in CSV_COLUMNS:
            raise DataError(f"duplicate column {name}")
        positions.setdefault(name, i)
    missing = [c for c in CSV_COLUMNS if c not in positions]
    if missing:
        raise DataError(", ".join(missing))

    warnings = {}
    rows = []
    for record in reader:
        if not record:
            continue  # blank line
        if len(record) != len(header):
            raise DataError(
                f"line {reader.line_num}: expected {len(header)} columns, "
                f"got {len(record)}"
            )
        date_text = record[positions["date"]].strip()
        if date_text:
            try:
                date = _reference_iso_date(date_text)
            except ValueError:
                raise DataError(
                    f"line {reader.line_num}: bad date {date_text!r}, "
                    "expected YYYY-MM-DD"
                ) from None
        else:
            date = None
        values = tuple(
            _reference_numeric(record[positions[col]], col, warnings) for col in RAW_COLUMNS
        )
        rows.append(
            ReferenceRow(
                date=date,
                ticker=record[positions["ticker"]].strip() or None,
                sector=record[positions["sector"]].strip(),
                values=values,
            )
        )
    return rows, warnings


def reference_validate_and_clean(rows):
    """(kept rows, dropped_by_column, rows_dropped, rec_count_violations).

    A row missing a raw value, its date or its ticker is dropped; a kept row
    whose buy + sell + hold (Python ints) exceeds the analyst total counts
    as a violation.
    """
    from stocksignals.errors import DataError
    from stocksignals.ingest import RAW_COLUMNS

    total, buy, sell, hold = (
        RAW_COLUMNS.index(c)
        for c in ("TOT_ANALYST_REC", "TOT_BUY_REC", "TOT_SELL_REC", "TOT_HOLD_REC")
    )
    kept = []
    dropped_by_column = {}
    dropped = 0
    violations = 0
    for row in rows:
        missing = [c for c, v in zip(RAW_COLUMNS, row.values) if v is None]
        if row.date is None:
            missing.append("date")
        if not row.ticker:
            missing.append("ticker")
        if missing:
            dropped += 1
            for col in missing:
                dropped_by_column[col] = dropped_by_column.get(col, 0) + 1
            continue
        if row.values[buy] + row.values[sell] + row.values[hold] > row.values[total]:
            violations += 1
        kept.append(row)
    if not kept:
        raise DataError("no rows survive null-policy cleaning")
    return kept, dropped_by_column, dropped, violations


def reference_partition_by_ticker(rows):
    """[(ticker, sector, rows ascending by date)] in sorted ticker order."""
    from stocksignals.errors import DataError

    grouped = {}
    sectors = {}
    seen = set()
    for row in rows:
        key = (row.ticker, row.date)
        if key in seen:
            raise DataError(f"{row.ticker} already has a row for {row.date}")
        seen.add(key)
        if row.ticker in sectors:
            if sectors[row.ticker] != row.sector:
                raise DataError(
                    f"{row.ticker} maps to both "
                    f"{sectors[row.ticker]!r} and {row.sector!r}"
                )
        else:
            sectors[row.ticker] = row.sector
        grouped.setdefault(row.ticker, []).append(row)
    return [
        (ticker, sectors[ticker], sorted(group, key=lambda r: r.date))
        for ticker, group in sorted(grouped.items())
    ]


def reference_rolling_std(closes, window):
    """Sample std of each trailing window from Python prefix sums of x and
    x^2, None before the window fills; a negative variance clamps to 0."""
    n = len(closes)
    sums = [0.0] * (n + 1)
    squares = [0.0] * (n + 1)
    for i, x in enumerate(closes):
        sums[i + 1] = sums[i] + x
        squares[i + 1] = squares[i] + x * x
    out = [None] * n
    for i in range(window - 1, n):
        s = sums[i + 1] - sums[i + 1 - window]
        q = squares[i + 1] - squares[i + 1 - window]
        var = (q - s * s / window) / (window - 1)
        out[i] = math.sqrt(max(var, 0.0))
    return out


def _reference_rec_percentages(values):
    """(buy, hold, sell) shares of the analyst total, or None when the total
    is zero or a share leaves [0, 1]."""
    from stocksignals.ingest import RAW_COLUMNS

    total, buy, hold, sell = (
        values[RAW_COLUMNS.index(c)]
        for c in ("TOT_ANALYST_REC", "TOT_BUY_REC", "TOT_HOLD_REC", "TOT_SELL_REC")
    )
    if not total:
        return None
    shares = (buy / total, hold / total, sell / total)
    if not all(0.0 <= p <= 1.0 for p in shares):
        return None
    return shares


def reference_assemble_features(ticker, rows, horizons, up=1.01, down=0.99):
    """The package Dataset of one ticker's date-ordered rows: raw values,
    shares, 5- and 10-day std and labels, keeping the days that have every
    derived value and at least one label."""
    from stocksignals.ingest import RAW_COLUMNS
    from stocksignals.transform import FEATURE_COLUMNS, Dataset

    closes = [row.values[RAW_COLUMNS.index("PX_OFFICIAL_CLOSE")] for row in rows]
    std5 = reference_rolling_std(closes, 5)
    std10 = reference_rolling_std(closes, 10)
    labels = brute_force_labels(closes, horizons, up, down)
    kept, X = [], []
    for i, row in enumerate(rows):
        shares = _reference_rec_percentages(row.values)
        if shares is None or std5[i] is None or std10[i] is None:
            continue
        if all(label is None for label in labels[i]):
            continue
        kept.append(i)
        X.append([*row.values, *shares, std5[i], std10[i]])
    return Dataset(
        tickers=np.full(len(kept), ticker),
        dates=np.array([rows[i].date for i in kept], dtype="datetime64[D]"),
        X=np.array(X, dtype=float).reshape(len(kept), len(FEATURE_COLUMNS)),
        Y=np.array(
            [[-1 if label is None else label for label in labels[i]] for i in kept],
            dtype=np.int8,
        ).reshape(len(kept), len(horizons)),
        horizons=tuple(horizons),
    )


def reference_write_dataset_csv(data, stream):
    """dataset.csv one row at a time through csv.writer: a header, then per
    row the ticker, the ISO date, repr of every feature and each label as
    0/1/2, an empty cell where unlabeled."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        ["ticker", "date", *data.feature_names, *(f"label_day{h}" for h in data.horizons)]
    )
    for ticker, date, features, labels in zip(data.tickers, data.dates, data.X, data.Y):
        writer.writerow(
            [
                str(ticker),
                str(date),
                *(repr(float(x)) for x in features),
                *("" if label < 0 else int(label) for label in labels),
            ]
        )


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


# --- random draws, one output at a time ---------------------------------------------

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z):
    """SplitMix64's output function of the state z."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 generator (Steele, Lea and Flood, 2014)."""

    def __init__(self, seed):
        self._state = seed & MASK64

    def next_u64(self):
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def below(self, n):
        """Uniform integer in [0, n), bias-free via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        span = 1 << 64
        threshold = span - span % n
        while True:
            u = self.next_u64()
            if u < threshold:
                return u % n

    def shuffle(self, items):
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n, k):
        """k distinct indices from range(n) via partial Fisher-Yates."""
        pool = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def bootstrap_indices(self, n):
        """n indices drawn with replacement from range(n)."""
        return [self.below(n) for _ in range(n)]


# --- tree growth, one tree at a time ------------------------------------------------

def reference_grow_tree(X, y, rows, spec, pick_candidates):
    """Iterative CART growth on X[rows], y[rows] (explicit stack, preorder,
    left child first), appending each node to the columns as it is popped.

    The package's former per-tree grower, searching each node with
    reference_best_split. `pick_candidates()` supplies the feature indices
    searched at each node that does not stop first.
    """
    from stocksignals.classifiers.tree import DecisionTree
    from stocksignals.labels import majority_labels

    nodes = []  # feature, threshold, left, counts
    right = []
    # (node rows, depth, position of the parent whose right child this is, or -1)
    stack = [(rows, 0, -1)]
    while stack:
        idx, depth, parent = stack.pop()
        pos = len(nodes)
        if parent >= 0:
            right[parent] = pos
        right.append(-1)
        y_node = y[idx]
        counts = np.bincount(y_node, minlength=3)
        stop = (
            np.count_nonzero(counts) <= 1
            or len(idx) < spec.min_samples_split
            or (spec.max_depth is not None and depth >= spec.max_depth)
        )
        split = None
        if not stop:
            split = reference_best_split(X[idx], y_node, spec.criterion, pick_candidates())
        if split is None:
            nodes.append((-1, 0.0, -1, counts))
            continue
        feature, threshold, _ = split
        nodes.append((feature, threshold, pos + 1, np.zeros(3, dtype=np.int64)))
        mask = X[idx, feature] <= threshold
        stack.append((idx[~mask], depth + 1, pos))
        stack.append((idx[mask], depth + 1, -1))
    feature, threshold, left, counts = (np.array(column) for column in zip(*nodes))
    return DecisionTree(
        feature, threshold, left, np.array(right), counts, majority_labels(counts),
        n_features=X.shape[1], criterion=spec.criterion,
    )


def reference_fit_decision_tree(X, y, spec):
    """One tree on every row, searching every feature at every node."""
    every = tuple(range(X.shape[1]))
    return reference_grow_tree(X, y, np.arange(len(y)), spec, lambda: every)


def reference_fit_random_forest(X, y, spec):
    """(trees, tree_seeds) of the package's former forest loop: tree t draws
    from SplitMix64 seeded with output t of SplitMix64(seed) its bootstrap
    sample, then each searched node's sorted mtry features."""
    from stocksignals.classifiers.forest import default_mtry

    n, d = X.shape
    mtry = min(spec.mtry if spec.mtry is not None else default_mtry(d), d)
    parent = SplitMix64(spec.seed)
    trees, seeds = [], []
    for _ in range(spec.n_trees):
        seeds.append(parent.next_u64())
        rng = SplitMix64(seeds[-1])
        rows = np.asarray(rng.bootstrap_indices(n), dtype=np.int64) if spec.bootstrap else np.arange(n)
        if mtry < d:
            pick = lambda: sorted(rng.sample_indices(d, mtry))  # noqa: E731
        else:
            pick = lambda: tuple(range(d))  # noqa: E731
        trees.append(reference_grow_tree(X, y, rows, spec, pick))
    return trees, seeds


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


# --- Jacobi eigendecomposition ------------------------------------------------------

def reference_jacobi_eigen(A, tol=1e-12, max_sweeps=100):
    """The package's former cyclic Jacobi loop: each rotation turns rows p
    and q of work, then its columns, then the columns of the eigenvectors,
    as three planes, with numpy-scalar arithmetic."""
    from stocksignals.errors import NumericError
    from stocksignals.pca import EigenDecomposition

    work = np.array(A, dtype=float)
    d = work.shape[0]
    vectors = np.eye(d)
    planes = (work, work.T, vectors.T)
    if d > 1:
        converged = False
        for _ in range(max_sweeps):
            off = np.abs(work - np.diag(np.diag(work))).max()
            if off < tol:
                converged = True
                break
            for p in range(d - 1):
                for q in range(p + 1, d):
                    apq = work[p, q]
                    if abs(apq) < tol / (d * d):
                        continue
                    theta = (work[q, q] - work[p, p]) / (2.0 * apq)
                    t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    for plane in planes:
                        a, b = plane[p].copy(), plane[q].copy()
                        plane[p], plane[q] = c * a - s * b, s * a + c * b
                    work[p, q] = 0.0
                    work[q, p] = 0.0
        else:
            converged = np.abs(work - np.diag(np.diag(work))).max() < tol
        if not converged:
            raise NumericError(f"off-diagonal mass above {tol} after {max_sweeps} sweeps")
    eigenvalues = np.diag(work).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    for j in range(d):
        column = vectors[:, j]
        nonzero = np.nonzero(np.abs(column) > 1e-12)[0]
        if nonzero.size and column[nonzero[0]] < 0:
            vectors[:, j] = -column
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=vectors)


# --- PCA contribution scoring -------------------------------------------------------

def reference_contribution_scores(eigenvectors, used_names, names, cfg):
    """(feature, occurrences, weighted occurrence) for each of `names`.

    Row i of `eigenvectors` holds the loadings of used_names[i]. Each used
    feature gets the set of 1-based components among the first
    cfg.n_components where |loading| >= cfg.contribution_threshold; its
    occurrences are the set's size and its weighted occurrence the sum of
    the components' weights. A feature outside used_names scores (0, 0).
    """
    scored = {}
    for name, row in zip(used_names, np.asarray(eigenvectors, dtype=float)):
        contributed = frozenset(
            j + 1
            for j in range(min(cfg.n_components, len(row)))
            if abs(row[j]) >= cfg.contribution_threshold
        )
        scored[name] = (len(contributed), sum(cfg.weights[j - 1] for j in contributed))
    return [(name, *scored.get(name, (0, 0))) for name in names]


# --- gaussian density ------------------------------------------------------------

def gaussian_log_posterior(prior, means, variances, x):
    """Log prior plus independent Gaussian log densities, the slow way."""
    acc = math.log(prior)
    for value, mu, var in zip(x, means, variances):
        acc += -0.5 * math.log(2.0 * math.pi * var) - (value - mu) ** 2 / (2.0 * var)
    return acc


# --- prediction, one row at a time -----------------------------------------------

def majority_label(votes):
    """Index of the single largest count; any tie is Hold (1).

    The scalar tie rule the package once applied to each leaf, kept as the
    reference for its row-wise form.
    """
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
    return majority_label(votes)


def reference_predict_tree(tree, x):
    """Walk the preorder columns from row 0: x[feature] <= threshold goes
    left, and a row with left == -1 is a leaf."""
    node = 0
    while tree.left[node] != -1:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return int(tree.label[node])


def reference_predict_forest(forest, x):
    """Majority of the trees' labels; ties are Hold."""
    votes = [0, 0, 0]
    for tree in forest.trees:
        votes[reference_predict_tree(tree, x)] += 1
    return majority_label(votes)


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
    from stocksignals.classifiers.base import fit_bundles, predict_labels
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
        y_pred = predict_labels([bundle.model], X_test[labeled])[:, 0]
        cm = confusion_matrix(y_true[labeled].tolist(), y_pred.tolist())
        reports.append(
            HorizonReport(
                horizon=bundle.horizon,
                sell=class_metrics(cm, Label.SELL),
                hold=class_metrics(cm, Label.HOLD),
                buy=class_metrics(cm, Label.BUY),
                micro_f1=micro_f1(cm),
                confusion=cm,
                n_test=sum(map(sum, cm)),
            )
        )
    return EvaluationReport(
        spec=spec,
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
