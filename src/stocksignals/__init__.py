"""Daily equity signal pipeline: ingest, labeling, classifiers, PCA ranking, backtest."""

__version__ = "0.1.0"
