"""From-scratch classifiers, one module per kind; `base` holds their shared
spec, fit/predict contract and model files."""
