"""Few-shot hardware latency predictors for NAS search spaces.

Submodules:
    archspace   search spaces, architectures, encodings
    autodiff    minimal reverse-mode engine and Adam optimizer
    predictor   the op/hw-embedding graph predictor
    sampler     transfer-sample selection strategies
    devicesets  rank correlation and device-set partitioning
    synthbench  synthetic device-latency oracle
    pipeline    pretrain / transfer / evaluate / constrained search
    cli         the `nasflat` command-line front end
"""

__version__ = "0.1.0"

# nasflat.sampler's methods, kept here so the CLI parser can list them
# without importing numpy.
SAMPLER_METHODS = ("random", "params", "cosine", "kmeans", "latency_oracle")
