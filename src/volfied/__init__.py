"""Conflict-free targeted ad scheduling for vehicular networks.

Library layout:

- model: feature space, ads, PoAs, vehicle profiles, distance metrics
- sparse: greedy sparse ad-set approximation and its grid
- broker: incremental revenue estimation and the selection strategies
- guarantees: the paper's conflict-freeness and sparse-set checks
- oracle: exact small-instance enumeration of the optimal broadcast sets
- vehicle: on-board display and cache behaviour
- sim: discrete-time simulation engine and metrics
- scenario: synthetic catalog / population / mobility generation
- files: CSV and JSON file formats
- cli: command-line entry point
"""

__version__ = "0.1.0"
