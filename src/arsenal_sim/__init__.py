"""Trace-driven cache simulator with sandbox prefetcher selection.

Component prefetchers run continuously in shadow mode; their would-be
prefetches land in per-component Bloom filters, demand events score the
filters, and a periodic selection rule deploys the best-scoring component
to the real prefetch queue.
"""

__version__ = "0.1.0"
