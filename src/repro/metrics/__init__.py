"""Measurement utilities: percentiles."""

from repro.metrics.percentiles import percentile, percentile_summary

__all__ = ["percentile", "percentile_summary"]
