"""Deterministic, explainable fact verification over AMR graphs."""

__version__ = "0.1.0"
