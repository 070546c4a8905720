"""STIRAP in a three-level transmon: simulation and experiment harness."""

__version__ = "0.1.0"
