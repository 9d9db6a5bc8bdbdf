"""Causal analysis of multiplex village-network change in two-stage randomized trials.

The package root exports only ``__version__``. Import the analyses from their
modules (``villagenet.core``, ``villagenet.metrics``, ``villagenet.effects``,
...), so that a CLI command loads only the modules it runs.
"""

__version__ = "0.1.0"
