"""Relational query family over the TPC-H-ish tables: the orders CDC
merge and diff and the three sketches (``orders``).  Every q_* callable
imports from raykg.pipeline.queries.relational; the submodule registers
its queries/oracles into the shared registry on import.
"""

from .orders import *  # noqa: F401,F403
