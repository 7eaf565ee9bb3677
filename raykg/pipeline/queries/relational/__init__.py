"""Relational query family over the TPC-H-ish tables: warehouse joins,
sketches, rollups and windows (``orders``) and RFM / above-average
orders (``tpch``).  Every q_* callable imports from
raykg.pipeline.queries.relational; submodules register their
queries/oracles into the shared registry on import.
"""

from .orders import *  # noqa: F401,F403
from .tpch import *  # noqa: F401,F403
