"""The built-in ontology: what ``python -m raykg.job`` tags with when no
``--ontology`` is given, and the query registry's benchmark/correctness
ontology.

Keywords come from the generated corpus vocabulary, chosen so no two
keywords share a token (category longest-match == all matches) and no
keyword self-overlaps (token-scan count == non-overlapping regex count,
verified in tests).
"""

ONTOLOGY = [
    ("Engine", "spark", "tech"),
    ("Windowing", "window", "op"),
    ("AggRow", "agg row", "pattern"),
    ("BigData", "big data", "buzz"),
    ("Customer", "customer", "entity"),
    ("FastMerge", "fast merge", "pattern"),
]
