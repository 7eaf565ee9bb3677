"""raykg — Ray-Data-native ontology tagging and knowledge-graph construction.

A from-scratch re-expression of the query/data-processing capabilities of
``dataiku/dss-plugin-nlp-analysis`` (ontology tagging over text corpora,
reference at /root/reference) as a distributed triple-extraction engine over
Parquet transcript tables, built on ``ray.data.Dataset`` pipelines:

- ``raykg.core``      pure-Python matching semantics (no Ray dependency):
                      normalization, tokenization, sentence splitting,
                      token-id dictionary matching, lemma lookup,
                      output formatting.  Mirrors the semantics of the
                      reference's spaCy-based Tagger (ontology_tagger.py)
                      without spaCy.
- ``raykg.pipeline``  the Ray Data pipelines: transcripts derivation, the
                      TagActor map_batches stage, graph materialization
                      (triples / nodes / edges / concept scores),
                      partitioned+resumable parquet IO.
- ``raykg.ops``       large-scale operators the KG job and the query
                      registry share: sharded aggregation, joins, graph
                      algorithms, text quality/language-id/token stats.
"""

__version__ = "0.1.0"
