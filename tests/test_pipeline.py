"""Ray Data pipeline tests: tagging stage, graph layer, partitioned IO."""

import json
import os

import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data

from raykg.pipeline.config import PipelineConfig
from raykg.pipeline.graph import (
    build_nodes,
    concept_scores,
    extract_triples,
    triples_to_edges,
)
from raykg.pipeline.io import PartitionedWriter, partition_of
from raykg.pipeline.tag import extract_mentions, tag_dataset
from raykg.pipeline.transcripts import read_transcripts

SF = "/root/testdata/sf0.001"
ONTO = [
    ("Engine", "spark", "tech"),
    ("Window", "window", "op"),
    ("AggRow", "agg row", "pattern"),
    ("Customer", "customer", "entity"),
]
ONTO_NOCAT = [(t, k) for t, k, _ in ONTO]


def sample_transcripts(n_blocks=1):
    rows = [
        {"conv_id": "c0", "turn_idx": 0, "role": "user", "text": "My keyword is here. Nothing else.", "tool": None, "lang": "en"},
        {"conv_id": "c0", "turn_idx": 1, "role": "assistant", "text": "no matches at all", "tool": "search", "lang": "en"},
        {"conv_id": "c1", "turn_idx": 0, "role": "user", "text": None, "tool": None, "lang": "en"},
        {"conv_id": "c1", "turn_idx": 1, "role": "assistant", "text": "keyword and keyword again", "tool": "python", "lang": "en"},
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    return ds.repartition(n_blocks) if n_blocks > 1 else ds


@pytest.mark.usefixtures("ray_session")
class TestTagging:
    def test_one_row_per_match_keeps_unmatched_rows(self):
        cfg = PipelineConfig(language="en", concurrency=1, batch_size=2)
        out = tag_dataset(sample_transcripts(), [("T", "keyword")], cfg).to_pandas()
        # c0t0 1 match, c0t1 no match (null row), c1t0 null text, c1t1 dedup -> 1
        assert len(out) == 4
        assert out.columns.tolist()[:6] == [
            "conv_id", "turn_idx", "role", "text", "tag", "tag_keyword"
        ]  # tag cols inserted right after text
        matched = out[out["tag"].notna()]
        assert len(matched) == 2
        assert set(matched["tag_keyword"]) == {"keyword"}

    def test_category_format(self):
        cfg = PipelineConfig(
            language="en", category_column="category", concurrency=1, batch_size=2
        )
        out = tag_dataset(
            sample_transcripts(), [("T", "keyword", "catA")], cfg
        ).to_pandas()
        assert "tag_category" in out.columns
        assert set(out["tag_category"].dropna()) == {"catA"}

    def test_one_row_per_doc_json(self):
        cfg = PipelineConfig(
            language="en", output_format="one_row_per_doc_json", concurrency=1
        )
        out = tag_dataset(sample_transcripts(), [("T", "keyword")], cfg).to_pandas()
        assert len(out) == 4
        val = json.loads(out[out["conv_id"] == "c1"].iloc[1]["tag_json_full"])
        assert val["T"]["count"] == 2

    def test_nblock_equals_1block(self):
        cfg = PipelineConfig(language="en", concurrency=2, batch_size=1)
        one = tag_dataset(sample_transcripts(1), ONTO_NOCAT, cfg).to_pandas()
        many = tag_dataset(sample_transcripts(4), ONTO_NOCAT, cfg).to_pandas()
        key = ["conv_id", "turn_idx", "tag", "tag_keyword"]
        a = one.sort_values(key).reset_index(drop=True)
        b = many.sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(a[key], b[key])

    def test_multilingual_dispatch(self):
        rows = [
            {"conv_id": "c", "turn_idx": 0, "text": "the keyword here", "lang": "en"},
            {"conv_id": "c", "turn_idx": 1, "text": "le keyword ici", "lang": "fr"},
        ]
        cfg = PipelineConfig(
            language="language_column", language_column="lang", concurrency=1
        )
        out = tag_dataset(
            ray.data.from_pandas(pd.DataFrame(rows)), [("T", "keyword")], cfg
        ).to_pandas()
        assert out["tag"].notna().sum() == 2

    def test_mentions_table(self):
        cfg = PipelineConfig(language="en", concurrency=1)
        m = extract_mentions(sample_transcripts(), [("T", "keyword")], cfg).to_pandas()
        # c0t0 has 1, c1t1 has 2 occurrences (mentions are NOT deduped)
        assert len(m) == 3
        assert set(m.columns) == {
            "conv_id", "turn_idx", "sent_idx", "match_start", "match_end",
            "keyword", "tag", "category", "sentence",
        }


@pytest.mark.usefixtures("ray_session")
class TestGraph:
    def test_triples_structural_and_tagged(self):
        cfg = PipelineConfig(language="en", concurrency=1)
        t = extract_triples(sample_transcripts(), [("T", "keyword")], cfg).to_pandas()
        utters = t[t["pred"] == "utters"]
        tools = t[t["pred"] == "used_tool"]
        tagged = t[t["pred"] == "tagged_as"]
        assert len(utters) == 4
        assert set(tools["obj"]) == {"search", "python"}
        # tagged_as deduped per turn: c0t0 1, c1t1 1
        assert len(tagged) == 2
        assert set(tagged["obj"]) == {"concept:T"}
        assert set(tagged["subj"]) == {"c0#0#keyword", "c1#1#keyword"}

    def test_nodes_and_edges(self):
        from raykg.core.ontology import clean_ontology

        cfg = PipelineConfig(language="en", concurrency=1)
        triples = extract_triples(sample_transcripts(), [("T", "keyword")], cfg)
        edges = triples_to_edges(triples).to_pandas()
        assert {"src", "dst", "rel", "weight", "conv_id"} <= set(edges.columns)
        onto_rows = clean_ontology([("T", "keyword")], has_category=False)
        nodes = build_nodes(triples, onto_rows).to_pandas()
        by_type = nodes.groupby("node_type")["node_id"].count().to_dict()
        assert by_type == {
            "conversation": 2, "turn": 4, "tool": 2, "mention": 2, "concept": 1,
        }
        assert nodes["node_id"].is_unique

    def test_concept_scores(self):
        cfg = PipelineConfig(language="en", concurrency=1)
        m = extract_mentions(sample_transcripts(), [("T", "keyword")], cfg)
        s = concept_scores(m).to_pandas()
        assert len(s) == 1
        row = s.iloc[0]
        assert row["tag"] == "T" and row["concept_id"] == "concept:T"
        assert row["n_mentions"] == 3 and row["n_convs"] == 2


@pytest.mark.usefixtures("ray_session")
class TestPartitionedIO:
    def test_write_resume_roundtrip(self, tmp_path):
        cfg = PipelineConfig(language="en", concurrency=1)
        triples = extract_triples(read_transcripts(SF), ONTO, cfg)
        out = str(tmp_path / "edges")
        w = PartitionedWriter(out, num_partitions=8)
        summary = w.write(triples, key_column="conv_id")
        assert summary["rows"].sum() == triples.count()
        assert w.done_partitions() == set(summary["part"])
        # manifests carry lineage
        mf = json.load(open(w.manifest_path(int(summary["part"].iloc[0]))))
        assert mf["status"] == "complete" and mf["rows"] > 0 and mf["content_md5"]

        # simulate a partial failure: delete one partition's manifest+data
        victim = int(summary["part"].iloc[0])
        os.remove(w.manifest_path(victim))
        os.remove(os.path.join(out, f"part={victim:05d}", "data.parquet"))
        w2 = PartitionedWriter(out, num_partitions=8)
        assert victim not in w2.done_partitions()
        summary2 = w2.write(triples, key_column="conv_id")
        # only the victim partition was rewritten
        assert summary2["part"].tolist() == [victim]
        # resumed output equals single-shot output
        total = w2.read().count()
        assert total == triples.count()

    def test_partition_of_deterministic(self):
        assert partition_of("c123", 64) == partition_of("c123", 64)
        assert 0 <= partition_of("anything", 8) < 8

    def test_resume_keyed_by_fingerprint(self, tmp_path):
        # a partition completed under config A must NOT be skipped when
        # re-running under config B (would silently mix outputs)
        cfg = PipelineConfig(language="en", concurrency=1)
        triples = extract_triples(read_transcripts(SF), ONTO, cfg)
        out = str(tmp_path / "edges")
        w = PartitionedWriter(out, num_partitions=4)
        s1 = w.write(triples, key_column="conv_id", fingerprint="cfgA")
        assert w.done_partitions(fingerprint="cfgA") == set(s1["part"])
        assert w.done_partitions(fingerprint="cfgB") == set()
        # resume under the SAME fingerprint: nothing rewritten
        s2 = w.write(triples, key_column="conv_id", fingerprint="cfgA")
        assert len(s2) == 0
        # resume under a DIFFERENT fingerprint: everything recomputed
        s3 = w.write(triples, key_column="conv_id", fingerprint="cfgB")
        assert set(s3["part"]) == set(s1["part"])
        mf = json.load(open(w.manifest_path(int(s3["part"].iloc[0]))))
        assert mf["fingerprint"] == "cfgB"


@pytest.mark.usefixtures("ray_session")
def test_job_build_graph_and_resume(tmp_path):
    from raykg.job import build_graph
    from raykg.pipeline.config import PipelineConfig

    cfg = PipelineConfig(language="en", category_column="category", concurrency=2)
    out = str(tmp_path / "kg")
    transcripts = read_transcripts(SF)
    report = build_graph(transcripts, ONTO, cfg, out, num_partitions=4)
    assert set(report["tables"]) == {"edges", "mentions", "nodes", "concept_scores"}
    assert report["tables"]["edges"]["rows"] > 0
    # full resume: second run skips everything
    report2 = build_graph(transcripts, ONTO, cfg, out, num_partitions=4)
    assert report2["tables"]["edges"]["rows"] == 0
    # but the data on disk is intact
    import ray.data as rd

    total = rd.read_parquet(
        [str(p) for p in (tmp_path / "kg" / "edges").glob("part=*/data.parquet")]
    ).count()
    assert total == report["tables"]["edges"]["rows"]


def test_job_resume_after_ontology_edit_recomputes(tmp_path):
    """A resume with an edited ontology recomputes the mentions instead of
    keeping the partitions the first run wrote."""
    import ray.data as rd

    from raykg.job import build_graph

    cfg = PipelineConfig(language="en", category_column="category", concurrency=2)
    out = str(tmp_path / "kg")

    def tags():
        files = [str(p) for p in (tmp_path / "kg" / "mentions").glob("part=*/data.parquet")]
        return rd.read_parquet(files).to_pandas()["tag"].value_counts().to_dict()

    build_graph(read_transcripts(SF), ONTO, cfg, out, num_partitions=4)
    before = tags()
    assert before.get("Engine", 0) > 0
    edited = [("Engine", "no such keyword", "tech")] + ONTO[1:]
    report = build_graph(read_transcripts(SF), edited, cfg, out, num_partitions=4)
    assert report["tables"]["mentions"]["rows"] > 0
    after = tags()
    assert "Engine" not in after
    assert after == {t: n for t, n in before.items() if t != "Engine"}


@pytest.mark.usefixtures("ray_session")
def test_job_rebuild_after_ontology_shrink_drops_stale_partitions(tmp_path):
    """Every partition of every table gets a manifest, empty ones a
    zero-row one.  So a rebuild with a smaller ontology empties the
    partitions its rows no longer reach instead of reading back their old
    rows, and an unchanged rerun skips the whole job."""
    from raykg.job import build_graph

    rows = [
        {"conv_id": "c0", "turn_idx": 0, "role": "user", "text": "I use spark", "tool": None, "lang": "en"},
        {"conv_id": "c1", "turn_idx": 0, "role": "user", "text": "I use flink", "tool": None, "lang": "en"},
    ]
    assert partition_of("c0", 64) != partition_of("c1", 64)
    cfg = PipelineConfig(language="en", concurrency=1)
    out = tmp_path / "kg"

    def build(ontology):
        return build_graph(ray.data.from_pandas(pd.DataFrame(rows)), ontology, cfg, str(out))

    build([("A", "spark"), ("B", "flink")])
    for table, parts in (("mentions", 64), ("edges", 64), ("nodes", 16), ("concept_scores", 1)):
        assert len(list((out / table).glob("part=*/manifest.json"))) == parts, table
    # concept_scores is written from Arrow blocks: no pandas schema metadata
    import pyarrow.parquet as pq

    scores_file = next((out / "concept_scores").glob("part=*/data.parquet"))
    assert pq.read_schema(scores_file).metadata is None

    report = build([("A", "spark")])
    assert report["tables"]["mentions"]["rows"] == 1
    mentions = PartitionedWriter(str(out / "mentions"), 64).read().to_pandas()
    assert mentions[["conv_id", "tag"]].values.tolist() == [["c0", "A"]]
    scores = PartitionedWriter(str(out / "concept_scores"), 1).read().to_pandas()
    assert scores["tag"].tolist() == ["A"]
    assert len(list((out / "mentions").glob("part=*/data.parquet"))) == 1

    rerun = build([("A", "spark")])
    assert all(t["partitions"] == 0 for t in rerun["tables"].values())


def test_job_pagerank_table(tmp_path):
    from raykg.job import build_graph
    from raykg.pipeline.config import PipelineConfig

    cfg = PipelineConfig(language="en", category_column="category", concurrency=2)
    out = str(tmp_path / "kg")
    report = build_graph(
        read_transcripts(SF), ONTO, cfg, out, num_partitions=4,
        compute_pagerank=True,
    )
    assert report["tables"]["node_ranks"]["rows"] > 0
    import ray.data as rd

    ranks = rd.read_parquet(
        [str(p) for p in (tmp_path / "kg" / "node_ranks").glob("part=*/data.parquet")]
    ).to_pandas()
    assert {"node", "pr"}.issubset(ranks.columns)  # + the writer's part key
    assert abs(ranks["pr"].sum() - 1.0) < 1e-6  # mass conserved


def test_job_entity_ids_table(tmp_path):
    from raykg.job import build_graph
    from raykg.pipeline.config import PipelineConfig

    cfg = PipelineConfig(language="en", category_column="category", concurrency=2)
    out = str(tmp_path / "kg")
    report = build_graph(
        read_transcripts(SF), ONTO, cfg, out, num_partitions=4,
        compute_entity_ids=True,
    )
    n_nodes = report["tables"]["nodes"]["rows"]
    assert report["tables"]["entity_ids"]["rows"] == n_nodes
    import ray.data as rd

    ids = rd.read_parquet(
        [str(p) for p in (tmp_path / "kg" / "entity_ids").glob("part=*/data.parquet")]
    ).to_pandas()
    # dense 0..N-1 numbering, in node_id sort order
    assert sorted(ids["entity_id"]) == list(range(n_nodes))
    by_rank = ids.sort_values("entity_id")
    assert by_rank["node_id"].tolist() == sorted(ids["node_id"].tolist())


def test_job_pagerank_on_an_empty_input(tmp_path, ray_session):
    """An input with no rows writes empty edges; the PageRank stage reads
    them back as an empty table of the triple schema instead of failing
    for want of a data file."""
    from raykg.job import build_graph

    empty = ray.data.from_pandas(small_corpus().iloc[:0])
    report = build_graph(empty, [("Z", "zebra")], PipelineConfig(language="en", concurrency=1),
                         str(tmp_path / "kg"), num_partitions=8,
                         compute_pagerank=True, compute_entity_ids=True)
    assert report["tables"]["edges"]["rows"] == 0
    assert report["tables"]["node_ranks"] == {"rows": 0, "partitions": 2}
    assert report["tables"]["entity_ids"]["rows"] == report["tables"]["nodes"]["rows"]


def test_update_graph_makes_node_ranks_and_entity_ids_stale(tmp_path, ray_session):
    """node_ranks and entity_ids are derived from the whole graph: after
    an update adds a conversation, a resumed build that asks for them
    derives them again, equal to a fresh build's, instead of keeping
    the ones without the new conversation's nodes."""
    from raykg.job import build_graph, update_graph

    cfg = PipelineConfig(language="en", concurrency=1)
    onto = [("Engine", "spark")]
    base = pd.DataFrame([
        {"conv_id": f"c{i}", "turn_idx": 0, "role": "user", "text": "I use spark",
         "tool": None, "lang": "en"} for i in range(2)
    ])
    cur = pd.concat([base, pd.DataFrame([
        {"conv_id": "c2", "turn_idx": 0, "role": "user", "text": "spark again",
         "tool": "python", "lang": "en"}])], ignore_index=True)

    def build(df, path):
        return build_graph(ray.data.from_pandas(df), onto, cfg, str(path), num_partitions=8,
                           compute_pagerank=True, compute_entity_ids=True)

    def table(path, name, key):
        return sorted(PartitionedWriter(str(path / name), 2).read().to_pandas()[key])

    build(base, tmp_path / "inc")
    update_graph(ray.data.from_pandas(cur), onto, cfg, str(tmp_path / "inc"), ["c2"],
                 num_partitions=8)
    build(cur, tmp_path / "inc")
    nodes = table(tmp_path / "inc", "nodes", "node_id")
    assert "tool:python" in nodes and "c2#0#spark" in nodes
    assert table(tmp_path / "inc", "entity_ids", "node_id") == nodes
    build(cur, tmp_path / "full")
    assert table(tmp_path / "full", "nodes", "node_id") == nodes
    assert table(tmp_path / "inc", "node_ranks", "node") == table(
        tmp_path / "full", "node_ranks", "node")
    a, b = (PartitionedWriter(str(tmp_path / p / "entity_ids"), 2).read().to_pandas()
            .sort_values("entity_id").reset_index(drop=True) for p in ("inc", "full"))
    pd.testing.assert_frame_equal(a, b)
    rerun = build(cur, tmp_path / "inc")
    assert rerun["tables"]["node_ranks"] == {"rows": 0, "partitions": 0}


def test_triples_from_mentions_pinned_to_extract_triples(ray_session):
    """The job's one-matcher-pass edge derivation must emit exactly the
    triple set the direct TripleActor pass emits (row-set equality)."""
    import pandas as pd

    from raykg.pipeline.graph import extract_triples, triples_from_mentions
    from raykg.pipeline.queries import ONTOLOGY, _cfg
    from raykg.pipeline.tag import extract_mentions
    from raykg.pipeline.transcripts import read_transcripts

    sf = "/root/testdata/sf0.001"
    cfg = _cfg(category_column="category")
    ds = read_transcripts(sf)
    want = (
        extract_triples(ds, ONTOLOGY, cfg)
        .to_pandas()
        .sort_values(["subj", "pred", "obj", "conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    mentions = extract_mentions(ds, ONTOLOGY, cfg)
    got = (
        triples_from_mentions(mentions, ds)
        .to_pandas()
        .sort_values(["subj", "pred", "obj", "conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)


def test_update_graph_incremental_equals_rebuild(tmp_path, ray_session):
    """Incremental maintenance: change one conversation, delete another,
    add a third — update_graph recomputes only their hash partitions and
    the final tables row-set-equal a from-scratch build on the new input."""
    import pandas as pd

    from raykg.job import build_graph, update_graph
    from raykg.pipeline.queries import ONTOLOGY, _cfg
    from raykg.pipeline.transcripts import read_transcripts

    cfg = _cfg(category_column="category")
    base = read_transcripts("/root/testdata/sf0.001").to_pandas()
    convs = sorted(base["conv_id"].unique())
    changed, deleted, added = convs[0], convs[1], "conv_brand_new"

    cur = base[base["conv_id"] != deleted].copy()
    cur.loc[cur["conv_id"] == changed, "text"] = "customer replied to customer"
    new_rows = base[base["conv_id"] == convs[2]].copy()
    new_rows["conv_id"] = added
    cur = pd.concat([cur, new_rows], ignore_index=True)

    out_inc = tmp_path / "inc"
    out_full = tmp_path / "full"
    build_graph(ray.data.from_pandas(base), ONTOLOGY, cfg, str(out_inc),
                num_partitions=8)
    rep = update_graph(ray.data.from_pandas(cur), ONTOLOGY, cfg, str(out_inc),
                       [changed, deleted, added], num_partitions=8)
    assert 1 <= len(rep["updated_partitions"]) <= 3
    build_graph(ray.data.from_pandas(cur), ONTOLOGY, cfg, str(out_full),
                num_partitions=8)

    from raykg.pipeline.io import PartitionedWriter

    for tab, parts, key in (("mentions", 8, "conv_id"), ("edges", 8, "conv_id"),
                            ("nodes", 2, "node_id"), ("concept_scores", 1, "tag")):
        a = (PartitionedWriter(str(out_inc / tab), parts).read().to_pandas())
        b = (PartitionedWriter(str(out_full / tab), parts).read().to_pandas())
        cols = sorted(a.columns)
        a = a[cols].sort_values(cols).reset_index(drop=True)
        b = b[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, obj=tab)


GRAPH_TABLES = (("mentions", 8), ("edges", 8), ("nodes", 2), ("concept_scores", 1))


def small_corpus(n_convs=8):
    """Two turns per conversation, the second one calling a tool."""
    return pd.DataFrame([
        {"conv_id": f"c{i}", "turn_idx": t, "role": "user",
         "text": f"I use spark and customer {i}" if t == 0 else "no match",
         "tool": "search" if t else None, "lang": "en"}
        for i in range(n_convs) for t in range(2)
    ])


def assert_same_graph(got, want):
    """Every graph table under ``got`` row-set-equals the one under ``want``."""
    for tab, parts in GRAPH_TABLES:
        a = PartitionedWriter(str(got / tab), parts).read().to_pandas()
        b = PartitionedWriter(str(want / tab), parts).read().to_pandas()
        cols = sorted(a.columns)
        a = a[cols].sort_values(cols).reset_index(drop=True)
        b = b[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, obj=tab)


def test_build_graph_with_no_mention_writes_structure(tmp_path, ray_session):
    """A corpus the ontology never matches is a valid input: the job writes
    the utters/used_tool edges and their nodes, and zero-row mentions and
    concept_scores, instead of failing to read back an empty table."""
    from raykg.job import build_graph

    out = tmp_path / "kg"
    report = build_graph(ray.data.from_pandas(small_corpus()), [("Z", "zebra")],
                         PipelineConfig(language="en", concurrency=1), str(out),
                         num_partitions=8)
    assert report["tables"]["mentions"]["rows"] == 0
    assert report["tables"]["concept_scores"]["rows"] == 0
    for tab, parts in GRAPH_TABLES:
        w = PartitionedWriter(str(out / tab), parts)
        assert w.done_partitions() == set(range(parts)), tab
    edges = PartitionedWriter(str(out / "edges"), 8).read().to_pandas()
    assert edges["pred"].value_counts().to_dict() == {"utters": 16, "used_tool": 8}
    nodes = PartitionedWriter(str(out / "nodes"), 2).read().to_pandas()
    assert nodes["node_type"].value_counts().to_dict() == {
        "turn": 16, "conversation": 8, "tool": 1, "concept": 1}


def test_job_report_counts_empty_partitions(tmp_path, ray_session):
    """The report's ``partitions`` counts every partition a run completes,
    zero-row ones included: a build the ontology never matches writes 8
    zero-row mention manifests and reports 8, and an unchanged rerun,
    which writes nothing, reports 0."""
    from raykg.job import build_graph

    def build():
        return build_graph(ray.data.from_pandas(small_corpus()), [("Z", "zebra")],
                           PipelineConfig(language="en", concurrency=1),
                           str(tmp_path / "kg"), num_partitions=8)

    report = build()
    assert report["tables"]["mentions"] == {"rows": 0, "partitions": 8}
    assert report["tables"]["concept_scores"] == {"rows": 0, "partitions": 1}
    for tab, parts in GRAPH_TABLES[1:3]:
        assert report["tables"][tab]["partitions"] == parts, tab
    rerun = build()
    assert all(t["partitions"] == 0 for t in rerun["tables"].values())


def test_update_graph_to_a_mention_free_partition(tmp_path, ray_session):
    """Every conversation of one partition loses its mentions: the update
    empties that partition's mentions, drops its tagged_as edges and
    mention nodes and rescores, exactly like a rebuild of the new input."""
    from raykg.job import build_graph, update_graph

    cfg = PipelineConfig(language="en", concurrency=1)
    onto = [("Engine", "spark"), ("Customer", "customer")]
    base = small_corpus()
    target = partition_of("c0", 8)
    changed = [c for c in base["conv_id"].unique() if partition_of(c, 8) == target]
    cur = base.copy()
    cur.loc[cur["conv_id"].isin(changed), "text"] = "nothing to see"
    build_graph(ray.data.from_pandas(base), onto, cfg, str(tmp_path / "inc"),
                num_partitions=8)
    update_graph(ray.data.from_pandas(cur), onto, cfg, str(tmp_path / "inc"),
                 changed, num_partitions=8)
    build_graph(ray.data.from_pandas(cur), onto, cfg, str(tmp_path / "full"),
                num_partitions=8)
    assert_same_graph(tmp_path / "inc", tmp_path / "full")
    m = json.load(open(PartitionedWriter(str(tmp_path / "inc" / "mentions"), 8)
                       .manifest_path(target)))
    assert m["status"] == "complete" and m["rows"] == 0


def test_build_graph_resumes_after_a_kill_past_mentions(tmp_path, ray_session):
    """A run killed after the mentions write, with a few edge partitions and
    no node or score partition complete, resumes to the same tables as a
    fresh build and does not rewrite any mention partition."""
    from raykg.job import build_graph

    cfg = PipelineConfig(language="en", concurrency=1)
    onto = [("Engine", "spark"), ("Customer", "customer")]
    out = tmp_path / "kg"

    def build(path):
        return build_graph(ray.data.from_pandas(small_corpus()), onto, cfg,
                           str(path), num_partitions=8)

    build(out)
    w_m = PartitionedWriter(str(out / "mentions"), 8)
    w_e = PartitionedWriter(str(out / "edges"), 8)
    lost = sorted({partition_of(f"c{i}", 8) for i in range(3)})

    def mention_state():
        return {p: (json.load(open(w_m.manifest_path(p)))["content_md5"],
                    os.stat(w_m.manifest_path(p)).st_mtime_ns) for p in range(8)}

    before = mention_state()
    w_e.invalidate(lost)
    PartitionedWriter(str(out / "nodes"), 2).invalidate(range(2))
    PartitionedWriter(str(out / "concept_scores"), 1).invalidate(range(1))
    report = build(out)
    assert report["tables"]["mentions"]["partitions"] == 0
    assert report["tables"]["edges"]["partitions"] == len(lost)
    assert mention_state() == before
    build(tmp_path / "fresh")
    assert_same_graph(out, tmp_path / "fresh")


def test_build_graph_runs_one_exchange_and_reads_nothing_back(tmp_path, ray_session,
                                                              monkeypatch):
    """A fresh build derives mentions, edges, nodes and concept_scores from
    one groupby exchange and reads none of its own tables back."""
    from raykg.job import build_graph

    calls = {"groupby": 0, "read": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ray.data.Dataset, "groupby",
                        counting("groupby", ray.data.Dataset.groupby))
    monkeypatch.setattr(PartitionedWriter, "read", counting("read", PartitionedWriter.read))
    report = build_graph(ray.data.from_pandas(small_corpus()),
                         [("Engine", "spark"), ("Customer", "customer")],
                         PipelineConfig(language="en", concurrency=1),
                         str(tmp_path / "kg"), num_partitions=8)
    assert report["tables"]["mentions"]["rows"] == 16
    assert calls == {"groupby": 1, "read": 0}


def equality_corpus():
    """Turns with and without tools (null, empty and named), punctuated and
    mixed-script text, repeated keywords in one turn, and one conversation
    no keyword matches."""
    texts = [
        "I use Spark, and the customer likes spark.",
        "Клиент said: the customer wants an agg row! Spark?",
        "no keyword in this turn",
        "spark spark spark; CUSTOMER.",
    ]
    tools = [None, "search", "", "python"]
    rows = [
        {"conv_id": f"conv{i}", "turn_idx": t, "role": "user",
         "text": texts[(i + t) % len(texts)], "tool": tools[(i * 3 + t) % len(tools)],
         "lang": "en"}
        for i in range(23) for t in range(1 + i % 3)
    ]
    rows += [{"conv_id": "quiet", "turn_idx": t, "role": "user", "text": "nothing at all",
              "tool": "search" if t else None, "lang": "en"} for t in range(2)]
    return pd.DataFrame(rows)


@pytest.mark.parametrize("num_partitions", [8, 18])
def test_build_graph_equals_the_stage_recipe(tmp_path, ray_session, num_partitions):
    """Each table of the one-exchange build row-set-equals the composition
    of the dataset-level stage functions, and every row sits in the
    partition its key hashes to (nodes: gcd(P, P // 4) partitions, the
    tool and concept rows in the global one).  A build over an output
    whose nodes carry the older fingerprint tag recomputes the nodes."""
    import math

    import pyarrow.parquet as pq

    from raykg.core.ontology import clean_ontology
    from raykg.job import build_graph
    from raykg.pipeline.graph import (
        NODE_GLOBAL_PART_KEY,
        triples_from_mentions,
        with_node_part_key,
    )

    onto = [("Engine", "spark", "tech"), ("Customer", "customer", "entity"),
            ("AggRow", "agg row", "pattern")]
    cfg = PipelineConfig(language="en", category_column="category", ignore_case=True,
                         concurrency=1)
    ds = ray.data.from_pandas(equality_corpus())
    P, N = num_partitions, math.gcd(num_partitions, num_partitions // 4)
    out = tmp_path / "kg"
    build_graph(ds, onto, cfg, str(out), num_partitions=P)

    mentions = extract_mentions(ds, onto, cfg).materialize()
    edges = triples_from_mentions(mentions, ds)
    nodes = with_node_part_key(
        build_nodes(edges, clean_ontology(onto, has_category=True))).to_pandas()
    want = {
        "mentions": (P, mentions.to_pandas(), "conv_id"),
        "edges": (P, edges.to_pandas(), "conv_id"),
        "nodes": (N, nodes.drop(columns="node_part_key"), None),
        "concept_scores": (1, concept_scores(mentions).to_pandas(), "tag"),
    }
    for table, (parts, expected, key) in want.items():
        files = PartitionedWriter(str(out / table), parts).data_files()
        got = []
        for part, path in files.items():
            frame = pq.read_table(path).to_pandas()
            if key is None:
                global_type = frame["node_type"].isin(["tool", "concept"])
                keys = frame["node_id"].str.split("#").str[0].where(
                    ~global_type, NODE_GLOBAL_PART_KEY)
            else:
                keys = frame[key]
            assert {partition_of(k, parts) for k in keys} == {part}, (table, part)
            got.append(frame)
        got = pd.concat(got, ignore_index=True)
        cols = sorted(expected.columns)
        assert sorted(got.columns) == cols, table
        a = got[cols].sort_values(cols).reset_index(drop=True)
        b = expected[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False, obj=table)
    assert len(want["mentions"][1]) > 0 and (want["nodes"][1]["node_type"] == "tool").any()

    w_n = PartitionedWriter(str(out / "nodes"), N)
    for part in range(N):
        path = w_n.manifest_path(part)
        manifest = json.load(open(path))
        manifest["fingerprint"] = manifest["fingerprint"].replace("|nodes_v3", "|nodes_v2")
        json.dump(manifest, open(path, "w"))
    report = build_graph(ds, onto, cfg, str(out), num_partitions=P)
    assert report["tables"]["nodes"]["partitions"] == N
    assert report["tables"]["mentions"]["partitions"] == 0
    assert report["tables"]["edges"]["partitions"] == 0
    assert report["tables"]["nodes"]["rows"] == len(nodes)


def test_refresh_recomputes_only_target_partitions(tmp_path, ray_session):
    import glob
    import json as _json

    import pandas as pd

    from raykg.ops.hashing import partition_of
    from raykg.pipeline.io import PartitionedWriter

    df = pd.DataFrame({"k": [f"key{i}" for i in range(40)],
                       "v": list(range(40))})
    w = PartitionedWriter(str(tmp_path / "t"), 4)
    w.write(ray.data.from_pandas(df), key_column="k")
    md5s = {p: _json.load(open(m))["content_md5"]
            for p, m in enumerate(sorted(glob.glob(str(tmp_path / "t/part=*/manifest.json"))))}

    # keys of partition 2 get new values; other partitions' files must not move
    target = 2
    df2 = df.copy()
    mask = df2["k"].map(lambda k: partition_of(k, 4)) == target
    assert mask.any()
    df2.loc[mask, "v"] += 1000
    w.refresh(ray.data.from_pandas(df2), "k", [target])
    for p, m in enumerate(sorted(glob.glob(str(tmp_path / "t/part=*/manifest.json")))):
        new = _json.load(open(m))["content_md5"]
        assert (new != md5s[p]) == (p == target), p
    back = w.read().to_pandas().sort_values("k").reset_index(drop=True)
    want = df2.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(back[["k", "v"]], want, check_dtype=False)

    # delete EVERY key of partition 2: it must become complete-and-empty
    df3 = df2[~mask]
    w.refresh(ray.data.from_pandas(df3), "k", [target])
    man = _json.load(open(w.manifest_path(target)))
    assert man["status"] == "complete" and man["rows"] == 0
    assert w.read().to_pandas()["k"].map(
        lambda k: partition_of(k, 4)
    ).ne(target).all()


def test_mention_context_first_occurrence_orders_by_sentence(
    tmp_path, ray_session
):
    """q_mention_context must pick the turn's TRUE first occurrence:
    mention offsets are sentence-relative, so a later sentence with a
    smaller within-sentence offset must not win over an earlier
    sentence's match (order by (sent_idx, match_start))."""
    import pyarrow.parquet as pq

    from raykg.pipeline.queries import q_mention_context

    # doc 0 -> conv c0 turn 0; two sentences, both contain "spark":
    # sentence 0 at offset 8, sentence 1 at offset 0.
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0], type=pa.int64()),
                "text": ["We love spark here today. spark rules the cluster."],
                "lang": ["en"],
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    out = q_mention_context(str(tmp_path)).to_pandas()
    row = out[out["keyword"] == "spark"]
    assert len(row) == 1
    # the ctx window is sliced from the FIRST sentence containing the
    # keyword, not the later sentence whose within-sentence offset is 0
    assert "We love spark" in row["ctx"].iloc[0]
    assert "rules" not in row["ctx"].iloc[0]


def test_job_cli_default_ontology_skips_query_registry(tmp_path):
    """The CLI's built-in ontology must not import the query registry
    (every query module and its oracle SQL) into a graph build."""
    import subprocess
    import sys

    code = (
        "import json, sys\n"
        "from raykg.job import main\n"
        f"rc = main(['--input', {SF!r}, '--derive-from-documents', '--out', "
        f"{str(tmp_path / 'kg')!r}, '--num-partitions', '4', '--num-cpus', '4'])\n"
        "print(json.dumps({'registry': 'raykg.pipeline.queries' in sys.modules}))\n"
        "sys.exit(rc)\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code], cwd=os.path.dirname(os.path.dirname(__file__)),
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    lines = [json.loads(l) for l in r.stdout.splitlines() if l.startswith("{")]
    assert lines[0]["tables"]["edges"]["rows"] > 0
    assert lines[-1] == {"registry": False}


@pytest.mark.parametrize(
    "cpus,overrides,expect",
    [
        (4, {}, 3),
        (2, {}, 1),
        (8, {}, 6),
        (4, {"concurrency": 3}, 3),
        (4, {"concurrency": (1, 8)}, (1, 8)),
        (1, {"num_cpus": 0}, 1),
        (1, {}, ValueError),
        (4, {"concurrency": 4}, ValueError),
        (4, {"concurrency": 2, "num_cpus": 2}, ValueError),
    ],
)
def test_resolve_concurrency_leaves_a_cpu_free(monkeypatch, cpus, overrides, expect):
    from raykg.pipeline import tag

    monkeypatch.setattr(tag.ray, "is_initialized", lambda: True)
    monkeypatch.setattr(tag.ray, "cluster_resources", lambda: {"CPU": float(cpus)})
    monkeypatch.setattr(tag.ray, "available_resources", lambda: {"CPU": float(cpus)})
    cfg = PipelineConfig(**overrides)
    if expect is ValueError:
        with pytest.raises(ValueError, match="num_cpus"):
            tag.resolve_concurrency(cfg)
    else:
        assert tag.resolve_concurrency(cfg) == expect


def test_resolve_concurrency_reaps_leaked_actors_first(monkeypatch):
    # a CPU held when a new pool is sized (an actor of a finished dataset
    # kept alive by a reference cycle) triggers one cycle collection
    from raykg.pipeline import tag

    collected = []
    monkeypatch.setattr(tag.gc, "collect", lambda: collected.append(1) or 0)
    monkeypatch.setattr(tag.ray, "is_initialized", lambda: True)
    monkeypatch.setattr(tag.ray, "cluster_resources", lambda: {"CPU": 4.0})
    monkeypatch.setattr(tag.ray, "available_resources", lambda: {"CPU": 4.0})
    assert tag.resolve_concurrency(PipelineConfig()) == 3
    assert collected == []
    monkeypatch.setattr(tag.ray, "available_resources", lambda: {"CPU": 3.0})
    assert tag.resolve_concurrency(PipelineConfig()) == 3
    assert collected == [1]


_ONE_CPU_SCRIPT = """
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from raykg.pipeline.config import PipelineConfig
from raykg.pipeline.graph import extract_triples

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
pq.write_table(
    pa.table({"conv_id": ["c0"], "turn_idx": pa.array([0], pa.int32()),
              "text": ["spark window"]}),
    sys.argv[1] + "/t.parquet",
)
ds = ray.data.read_parquet(sys.argv[1])
try:
    extract_triples(ds, [("Engine", "spark")], PipelineConfig()).count()
    print("NO_ERROR", flush=True)
except ValueError as e:
    print("VALUE_ERROR", e, flush=True)
# the fix the error names: actors that reserve no CPU share it with the read
n = extract_triples(ds, [("Engine", "spark")], PipelineConfig(num_cpus=0)).count()
print("ROWS", n, flush=True)
ray.shutdown()
"""


def test_single_cpu_cluster_raises_instead_of_hanging(tmp_path):
    """At ray.init(num_cpus=1) the auto pool (1 actor x 1 CPU) leaves no
    CPU for the Parquet read that feeds it: the job must fail fast with an
    error naming the fix, not hang."""
    import signal
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_SCRIPT, str(tmp_path)],
        cwd=root, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("extract_triples hung on a 1-CPU cluster")
    assert "VALUE_ERROR" in out and "num_cpus" in out, (out, err[-2000:])
    assert "ROWS 2" in out, (out, err[-2000:])  # utters + tagged_as


def test_require_sort_shuffle_checks_the_input_datasets_context():
    """A dataset created under HASH_SHUFFLE keeps that strategy in its own
    context, so the check must look at the inputs too, not only at the
    current context."""
    from ray.data.context import DataContext, ShuffleStrategy

    from raykg.pipeline.io import require_sort_shuffle

    ctx = DataContext.get_current()
    saved = ctx.shuffle_strategy
    try:
        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
        ds = ray.data.range(3)
        with pytest.raises(ValueError, match="shuffle_strategy"):
            require_sort_shuffle()
        ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
        require_sort_shuffle(None)
        with pytest.raises(ValueError, match="shuffle_strategy"):
            require_sort_shuffle(ray.data.range(3), ds)
    finally:
        ctx.shuffle_strategy = saved


_HASH_SHUFFLE_SCRIPT = """
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data.context import DataContext, ShuffleStrategy

from raykg.job import build_graph
from raykg.pipeline.config import PipelineConfig

ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
DataContext.get_current().shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
pq.write_table(
    pa.table({"conv_id": ["c0", "c1"], "turn_idx": pa.array([0, 0], pa.int32()),
              "role": ["user", "user"], "text": ["I use spark", "I use flink"],
              "tool": pa.array([None, None], pa.string()), "lang": ["en", "en"]}),
    sys.argv[1] + "/t.parquet",
)
ds = ray.data.read_parquet(sys.argv[1] + "/t.parquet")
try:
    build_graph(ds, [("Engine", "spark")], PipelineConfig(concurrency=1),
                sys.argv[1] + "/kg")
    print("NO_ERROR", flush=True)
except ValueError as e:
    print("VALUE_ERROR", e, flush=True)
ray.shutdown()
"""


def test_hash_shuffle_raises_instead_of_hanging(tmp_path):
    """Under ShuffleStrategy.HASH_SHUFFLE every groupby exchange of the job
    waits on aggregator actors a small cluster cannot schedule: the job
    must fail fast with an error naming the setting, not hang."""
    import signal
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _HASH_SHUFFLE_SCRIPT, str(tmp_path)],
        cwd=root, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("build_graph hung under HASH_SHUFFLE")
    assert "VALUE_ERROR" in out and "shuffle_strategy" in out, (out, err[-2000:])
    assert "SORT_SHUFFLE" in out, (out, err[-2000:])
