"""BPE encode (merge application) — a test-pinned, no-SQL-mirror-by-design
op (iterative merges)."""
import pandas as pd
import ray.data

from raykg.ops.bpe import bpe_encode, bpe_train


def ref_encode(text, merges):
    ranked = [(m[1], m[2]) for m in sorted(merges, key=lambda m: m[0])]
    out = []
    for w in text.split():
        syms = list(w)
        for a, b in ranked:
            i, nxt = 0, []
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    nxt.append(a + b)
                    i += 2
                else:
                    nxt.append(syms[i])
                    i += 1
            syms = nxt
    # NOTE: reference applies each merge greedily left-to-right, like
    # the engine's _merge_seq
        out.extend(syms)
    return out


def test_bpe_encode_matches_reference_and_is_partition_invariant(ray_session):
    texts = [
        "low lower lowest low",
        "new newer newest new new",
        "wider wide widest",
        "",
    ]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    ds = ray.data.from_pandas(df)
    merges = bpe_train(ds, num_merges=6, min_count=1, num_shards=4)
    assert len(merges) == 6
    for parts in (1, 3):
        enc = (
            bpe_encode(ray.data.from_pandas(df).repartition(parts), merges)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        for _, row in enc.iterrows():
            want = ref_encode(texts[int(row["doc_id"])], merges)
            assert row["tokens"].split() == want if want else row["tokens"] == ""
            assert row["n_tokens"] == len(want)
