"""Distributed k-means over an embedding column — the curation
primitive behind cluster-then-dedup pipelines (SemDeDup-style) and
IVF-like partitioning.

Ray-Data shape (classic Lloyd's, one broadcast + one combiner pass per
iteration):

  * ASSIGN: centroids ride the object store (``ray.put`` once per
    iteration); each ``map_batches`` task computes nearest-centroid
    labels for its batch with one vectorized numpy distance matrix.
  * UPDATE: each batch emits k partial rows (cluster, component sums,
    count) — the pre-aggregated combiner pattern, so the driver only
    ever reduces k x n_blocks tiny rows, never a data-sized table.

Exact-arithmetic discipline (what makes an ITERATIVE float algorithm
hash-checkable against a DuckDB oracle): embeddings are quantized ONCE
to positive int64 fixed-point (``floor(x * 2^14 + (2^15 + 0.5))`` —
exact in float64 for float32 inputs, half-away == floor(+0.5) because
the offset makes the domain positive), centroid sums/counts stay
integer, means use positive floor division at an extra 2^8 scale, and
distances are integer squared-Euclidean (<= 2^54 for dims <= 64 — no
rounding anywhere, so argmin and every iteration replay bit-exactly in
SQL). Ties pick the lowest cluster index on both sides. Empty clusters
keep their previous (sums, count).

``ds`` is executed ``iters + 1`` times — pass a re-readable source
(e.g. a parquet read), not an expensive unmaterialized pipeline.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

#: fixed-point scales: value quantization, positivity offset, mean scale
_S1, _OFF, _S2 = 16384, 32768, 256


def _quantize(mat: np.ndarray) -> np.ndarray:
    """float embedding matrix -> positive int64 fixed-point (exact for
    |x| < 2 float32 inputs; see module doc)."""
    return np.floor(
        mat.astype(np.float64) * float(_S1) + (_OFF + 0.5)
    ).astype(np.int64)


def _means(sums: np.ndarray, cnts: np.ndarray) -> np.ndarray:
    """Fixed-point centroid means at the _S2 scale: exactly
    ``(_S2 * sums) // cnts`` element-wise, computed by the
    overflow-safe decomposition (valid for the all-positive domain)."""
    c = cnts[:, None]
    return _S2 * (sums // c) + (_S2 * (sums % c)) // c


def _stack(series: pd.Series) -> np.ndarray:
    if not len(series):
        # empty blocks happen after upstream filters; 0 x 0 keeps the
        # downstream matrix ops shape-valid (callers guard on len)
        return np.empty((0, 0), dtype=np.float64)
    return np.stack([np.asarray(v) for v in series])


def _labels(X: np.ndarray, m: np.ndarray) -> np.ndarray:
    # n x k integer squared distances; argmin's first-index rule ==
    # the oracle's (dist, cluster) tie order
    d = (_S2 * X)[:, None, :] - m[None, :, :]
    return (d * d).sum(axis=2).argmin(axis=1)


def _frames(blocks) -> list[pd.DataFrame]:
    """Blocks → pandas inside fold tasks. Arrow blocks drop their
    pandas schema metadata first: Ray tensor-extension dtype strings in
    that metadata do not always resolve inside plain @ray.remote
    workers, and plain inference handles every column type here."""
    import pyarrow as pa

    return [b.replace_schema_metadata(None).to_pandas()
            if isinstance(b, pa.Table) else b
            for b in blocks]


def _partial_table(cl, n, s) -> "object":
    """Combiner partial rows as a PLAIN arrow table — ``s`` is
    list<int64>, never an ndarray object column, so downstream fold
    tasks can ``to_pandas`` without Ray's tensor extension dtype (whose
    pandas metadata does not resolve inside plain @ray.remote
    workers)."""
    import pyarrow as pa

    return pa.table({
        "cl": pa.array(cl, pa.int64()),
        "n": pa.array(n, pa.int64()),
        "s": pa.array(s, pa.list_(pa.int64()))})


@ray.remote
def _init_state(k: int, emb_col: str, *blocks):
    """Fold the k-smallest-id rows into the initial (sums, counts) —
    a Ray task, so no embedding row lands on the driver."""
    frames = _frames(blocks)
    init = (pd.concat(frames, ignore_index=True) if frames
            else pd.DataFrame({emb_col: []}))
    if len(init) < k:
        raise ValueError(
            f"k={k} exceeds the dataset's {len(init)} rows — "
            "k-means needs at least k vectors for its id-ordered init"
        )
    return _quantize(_stack(init[emb_col])), np.ones(k, dtype=np.int64)


@ray.remote
def _fold_state(state, *blocks):
    """Reduce one iteration's k x n_blocks combiner partials into the
    next (sums, counts) — a Ray task (the ops/graph.py
    _fold_node_table pattern), so per-iteration partials never land
    on the driver. Clusters no point chose keep their previous state."""
    sums, cnts = state
    parts = pd.concat(_frames(blocks), ignore_index=True)
    new_sums, new_cnts = sums.copy(), cnts.copy()
    for j, grp in parts.groupby("cl"):
        new_sums[j] = np.sum(np.stack(grp["s"].to_numpy()), axis=0)
        new_cnts[j] = int(grp["n"].sum())
    return new_sums, new_cnts


@ray.remote
def _state_means(state) -> np.ndarray:
    return _means(*state)


def _fit_centroids(
    ds: ray.data.Dataset, k: int, iters: int,
    id_col: str, emb_col: str,
) -> "ray.ObjectRef":
    """Run the Lloyd iterations and return an ObjectRef to the final
    fixed-point centroid means (k x dim int64) — init, per-iteration
    partial folds, and the final means all run as Ray tasks; the
    driver holds only ObjectRefs. Init: the embeddings of the ``k``
    smallest ids, in id order (deterministic, no RNG)."""
    if k < 1 or iters < 0:
        raise ValueError(f"bad k={k} / iters={iters}")

    init_blocks = ds.sort(id_col).limit(k).materialize().to_arrow_refs()
    state = _init_state.remote(k, emb_col, *init_blocks)

    for _ in range(iters):
        sref = state

        def partial(df: pd.DataFrame, _sref=sref):
            if not len(df):
                return _partial_table([], [], [])
            s, c = ray.get(_sref)
            X = _quantize(_stack(df[emb_col]))
            a = _labels(X, _means(s, c))
            out = {"cl": [], "n": [], "s": []}
            for j in np.unique(a):
                sel = X[a == j]
                out["cl"].append(int(j))
                out["n"].append(len(sel))
                out["s"].append(sel.sum(axis=0).tolist())
            return _partial_table(out["cl"], out["n"], out["s"])

        parts = ds.map_batches(partial,
                               batch_format="pandas").materialize()
        state = _fold_state.remote(state, *parts.to_arrow_refs())

    return _state_means.remote(state)


def kmeans_embeddings(
    ds: ray.data.Dataset,
    k: int = 4,
    iters: int = 2,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> ray.data.Dataset:
    """Lloyd's k-means: ``iters`` assign+update rounds, then a final
    assignment pass under the final centroids. Returns
    ``(id_col, cluster)``."""
    final_ref = _fit_centroids(ds, k, iters, id_col, emb_col)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {id_col: df[id_col], "cluster": pd.Series([], dtype="int64")}
            )
        m = ray.get(final_ref)
        X = _quantize(_stack(df[emb_col]))
        return pd.DataFrame(
            {id_col: df[id_col].to_numpy(),
             "cluster": _labels(X, m).astype(np.int64)}
        )

    return ds.map_batches(assign, batch_format="pandas")


def semdedup(
    ds: ray.data.Dataset,
    k: int = 4,
    iters: int = 2,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> ray.data.Dataset:
    """Cluster-then-dedup (the SemDeDup recipe): partition vectors
    with :func:`kmeans_embeddings`' centroids, then inside each
    cluster drop every vector that has a LOWER-id neighbor at cosine
    >= ``threshold`` (first-occurrence-wins, no transitive closure —
    per the paper's keep-one-per-neighborhood rule). Returns surviving
    ``(id_col, cluster)`` rows.

    Scale shape: the only all-to-all is the ``groupby(cluster)`` of
    (id, cluster, vector) rows; within a cluster the comparison is one
    normalized float64 matmul. The partitioning assumption is the
    algorithm's own: ``k`` is chosen so a cluster fits one worker
    (web-scale SemDeDup runs k in the tens of thousands for exactly
    this reason). Cosine verification matches
    :func:`~web_scraper_ray.ops.dedup.embedding_dup_pairs` (float64,
    zero-norm guard)."""
    final_ref = _fit_centroids(ds, k, iters, id_col, emb_col)

    def assign_with_vec(df: pd.DataFrame) -> pd.DataFrame:
        out = df[[id_col, emb_col]].copy()
        if not len(df):
            out["cluster"] = pd.Series([], dtype="int64")
            return out
        m = ray.get(final_ref)
        X = _quantize(_stack(df[emb_col]))
        out["cluster"] = _labels(X, m).astype(np.int64)
        return out

    def drop_in_cluster(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="mergesort")
        mat = _stack(g[emb_col]).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = mat / norms
        sim = unit @ unit.T
        lower = np.tril(np.ones(sim.shape, dtype=bool), k=-1)
        dropped = ((sim >= threshold) & lower).any(axis=1)
        return g.loc[~dropped, [id_col, "cluster"]]

    return (
        ds.map_batches(assign_with_vec, batch_format="pandas")
        .groupby("cluster")
        .map_groups(drop_in_cluster, batch_format="pandas")
    )


def embedding_outliers(
    ds: ray.data.Dataset,
    k: int = 4,
    iters: int = 2,
    q_pct: int = 90,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> ray.data.Dataset:
    """Distance-to-centroid outlier detection — the curation gate that
    flags vectors sitting in their cluster's far tail (mislabeled /
    noisy / off-distribution embeddings). Returns
    ``(id, cluster, dist_q)`` for every vector whose INTEGER squared
    distance to its assigned centroid strictly exceeds the cluster's
    exact ``q_pct``-percentile distance (the stats-module integer
    quantile rule: the value at 1-based rank ``(q*n + 99) // 100`` of
    the sorted distances).

    Everything stays in the module's fixed-point arithmetic, so the
    per-cluster thresholds and the flag set replay bit-exactly in SQL
    (``__ray_entry__.oracle_sql()['embedding_outliers']``). One
    all-to-all: the ``groupby(cluster)`` of (id, cluster, d) int rows
    (k clusters — the coarse key IS the semantic key here)."""
    final_ref = _fit_centroids(ds, k, iters, id_col, emb_col)

    def assign_with_dist(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({id_col: df[id_col],
                                 "cluster": pd.Series([], dtype="int64"),
                                 "dist_q": pd.Series([], dtype="int64")})
        m = ray.get(final_ref)
        X = _quantize(_stack(df[emb_col]))
        diff = (_S2 * X)[:, None, :] - m[None, :, :]
        dists = (diff * diff).sum(axis=2)
        a = dists.argmin(axis=1)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "cluster": a.astype(np.int64),
            "dist_q": dists[np.arange(len(a)), a].astype(np.int64),
        })

    def tail_of_cluster(g: pd.DataFrame) -> pd.DataFrame:
        d = g["dist_q"].to_numpy(dtype=np.int64)
        target = (q_pct * len(d) + 99) // 100
        thr = np.partition(d, target - 1)[target - 1]
        return g.loc[g["dist_q"] > thr, [id_col, "cluster", "dist_q"]]

    return (ds.map_batches(assign_with_dist, batch_format="pandas")
            .groupby("cluster")
            .map_groups(tail_of_cluster, batch_format="pandas"))
