"""Similarity search over an embedding column (``list<float>``).

* ``brute_force_topk`` — the exact baseline: per-batch float64 matmul
  against a broadcast query matrix (``ray.put`` once, read per task),
  local top-k per batch, global top-k by sort+limit. The shuffle only
  ever moves ``k × num_blocks`` candidate rows, never the corpus.
* ``ivf_topk`` — the scale path: deterministic coarse quantization
  (seeded projection argmax = "IVF lists" without a training step),
  probe the query's nearest ``n_probe`` lists only; exact rerank inside
  the probed lists. Recall < 1 by construction; tested against the
  brute-force baseline.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data


def _unit(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def brute_force_topk(
    ds: ray.data.Dataset,
    query_vec: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    extra_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Exact cosine top-k. Ties broken by ascending id (deterministic)."""
    q = _unit(np.asarray(query_vec, dtype=np.float64).reshape(1, -1))
    q_ref = ray.put(q)

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        out = df[[id_col, *extra_cols]].copy()
        if not len(df):  # np.stack raises on empty blocks
            out["cosine"] = pd.Series([], dtype="float64")
            return out
        qm = ray.get(q_ref)
        mat = _unit(np.stack(df[vec_col].to_numpy()).astype(np.float64))
        sims = (mat @ qm.T).ravel()
        out["cosine"] = sims
        out = out.sort_values(["cosine", id_col], ascending=[False, True],
                              kind="mergesort")
        return out.head(k)

    local = ds.map_batches(local_topk, batch_format="pandas")
    return local.sort([("cosine"), (id_col)], descending=[True, False]).limit(k)


def quantize_i8(mat: np.ndarray) -> np.ndarray:
    """Per-vector symmetric int8 quantization: ``q_i = floor(x_i *
    127 / max|x| + 0.5)`` (all-zero vectors stay zero). float64
    arithmetic in the exact expression order the SQL twin uses, so
    the codes replay bit-for-bit in DuckDB."""
    m = np.abs(mat).max(axis=1, keepdims=True)
    m[m == 0] = 1.0
    return np.floor(mat * 127.0 / m + 0.5).astype(np.int64)


def quantized_topk(
    ds: ray.data.Dataset,
    query_vec: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    extra_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Top-k by QUANTIZED inner product (MIPS over int8 codes) — the
    memory-bandwidth scale path of the similarity family: at 100 TB
    the embedding table's codes are 4-8× smaller than the floats
    (int8 vs float32/64), scan batches stream that much faster, and
    the scoring kernel is an integer matmul. Retrieval quality is
    approximate vs exact cosine (tested against
    :func:`brute_force_topk` overlap); the SCORES themselves are
    exact integers, so ordering is total (ties by ascending id) and
    the whole op is value-hash-checkable against a SQL oracle —
    unlike float-similarity ranking, which is only as stable as the
    libm of whoever reranks.

    Same shuffle shape as the exact baseline: broadcast quantized
    query, per-batch local top-k, global sort+limit moves only
    ``k × num_blocks`` rows."""
    q = quantize_i8(np.asarray(query_vec, dtype=np.float64).reshape(1, -1))
    q_ref = ray.put(q)

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        out = df[[id_col, *extra_cols]].copy()
        if not len(df):  # np.stack raises on empty blocks
            out["qscore"] = pd.Series([], dtype="int64")
            return out
        qm = ray.get(q_ref)
        mat = np.stack(df[vec_col].to_numpy()).astype(np.float64)
        score = (quantize_i8(mat) @ qm.T).ravel()
        out["qscore"] = score.astype("int64")
        return out.sort_values(["qscore", id_col],
                               ascending=[False, True],
                               kind="mergesort").head(k)

    local = ds.map_batches(local_topk, batch_format="pandas")
    return local.sort(["qscore", id_col], descending=[True, False]).limit(k)


def ivf_topk(
    ds: ray.data.Dataset,
    query_vec: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_lists: int = 16,
    n_probe: int = 4,
    seed: int = 13,
) -> ray.data.Dataset:
    """Probed approximate top-k: filter to the query's ``n_probe``
    nearest lists per batch (cheap projection, no shuffle), exact rerank
    on the survivors."""
    q = np.asarray(query_vec, dtype=np.float64).reshape(1, -1)
    dim = q.shape[1]
    rng = np.random.RandomState(seed)
    proj = rng.standard_normal((dim, n_lists))
    q_scores = (_unit(q) @ proj).ravel()
    probe_lists = frozenset(np.argsort(-q_scores)[:n_probe].tolist())
    probe_ref = ray.put((proj, probe_lists))
    q_ref = ray.put(_unit(q))

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        proj_m, lists = ray.get(probe_ref)
        qm = ray.get(q_ref)
        mat = _unit(np.stack(df[vec_col].to_numpy()).astype(np.float64))
        assign = np.argmax(mat @ proj_m, axis=1)
        mask = np.isin(assign, list(lists))
        if not mask.any():
            return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                                 "cosine": pd.Series([], dtype="float64")})
        sub = mat[mask]
        sims = (sub @ qm.T).ravel()
        out = df.loc[mask, [id_col]].copy()
        out["cosine"] = sims
        return out.sort_values(["cosine", id_col], ascending=[False, True],
                               kind="mergesort").head(k)

    local = ds.map_batches(probe, batch_format="pandas")
    return local.sort([("cosine"), (id_col)], descending=[True, False]).limit(k)
