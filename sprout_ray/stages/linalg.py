"""Distributed linear algebra over embedding columns.

Top principal component by power iteration: the covariance operator is
never materialized — each block contributes the d-vector partial
``Xc^T (Xc @ v)`` (Xc = block rows centered by the broadcast mean), so one
iteration is ONE streaming pass whose driver exchange is O(blocks × d)
floats, the same shape as the k-means partials (stages/cluster.py) and the
PageRank k-vector reductions (stages/graph.py). No SQL oracle exists for
an eigenvector, so the query carries its accuracy in-band (Rayleigh
quotient history is monotone for power iteration on a PSD operator;
residual ``||Cv - λv|| / λ`` is reported per run) and pytest pins the
result against ``numpy.linalg.eigh`` on the same data.

The reference has no linear-algebra ops; this is the training-data
extension family (embedding whitening / compression diagnostics).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _partial_rows(vec: np.ndarray) -> pa.Table:
    return pa.table(
        {
            "dim": pa.array(np.arange(len(vec), dtype=np.int64)),
            "part": pa.array(vec.astype(np.float64)),
        }
    )


def _reduce_vec(ds_rows, d: int) -> np.ndarray:
    from .agg import collect_table

    t = collect_table(
        ds_rows, pa.schema([("dim", pa.int64()), ("part", pa.float64())])
    )
    out = np.zeros(d, dtype=np.float64)
    np.add.at(
        out,
        t["dim"].to_numpy(zero_copy_only=False),
        t["part"].to_numpy(zero_copy_only=False),
    )
    return out


def covariance_apply(ds, mean: np.ndarray, v: np.ndarray, n_rows: float, emb_col: str):
    """One streaming pass computing ``C @ v`` for the sample covariance of
    the (materialized) dataset's embedding column: per-block d-vector
    partials, order-free float64 driver reduce."""
    import ray

    from ..stages.similarity import _emb_matrix

    mv_ref = ray.put((mean, v))

    def cov_partials(t: pa.Table) -> pa.Table:
        mu, vv = ray.get(mv_ref)
        x = _emb_matrix(t[emb_col], dtype=np.float64)
        if not x.size:
            return _partial_rows(np.zeros(len(vv)))
        xc = x - mu
        return _partial_rows(xc.T @ (xc @ vv))

    return (
        _reduce_vec(ds.map_batches(cov_partials, batch_format="pyarrow"), len(v))
        / n_rows
    )


def top_principal_component(
    ds,
    emb_col: str = "embedding",
    iterations: int = 100,
    tol: float = 1e-12,
    max_exact_dim: int = 512,
):
    """Top eigenpair of the sample covariance of ``ds[emb_col]``, size-
    gated between two plans:

    - d <= ``max_exact_dim``: ONE streaming pass reduces the centered
      Gram matrix (O(blocks x d^2) float partials — ~2 MB per block at
      d=512) and the driver takes ``numpy.linalg.eigh`` of the d x d
      result. Exact, eigengap-independent — embedding tables with
      near-degenerate spectra (random-ish corpora) are the NORM, and
      power iteration's convergence rate (lambda2/lambda1)^k collapses
      there.
    - d > ``max_exact_dim``: power iteration, one pass per step with
      O(blocks x d) partials, Rayleigh-plateau stopping.

    Returns ``(v, eigval, mean, n_rows, history)`` with a deterministic
    sign convention (the largest-|loading| dimension is positive; ties
    broken by lowest dim index). Determinism: fixed start vector, every
    per-block partial an order-free float64 sum reduced with
    ``np.add.at`` in dim order."""
    from ..stages.similarity import _emb_matrix

    ds = ds.materialize()  # consumed by the mean pass + every iteration

    def mean_partials(t: pa.Table) -> pa.Table:
        x = _emb_matrix(t[emb_col], dtype=np.float64)
        s = x.sum(axis=0) if x.size else np.zeros(x.shape[1] if x.ndim == 2 else 0)
        tbl = _partial_rows(s)
        return tbl.append_column(
            "n", pa.array(np.full(tbl.num_rows, float(len(x))))
        )

    from .agg import collect_table

    mt = collect_table(
        ds.map_batches(mean_partials, batch_format="pyarrow"),
        pa.schema(
            [("dim", pa.int64()), ("part", pa.float64()), ("n", pa.float64())]
        ),
    )
    if mt.num_rows == 0:
        raise ValueError("top_principal_component: empty input")
    dims = mt["dim"].to_numpy(zero_copy_only=False)
    d = int(dims.max()) + 1
    mean = np.zeros(d)
    np.add.at(mean, dims, mt["part"].to_numpy(zero_copy_only=False))
    # every non-empty block emits exactly one dim-0 row carrying its count
    n_rows = float(mt.filter(pc.equal(mt["dim"], 0))["n"].to_numpy().sum())
    if n_rows == 0:
        raise ValueError("top_principal_component: zero rows")
    mean /= n_rows

    if d <= max_exact_dim:
        import ray

        m_ref = ray.put(mean)

        def gram_partials(t: pa.Table) -> pa.Table:
            mu = ray.get(m_ref)
            x = _emb_matrix(t[emb_col], dtype=np.float64)
            if not x.size:
                g = np.zeros((len(mu), len(mu)))
            else:
                xc = x - mu
                g = xc.T @ xc
            return pa.table(
                {
                    "dim": pa.array(np.arange(len(mu) ** 2, dtype=np.int64)),
                    "part": pa.array(g.ravel()),
                }
            )

        flat = _reduce_vec(
            ds.map_batches(gram_partials, batch_format="pyarrow"), d * d
        )
        cov = flat.reshape(d, d) / n_rows
        evals, evecs = np.linalg.eigh((cov + cov.T) / 2.0)
        v, eigval = evecs[:, -1], float(evals[-1])
        pivot = int(np.argmax(np.abs(v)))
        if v[pivot] < 0:
            v = -v
        return v, eigval, mean, int(n_rows), [eigval]

    v = np.ones(d) / np.sqrt(d)
    history: list[float] = []
    eigval = 0.0
    for _ in range(iterations):
        w = covariance_apply(ds, mean, v, n_rows, emb_col)
        lam = float(v @ w)
        history.append(lam)
        nw = float(np.linalg.norm(w))
        if nw == 0:
            eigval = 0.0
            break
        v = w / nw
        eigval = lam
        if len(history) > 1 and abs(history[-1] - history[-2]) <= tol * max(
            abs(history[-1]), 1.0
        ):
            break

    # deterministic sign: largest-|loading| dim (lowest index on ties) > 0
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        v = -v
    return v, eigval, mean, int(n_rows), history


def fd_build(ds, l: int = 64, emb_col: str = "embedding"):
    """Distributed Frequent Directions build over an embedding column.

    One ``build_sketch``: the per-block partials are whole FD sketches
    (l x d floats, sketch-sized by construction), tree-merged by the same
    path as every scalar sketch. The 10^12-row shape: each block ships one
    <= l x d matrix; nothing else moves."""
    from ..kernel.sketch import SketchSpec
    from .builder import build_sketch

    return build_sketch(ds, SketchSpec.of("fd", l), on=emb_col)


def exact_gram(ds, emb_col: str = "embedding") -> tuple[np.ndarray, int]:
    """One-pass exact uncentered Gram A^T A (d x d driver floats; gate on
    d before calling — d^2 partials per block)."""
    def gram_partials(t: pa.Table) -> pa.Table:
        from .similarity import _emb_matrix

        x = _emb_matrix(t[emb_col], dtype=np.float64)
        if not x.size:
            return pa.table(
                {"dim": pa.array([], pa.int64()), "part": pa.array([], pa.float64()),
                 "n": pa.array([], pa.float64())}
            )
        g = x.T @ x
        d = x.shape[1]
        tbl = pa.table(
            {
                "dim": pa.array(np.arange(d * d, dtype=np.int64)),
                "part": pa.array(g.ravel()),
            }
        )
        return tbl.append_column("n", pa.array(np.full(d * d, float(len(x)))))

    from .agg import collect_table

    t = collect_table(
        ds.map_batches(gram_partials, batch_format="pyarrow"),
        pa.schema([("dim", pa.int64()), ("part", pa.float64()), ("n", pa.float64())]),
    )
    if t.num_rows == 0:
        raise ValueError("exact_gram: empty input")
    dims = t["dim"].to_numpy(zero_copy_only=False)
    d = int(np.sqrt(float(dims.max()) + 1.0) + 0.5)
    flat = np.zeros(d * d)
    np.add.at(flat, dims, t["part"].to_numpy(zero_copy_only=False))
    n_rows = int(t.filter(pc.equal(t["dim"], 0))["n"].to_numpy().sum())
    return flat.reshape(d, d), n_rows
