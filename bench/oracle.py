"""Reference GEMMs that the benchmark checks the simulator's GEMM calls against.

The oracle is written from the fault model, not from the engines' code: it
gathers every product from ``Multiplier.table`` (index ``(a + 128) << 8 |
(w + 128)``, activation first), forces the stuck bit on products formed on a
faulty MAC (or zeroes them in ``bypass`` mode), and sums in int64.

* systolic: weight (r, c) sits on MAC (r mod n, c mod n), so the products
  of fault (i, j) are the strided slice ``p[i::n, j::n]``.
* gpu_tiles: output block ``tile_index`` (row-major over the rows x batch
  block grid) holds ``ceil(fraction * tile^2)`` damaged output positions,
  drawn by ``default_rng(seed).choice(tile * tile, count, replace=False)``;
  every product along the reduction of a damaged output is corrupted.

Only a sample of output columns is formed, so the check stays cheap on
wide conv GEMMs; the sample always holds every column of a damaged block.
"""

from __future__ import annotations

import contextlib
import inspect
import math

import numpy as np

GEMM_NAMES = ("systolic_gemm", "gpu_tile_gemm")


def products(table: np.ndarray, wq: np.ndarray, aq: np.ndarray) -> np.ndarray:
    """int16 products p[r, c, b] = table[aq[c, b], wq[r, c]]."""
    a_idx = (aq.astype(np.int32) + 128) << 8
    w_idx = wq.astype(np.int32) + 128
    return table[a_idx[None, :, :] | w_idx[:, :, None]]


def force_bit(p: np.ndarray, bit: int, kind: str) -> np.ndarray:
    """Stuck-at value of int16 product patterns."""
    u = p.view(np.uint16)
    one = np.uint16(1 << bit)
    return (u | one if kind == "sa1" else u & ~one).view(np.int16)


def systolic_ref(wq, aq, table, fm, mode: str) -> np.ndarray:
    p = products(table, wq, aq)
    if fm is not None:
        n = fm.n
        for (i, j), f in fm.entries.items():
            block = p[i::n, j::n]
            block[...] = 0 if mode == "bypass" else force_bit(block, f.bit, f.kind)
    return p.sum(axis=1, dtype=np.int64)


def tile_damage(tf, tile: int) -> list:
    """(row, col) offsets of the damaged MACs inside the damaged block."""
    count = math.ceil(tf.damaged_fraction * tile * tile)
    if count == 0:
        return []
    flat = np.random.default_rng(tf.seed).choice(tile * tile, size=count, replace=False)
    return [divmod(int(x), tile) for x in flat]


def damaged_block(tf, tile: int, rows: int, batch: int):
    """(row range, column range) of the damaged output block, or None."""
    if tf is None:
        return None
    nbb = -(-batch // tile)
    bi, bj = divmod(tf.tile_index, nbb)
    return (range(bi * tile, min(rows, (bi + 1) * tile)),
            range(bj * tile, min(batch, (bj + 1) * tile)))


def gpu_tile_ref(wq, aq, table, tf, tile: int, cols: np.ndarray) -> np.ndarray:
    rows, batch = wq.shape[0], aq.shape[1]
    p = products(table, wq, aq[:, cols])
    block = damaged_block(tf, tile, rows, batch)
    if block is not None:
        rr, cc = block
        where = {int(c): k for k, c in enumerate(cols)}
        for u, v in tile_damage(tf, tile):
            if u < len(rr) and v < len(cc) and cc[v] in where:
                r, k = rr[u], where[cc[v]]
                p[r, :, k] = force_bit(p[r, :, k], tf.fault.bit, tf.fault.kind)
    return p.sum(axis=1, dtype=np.int64)


def sample_columns(kind: str, bound: dict, rng, k: int) -> np.ndarray:
    """Up to ``k`` random output columns plus the whole damaged block."""
    wq, aq = bound["wq"], bound["aq"]
    batch = aq.shape[1]
    cols = set(rng.choice(batch, size=min(k, batch), replace=False).tolist())
    if kind == "gpu_tile_gemm":
        block = damaged_block(bound["tf"], bound["tile"], wq.shape[0], batch)
        if block is not None:
            cols.update(block[1])
    return np.array(sorted(cols))


def reference(kind: str, bound: dict, cols: np.ndarray, table=None) -> np.ndarray:
    """Oracle output for the sampled columns of one recorded GEMM call.

    ``table`` overrides the multiplier's table (the self-tests use it to
    plant a wrong product)."""
    table = bound["m"].table if table is None else table
    if kind == "systolic_gemm":
        return systolic_ref(bound["wq"], bound["aq"][:, cols], table,
                            bound["fm"], bound["cfg"].mode)
    return gpu_tile_ref(bound["wq"], bound["aq"], table, bound["tf"],
                        bound["tile"], cols)


def call_matches(kind: str, bound: dict, out: np.ndarray, rng, k: int = 48,
                 table=None) -> bool:
    cols = sample_columns(kind, bound, rng, k)
    ref = reference(kind, bound, cols, table)
    return bool(np.array_equal(np.asarray(out)[:, cols].astype(np.int64), ref))


@contextlib.contextmanager
def recording(network_module):
    """Record (kind, bound arguments, output) of every GEMM the network
    module dispatches while the context is open."""
    calls = []
    originals = {name: getattr(network_module, name) for name in GEMM_NAMES}

    def recorder(name, fn):
        sig = inspect.signature(fn)

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs).arguments
            calls.append((name, dict(bound), out))
            return out

        return wrapped

    for name, fn in originals.items():
        setattr(network_module, name, recorder(name, fn))
    try:
        yield calls
    finally:
        for name, fn in originals.items():
            setattr(network_module, name, fn)
