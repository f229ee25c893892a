"""The reference GEMM of the fault model, which the engines' tests compare
against.

A permanent stuck-at fault forces one bit of the 16-bit two's complement
product pattern of a MAC to 0 (sa0) or 1 (sa1) on every multiply; a
bypassed MAC's products are 0. This module is written from that model, not
from ``axfault.faults``: ``gemm`` reads every product from
``Multiplier.table``, forces its stuck bits with per-product (or, and)
masks and sums in int64. Each fault description becomes masks in one
function:

* ``systolic_masks``: weight (r, c) sits on MAC (r mod n, c mod n) of an
  n x n array, and every product it forms carries that MAC's fault;
* ``tile_masks``: one tile x tile block of the output grid is damaged, and
  every product along the reduction of a damaged output carries the fault.
"""

import math

import numpy as np


def _stuck(fault):
    """(or, and) masks that force the fault's bit to 1 (sa1) or 0 (sa0)."""
    bit = 1 << fault.bit
    return (bit, 0xFFFF) if fault.kind == "sa1" else (0, 0xFFFF ^ bit)


def _fault_free(shape):
    return np.zeros(shape, dtype=np.uint16), np.full(shape, 0xFFFF, dtype=np.uint16)


def systolic_masks(fm, mode, shape):
    """(or, and) masks, each (rows, depth, 1) uint16, of the products of a
    (rows, depth) weight matrix on the array of fault map ``fm`` (None:
    fault-free) in ``mode``, "propagate" or "bypass". In "bypass" a faulty
    MAC's masks are (0, 0)."""
    or_m, and_m = _fault_free((*shape, 1))
    for (i, j), f in ({} if fm is None else fm.entries).items():
        masks = (0, 0) if mode == "bypass" else _stuck(f)
        or_m[i::fm.n, j::fm.n], and_m[i::fm.n, j::fm.n] = masks
    return or_m, and_m


def tile_masks(tf, tile, rows, batch):
    """(or, and) masks, each (rows, 1, batch) uint16, of the products of a
    (rows, batch) output grid of tile x tile blocks with the damaged block
    of ``tf`` (None: fault-free). Block ``tf.tile_index``, counted
    row-major, holds ceil(fraction * tile^2) damaged outputs, drawn by
    ``default_rng(seed).choice`` from its tile^2 positions, row-major;
    those off a ragged edge block do not exist."""
    or_m, and_m = _fault_free((rows, 1, batch))
    count = 0 if tf is None else math.ceil(tf.damaged_fraction * tile * tile)
    if count:
        block = np.zeros(tile * tile, dtype=bool)
        block[np.random.default_rng(tf.seed).choice(tile * tile, size=count, replace=False)] = True
        bi, bj = divmod(tf.tile_index, -(-batch // tile))
        grid = np.zeros((-(-rows // tile) * tile, -(-batch // tile) * tile), dtype=bool)
        grid[bi * tile : (bi + 1) * tile, bj * tile : (bj + 1) * tile] = block.reshape(tile, tile)
        hit = grid[:rows, :batch]
        or_m[:, 0][hit], and_m[:, 0][hit] = _stuck(tf.fault)
    return or_m, and_m


def gemm(w, a, m, masks=None):
    """out[r, b] = sum over c of the product of ``a[c, b]`` and ``w[r, c]``
    under multiplier ``m``, with the bits of ``masks`` forced, in int64.

    ``masks`` is (or, and), broadcastable to (rows, depth, batch), as
    ``systolic_masks`` and ``tile_masks`` give them; None is fault-free.
    """
    rows, depth = w.shape
    batch = a.shape[1]
    or_m, and_m = _fault_free((rows, 1, 1)) if masks is None else masks
    # rows of equal weights and masks have equal sums: form each once
    number = {}
    inverse = np.array([number.setdefault((w[r].tobytes(), or_m[r].tobytes(),
                                           and_m[r].tobytes()), len(number))
                        for r in range(rows)])
    u = np.unique(inverse, return_index=True)[1]
    # the table holds the product of activation x and weight y at
    # (x + 128) * 256 + y + 128
    wi = w[u, :, None].astype(np.intp) + 128
    ai = (a.astype(np.intp)[None] + 128) << 8
    om = np.broadcast_to(or_m[u], (u.size, depth, batch))
    am = np.broadcast_to(and_m[u], (u.size, depth, batch))
    out = np.empty((u.size, batch), dtype=np.int64)
    chunk = max(1, (1 << 22) // (u.size * depth))
    for b0 in range(0, batch, chunk):
        b = slice(b0, b0 + chunk)
        p = m.table.take(ai[:, :, b] + wi).view(np.uint16)
        out[:, b] = ((p & am[:, :, b]) | om[:, :, b]).view(np.int16).sum(axis=1, dtype=np.int64)
    return out[inverse]
