"""Dataset loading and synthesis.

Real data comes from files on disk (IDX image/label pairs, CIFAR-10 binary
batches); nothing here touches the network. For hermetic runs there are two
seeded generators: gaussian blob toy data, and a procedural 28x28
handwritten-digit renderer with MNIST-like statistics (10 classes, dark
background, anti-aliased strokes, per-sample affine jitter) that slots into
any pipeline expecting MNIST-shaped input. A digit costs about 0.14 ms on
one core of a 2-core x86 host (12,000 in 1.6-1.7 s): about 40% of it the
random draws and affine maps, which run digit by digit, and about 30% the
distance field, each segment measured only on the pixels within its reach.
Every step but the draws runs once for a batch of 16 digits.
"""

from __future__ import annotations

import gzip
import os
import struct
from dataclasses import dataclass

import numpy as np

from .faults import _check_int

IDX_UBYTE = 0x08


@dataclass
class Dataset:
    id: str
    images: np.ndarray
    labels: np.ndarray
    n_classes: int = 10

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels disagree on sample count")

    def __len__(self):
        return len(self.images)

    def subset(self, count: int) -> "Dataset":
        """The first ``count`` samples (all of them when fewer); 0 gives an
        empty set. ``ValueError`` for a negative or non-integer count."""
        _check_int("count", count, 0)
        return Dataset(f"{self.id}[:{count}]", self.images[:count],
                       self.labels[:count], self.n_classes)


# ---------------------------------------------------------------------------
# IDX files (big-endian, as published)


def _open_maybe_gz(path, mode):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


def load_idx(path) -> np.ndarray:
    with _open_maybe_gz(path, "rb") as f:
        data = f.read()
    if len(data) < 4 or data[0] != 0 or data[1] != 0:
        raise ValueError(f"{path}: not an IDX file")
    if data[2] != IDX_UBYTE:
        raise ValueError(f"{path}: only ubyte IDX payloads are supported")
    ndim = data[3]
    if len(data) < 4 + 4 * ndim:
        raise ValueError(f"{path}: truncated IDX header")
    dims = struct.unpack(f">{ndim}I", data[4 : 4 + 4 * ndim])
    count = int(np.prod(dims))
    payload = data[4 + 4 * ndim :]
    if len(payload) != count:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, header says {count}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def save_idx(arr: np.ndarray, path) -> None:
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    with _open_maybe_gz(path, "wb") as f:
        f.write(bytes([0, 0, IDX_UBYTE, arr.ndim]))
        f.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        f.write(arr.tobytes())


def load_idx_pair(images_path, labels_path, dataset_id: str,
                  n_classes: int = 10) -> Dataset:
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if labels.ndim != 1:
        raise ValueError("label file must be 1-d")
    return Dataset(dataset_id, images.astype(np.float64) / 255.0,
                   labels.astype(np.int64), n_classes)


_MNIST_NAMES = {
    "train-images": ["train-images-idx3-ubyte", "train-images.idx3-ubyte"],
    "train-labels": ["train-labels-idx1-ubyte", "train-labels.idx1-ubyte"],
    "test-images": ["t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte",
                    "test-images-idx3-ubyte", "test-images.idx"],
    "test-labels": ["t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte",
                    "test-labels-idx1-ubyte", "test-labels.idx"],
}


def find_idx_layout(directory) -> dict | None:
    """Locate a standard MNIST-style IDX file quartet (plain or .gz)."""
    if not directory or not os.path.isdir(directory):
        return None
    found = {}
    for key, names in _MNIST_NAMES.items():
        for name in names:
            for suffix in ("", ".gz"):
                p = os.path.join(str(directory), name + suffix)
                if os.path.exists(p):
                    found[key] = p
                    break
            if key in found:
                break
        if key not in found:
            return None
    return found


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches


def load_cifar10_batches(paths, dataset_id: str) -> Dataset:
    """Each record is 1 label byte + 3072 bytes of channel-planar 32x32 RGB."""
    images, labels = [], []
    for path in paths:
        with _open_maybe_gz(path, "rb") as f:
            raw = f.read()
        if len(raw) % 3073:
            raise ValueError(f"{path}: size is not a multiple of 3073")
        rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3073)
        labels.append(rec[:, 0])
        images.append(rec[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1))
    img = np.concatenate(images).astype(np.float64) / 255.0
    lab = np.concatenate(labels).astype(np.int64)
    return Dataset(dataset_id, img, lab, 10)


# ---------------------------------------------------------------------------
# synthetic data


def synth_blobs(n_classes: int = 3, count: int = 300, dim: int = 8,
                seed: int = 0) -> Dataset:
    """Seeded gaussian blobs scaled into [0, 1]; tiny and fast.

    Class means depend only on (n_classes, dim), so two calls with
    different seeds sample train and test sets of the same problem.
    """
    for name, value, lo in (("n_classes", n_classes, 1), ("count", count, 1),
                            ("dim", dim, 1), ("seed", seed, 0)):
        _check_int(name, value, lo)
    mean_rng = np.random.default_rng([n_classes, dim, 0xB10B])
    means = mean_rng.uniform(-2.0, 2.0, size=(n_classes, dim))
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=count)
    x = means[labels] + rng.normal(0.0, 0.45, size=(count, dim))
    x = np.clip((x + 3.35) / 6.7, 0.0, 1.0)  # fixed affine into [0, 1]
    return Dataset(f"blobs-{n_classes}c-{count}-s{seed}", x, labels, n_classes)


def _arc(cx, cy, rx, ry, a0, a1, steps=14):
    t = np.linspace(a0, a1, steps)
    return np.stack([cx + rx * np.cos(t), cy + ry * np.sin(t)], axis=1)


def _digit_strokes() -> dict:
    """Stroke templates per digit: one or more handwriting styles, each a
    list of polylines in a unit box (y grows down)."""
    pi = np.pi
    s = {
        0: [[_arc(0.50, 0.50, 0.30, 0.40, 0, 2 * pi, 22)],
            [_arc(0.50, 0.50, 0.24, 0.42, 0, 2 * pi, 22)]],
        1: [[np.array([[0.33, 0.26], [0.55, 0.10], [0.55, 0.90]])],
            [np.array([[0.50, 0.10], [0.50, 0.90]])]],
        2: [[np.concatenate([
            _arc(0.50, 0.32, 0.28, 0.22, -pi, 0.0, 12),
            np.array([[0.74, 0.42], [0.22, 0.90], [0.80, 0.90]]),
        ])]],
        3: [[_arc(0.45, 0.30, 0.28, 0.20, -pi, 0.5 * pi, 14),
             _arc(0.45, 0.68, 0.30, 0.24, -0.5 * pi, pi, 14)]],
        4: [[np.array([[0.60, 0.10], [0.18, 0.62], [0.85, 0.62]]),
             np.array([[0.64, 0.30], [0.64, 0.92]])],
            [np.array([[0.30, 0.10], [0.25, 0.55], [0.80, 0.55]]),
             np.array([[0.65, 0.10], [0.62, 0.92]])]],
        5: [[np.concatenate([
            np.array([[0.75, 0.10], [0.28, 0.10], [0.27, 0.45], [0.45, 0.45]]),
            _arc(0.45, 0.68, 0.27, 0.23, -0.5 * pi, 0.95 * pi, 14),
        ])]],
        6: [[np.array([[0.68, 0.10], [0.45, 0.30], [0.33, 0.55]]),
             _arc(0.48, 0.70, 0.21, 0.20, 0, 2 * pi, 18)]],
        7: [[np.array([[0.20, 0.12], [0.80, 0.12], [0.42, 0.90]])],
            [np.array([[0.20, 0.12], [0.80, 0.12], [0.42, 0.90]]),
             np.array([[0.35, 0.50], [0.68, 0.50]])]],
        8: [[_arc(0.50, 0.30, 0.20, 0.19, 0, 2 * pi, 18),
             _arc(0.50, 0.70, 0.24, 0.21, 0, 2 * pi, 18)]],
        9: [[_arc(0.50, 0.32, 0.21, 0.21, 0, 2 * pi, 18),
             np.array([[0.71, 0.35], [0.66, 0.60], [0.55, 0.90]])],
            [_arc(0.50, 0.30, 0.21, 0.20, 0, 2 * pi, 18),
             np.array([[0.71, 0.33], [0.71, 0.90]])]],
    }
    return s


def _blur3(pad: np.ndarray) -> np.ndarray:
    """3x3 binomial blur of the interior of zero-bordered images (the last
    two axes)."""
    out = (
        4 * pad[..., 1:-1, 1:-1]
        + 2 * (pad[..., :-2, 1:-1] + pad[..., 2:, 1:-1] + pad[..., 1:-1, :-2]
               + pad[..., 1:-1, 2:])
        + pad[..., :-2, :-2] + pad[..., :-2, 2:] + pad[..., 2:, :-2] + pad[..., 2:, 2:]
    )
    return out / 16.0


# digits rendered together: enough to spread numpy's per-call cost, few
# enough that the (segment, pixel) arrays stay in cache (32 was no faster,
# and its render peaked 1.3 MB higher)
_CHUNK = 16
# the anti-aliasing half-width of a stroke's edge, in px
_AA = 0.7
# pixel centres along either axis
_CENTRES = np.arange(28) + 0.5


def _draw_digit(styles, rng) -> tuple:
    """``(a, b, coarse, noise, thick, peak, amp)``: every draw of one digit,
    in the renderer's order, with its segments a->b before the warp, its
    (2, 4, 4) warp field and its (28, 28) noise. The noise follows the warp
    field at once: the distance field, whose place is between them, draws
    nothing."""
    strokes = styles[int(rng.integers(len(styles)))]
    theta = rng.uniform(-0.25, 0.25)
    sx, sy = rng.uniform(0.78, 1.16, size=2)
    shear = rng.uniform(-0.22, 0.22)
    tx, ty = rng.uniform(-2.5, 2.5, size=2)
    thick = rng.uniform(0.8, 2.0)
    peak = rng.uniform(0.65, 1.0)
    amp = rng.uniform(0.8, 2.0)

    ct, st = np.cos(theta), np.sin(theta)
    rot = np.array([[ct, -st], [st, ct]]).T
    affine = np.array([[sx, 0.0], [shear * sx, sy]]).T
    shift = np.array([tx, ty])
    segs_a, segs_b = [], []
    for pts in strokes:
        p = pts + rng.normal(0.0, 0.025, size=pts.shape)
        p = (p - 0.5) @ affine
        p = p @ rot + 0.5
        px = p * 20.0 + 4.0 + shift
        segs_a.append(px[:-1])
        segs_b.append(px[1:])
    coarse = rng.normal(0.0, 1.0, size=(2, 4, 4))
    noise = rng.normal(0.0, 0.08, (28, 28))
    return np.concatenate(segs_a), np.concatenate(segs_b), coarse, noise, thick, peak, amp


def _warp_points(px: np.ndarray, coarse: np.ndarray, amp: np.ndarray,
                 owner: np.ndarray) -> np.ndarray:
    """Displace points by smooth random fields (coarse grid, bilinear):
    point p by field ``coarse[:, owner[p]]`` (of shape (2, digits, 4, 4))
    times ``amp[owner[p]]``."""
    u = np.clip(px / 28.0 * 3.0, 0.0, 3.0 - 1e-9)
    i0 = np.floor(u).astype(int)
    f = u - i0
    ix, iy, fx, fy = i0[:, 0], i0[:, 1], f[:, 0], f[:, 1]
    gx = 1 - fx
    gy = 1 - fy
    # both axes at once, each product formed left to right as (g * wx) * wy
    shift = (
        coarse[:, owner, iy, ix] * gx * gy
        + coarse[:, owner, iy, ix + 1] * fx * gy
        + coarse[:, owner, iy + 1, ix] * gx * fy
        + coarse[:, owner, iy + 1, ix + 1] * fx * fy
    )
    shift *= amp[owner]
    return px + shift.T


def _ramps(n: np.ndarray) -> np.ndarray:
    """0 .. n[0] - 1, then 0 .. n[1] - 1, and so on, in one array."""
    return np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)


def _segment_distance(a: np.ndarray, b: np.ndarray, reach: np.ndarray,
                      owner: np.ndarray, count: int) -> np.ndarray:
    """The (count, 28, 28) distance from each pixel centre of ``count``
    digits to the nearest of their segments a->b, segment i being digit
    ``owner[i]``'s, taken over the segments within ``reach[i]`` of the
    centre, and +inf where there is none. So the field is exact wherever it
    is within reach, and beyond reach wherever the field over every segment
    is.

    Each segment is measured on its window alone: its bounding box widened
    by its reach and clipped to the grid, outside which every pixel centre
    lies more than reach from it. The window's pixels are flat (segment,
    pixel) pairs, and the y term of the projection parameter t is formed
    once per window row. The minimum over segments is taken on squared
    distances, and one sqrt follows. That is exact: IEEE sqrt is correctly
    rounded, hence monotone.
    """
    lo = np.clip(np.floor(np.minimum(a, b) - reach[:, None]), 0, 28).astype(np.intp)
    hi = np.clip(np.ceil(np.maximum(a, b) + reach[:, None]), 0, 28).astype(np.intp)
    (c0, r0), (w, h) = lo.T, (hi - lo).T
    ax, ay = a[:, 0], a[:, 1]
    abx, aby = b[:, 0] - ax, b[:, 1] - ay
    denom = np.maximum(abx * abx + aby * aby, 1e-12)
    # one entry per (segment, window row), then one per (segment, pixel)
    sr = np.repeat(np.arange(len(a)), h)
    row = r0[sr] + _ramps(h)
    gy = row + 0.5
    ty = (gy - ay[sr]) * aby[sr]
    wr = w[sr]
    sp = np.repeat(sr, wr)
    col = c0[sp] + _ramps(wr)
    gx = col + 0.5
    t = (gx - ax[sp]) * abx[sp] + np.repeat(ty, wr)
    t /= denom[sp]
    np.clip(t, 0.0, 1.0, out=t)
    # d = (gx - (ax + t * abx)) ** 2, then t becomes the y term in place
    d = t * abx[sp]
    d += ax[sp]
    np.subtract(gx, d, out=d)
    d *= d
    t *= aby[sp]
    t += ay[sp]
    np.subtract(np.repeat(gy, wr), t, out=t)
    t *= t
    d += t
    dist = np.full(count * 784, np.inf)
    np.minimum.at(dist, np.repeat((owner[sr] * 28 + row) * 28, wr) + col, d)
    return np.sqrt(dist, out=dist).reshape(count, 28, 28)


def _render_digits(style_lists, rng) -> np.ndarray:
    """One (28, 28) image per entry of ``style_lists`` (the styles of each
    digit's class), drawn from ``rng`` digit by digit. The draws and the
    affine maps run per digit; every other step runs once over the batch,
    which gives the same bits, as IEEE arithmetic does not depend on the
    shape of the array."""
    a, b, coarse, noise, thick, peak, amp = zip(
        *(_draw_digit(styles, rng) for styles in style_lists))
    count = len(a)
    owner = np.repeat(np.arange(count), [len(x) for x in a])
    thick, peak, amp = np.array(thick), np.array(peak), np.array(amp)
    ends = _warp_points(np.concatenate(a + b), np.stack(coarse, axis=1), amp,
                        np.concatenate([owner, owner]))
    # a pixel beyond thick + aa of every segment clips to 0, so each segment
    # is measured within thick + aa, plus 1 px to spare
    dist = _segment_distance(*np.split(ends, 2), (thick + _AA + 1.0)[owner], owner, count)

    thick, peak = thick[:, None, None], peak[:, None, None]
    pad = np.zeros((count, 30, 30))
    pad[:, 1:-1, 1:-1] = np.clip((thick + _AA - dist) / (2 * _AA), 0.0, 1.0)
    img = _blur3(pad)
    img = np.clip(img * (1.0 + np.stack(noise)), 0.0, 1.0)
    img *= peak
    # store with 8-bit precision, like camera-captured corpora
    return np.round(img * 255.0) / 255.0


def synth_digits(count: int, seed: int = 0, split: str = "train") -> Dataset:
    """Procedural 28x28 grayscale digits, deterministic in (count, seed).

    Classes are balanced (round-robin, then shuffled). Useful wherever
    MNIST-shaped data is needed but no corpus files are available.
    """
    _check_int("count", count, 1)
    _check_int("seed", seed, 0)
    rng = np.random.default_rng([seed, 0xD161])
    labels = rng.permutation(np.arange(count) % 10)
    strokes = _digit_strokes()
    images = np.empty((count, 28, 28))
    for i in range(0, count, _CHUNK):
        images[i:i + _CHUNK] = _render_digits(
            [strokes[int(k)] for k in labels[i:i + _CHUNK]], rng)
    return Dataset(f"digits-{split}-{count}-s{seed}", images, labels, 10)


# mnist_or_synthetic's default sample count per split, and its default seed
_MNIST_COUNTS = {"train": 10000, "test": 2000}
_MNIST_SEED = 7


def mnist_or_synthetic(train_count: int = _MNIST_COUNTS["train"],
                       test_count: int = _MNIST_COUNTS["test"],
                       seed: int = _MNIST_SEED, directory=None):
    """(train, test, source) preferring real IDX files when present.

    Looks in ``directory`` alone if it is given, and raises ``ValueError``
    when it holds no MNIST file quartet. Otherwise looks in
    $AXFAULT_MNIST_DIR, then ./data/mnist, and falls back to the procedural
    digit generator. ``ValueError`` for a count below 1, whichever source
    would serve it.
    """
    _check_int("train_count", train_count, 1)
    _check_int("test_count", test_count, 1)
    train, source = _mnist_split("train", train_count, seed, directory)
    test, _ = _mnist_split("test", test_count, seed, directory)
    return train, test, source


def _mnist_split(split: str, count: int, seed: int, directory):
    """(dataset, source) of one ``mnist_or_synthetic`` split, building
    nothing of the other."""
    named = directory is not None
    for cand in (directory,) if named else (os.environ.get("AXFAULT_MNIST_DIR"), "data/mnist"):
        layout = find_idx_layout(cand)
        if layout:
            ds = load_idx_pair(layout[f"{split}-images"], layout[f"{split}-labels"],
                               f"mnist-{split}")
            return ds.subset(count), f"idx:{cand}"
    if named:
        raise ValueError(f"no MNIST IDX file quartet in {str(directory)!r}")
    seed = seed if split == "train" else seed + 1
    return synth_digits(count, seed=seed, split=split), "synthetic"


def parse_dataset_arg(spec: str) -> Dataset:
    """CLI dataset shorthand.

    digits:<count>:<seed> | blobs:<classes>:<count>:<dim>:<seed> |
    idx:<images_path>:<labels_path> | cifar:<batch1>[,<batch2>...] |
    mnist-train[:<dir>] | mnist-test[:<dir>]
    """
    parts = spec.split(":")
    kind = parts[0]
    most = {"mnist-train": 1, "mnist-test": 1, "digits": 2, "blobs": 4}.get(kind)
    if most is not None and len(parts) - 1 > most:
        raise ValueError(f"dataset spec {spec!r}: {kind} takes at most {most} fields")
    if kind in ("mnist-train", "mnist-test"):
        directory = parts[1] if len(parts) > 1 else None
        split = kind.removeprefix("mnist-")
        return _mnist_split(split, _MNIST_COUNTS[split], _MNIST_SEED, directory)[0]
    if kind == "digits":
        count = int(parts[1]) if len(parts) > 1 else 2000
        seed = int(parts[2]) if len(parts) > 2 else 0
        return synth_digits(count, seed)
    if kind == "blobs":
        vals = [int(p) for p in parts[1:]]
        classes, count, dim, seed = (vals + [3, 300, 8, 0][len(vals):])[:4]
        return synth_blobs(classes, count, dim, seed)
    if kind == "idx":
        if len(parts) != 3:
            raise ValueError("idx dataset needs idx:<images>:<labels>")
        return load_idx_pair(parts[1], parts[2], f"idx:{os.path.basename(parts[1])}")
    if kind == "cifar":
        # split at the first ':' only: a batch path may hold one
        paths = spec.partition(":")[2].split(",")
        return load_cifar10_batches(paths, "cifar10")
    raise ValueError(f"unknown dataset spec {spec!r}")
