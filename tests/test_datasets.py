"""IDX/CIFAR loaders and the synthetic generators."""

import gzip
import re
import struct

import numpy as np
import pytest

from axfault import datasets as ds


def _write_idx_quartet(d, n_train=12, n_test=6):
    r = np.random.default_rng(0)
    ds.save_idx(r.integers(0, 256, size=(n_train, 28, 28)).astype(np.uint8),
                d / "train-images-idx3-ubyte")
    ds.save_idx((np.arange(n_train) % 10).astype(np.uint8),
                d / "train-labels-idx1-ubyte")
    ds.save_idx(r.integers(0, 256, size=(n_test, 28, 28)).astype(np.uint8),
                d / "t10k-images-idx3-ubyte")
    ds.save_idx((np.arange(n_test) % 10).astype(np.uint8),
                d / "t10k-labels-idx1-ubyte")


def test_idx_round_trip(tmp_path):
    arr = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    p = tmp_path / "a.idx"
    ds.save_idx(arr, p)
    assert np.array_equal(ds.load_idx(p), arr)


def test_idx_gzip_round_trip(tmp_path):
    arr = np.arange(30, dtype=np.uint8).reshape(5, 6)
    p = tmp_path / "a.idx.gz"
    ds.save_idx(arr, p)
    with gzip.open(p) as f:
        assert f.read(4)[:2] == b"\x00\x00"
    assert np.array_equal(ds.load_idx(p), arr)


def test_idx_hand_built_bytes(tmp_path):
    payload = bytes(range(8))
    raw = bytes([0, 0, 0x08, 2]) + struct.pack(">2I", 2, 4) + payload
    p = tmp_path / "h.idx"
    p.write_bytes(raw)
    got = ds.load_idx(p)
    assert got.shape == (2, 4)
    assert got[1, 3] == 7


def test_idx_error_cases(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(b"\x01\x00\x08\x01" + struct.pack(">I", 1) + b"\x00")
    with pytest.raises(ValueError):
        ds.load_idx(p)
    p.write_bytes(bytes([0, 0, 0x0D, 1]) + struct.pack(">I", 1) + b"\x00")
    with pytest.raises(ValueError):
        ds.load_idx(p)
    p.write_bytes(bytes([0, 0, 0x08, 2]) + struct.pack(">2I", 2, 4) + b"\x00" * 5)
    with pytest.raises(ValueError):
        ds.load_idx(p)
    p.write_bytes(bytes([0, 0, 0x08, 3]) + struct.pack(">I", 1))
    with pytest.raises(ValueError):
        ds.load_idx(p)


def test_idx_pair_scales_to_unit_interval(tmp_path):
    ds.save_idx(np.full((3, 2, 2), 255, dtype=np.uint8), tmp_path / "i.idx")
    ds.save_idx(np.array([1, 2, 3], dtype=np.uint8), tmp_path / "l.idx")
    got = ds.load_idx_pair(tmp_path / "i.idx", tmp_path / "l.idx", "t")
    assert got.images.max() == 1.0
    assert list(got.labels) == [1, 2, 3]


def test_idx_pair_rejects_2d_labels(tmp_path):
    ds.save_idx(np.zeros((3, 2, 2), dtype=np.uint8), tmp_path / "i.idx")
    ds.save_idx(np.zeros((3, 2), dtype=np.uint8), tmp_path / "l.idx")
    with pytest.raises(ValueError):
        ds.load_idx_pair(tmp_path / "i.idx", tmp_path / "l.idx", "t")


def test_dataset_count_mismatch(tmp_path):
    with pytest.raises(ValueError):
        ds.Dataset("t", np.zeros((3, 4)), np.zeros(2, dtype=np.int64))


def test_find_idx_layout(tmp_path):
    assert ds.find_idx_layout(tmp_path) is None
    assert ds.find_idx_layout(None) is None
    _write_idx_quartet(tmp_path)
    layout = ds.find_idx_layout(tmp_path)
    assert layout is not None
    assert set(layout) == {"train-images", "train-labels",
                           "test-images", "test-labels"}


def test_mnist_or_synthetic_prefers_idx(tmp_path, monkeypatch):
    _write_idx_quartet(tmp_path)
    monkeypatch.delenv("AXFAULT_MNIST_DIR", raising=False)
    train, test, source = ds.mnist_or_synthetic(
        train_count=10, test_count=5, directory=tmp_path)
    assert source.startswith("idx:")
    assert len(train) == 10 and len(test) == 5
    assert train.images.shape[1:] == (28, 28)


def test_mnist_or_synthetic_env_dir(tmp_path, monkeypatch):
    _write_idx_quartet(tmp_path)
    monkeypatch.setenv("AXFAULT_MNIST_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    _, _, source = ds.mnist_or_synthetic(train_count=4, test_count=2)
    assert source == f"idx:{tmp_path}"


def test_mnist_or_synthetic_fallback(tmp_path, monkeypatch):
    monkeypatch.delenv("AXFAULT_MNIST_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    train, test, source = ds.mnist_or_synthetic(train_count=40, test_count=20)
    assert source == "synthetic"
    assert len(train) == 40 and len(test) == 20
    # train and test must not share rendering state
    assert not np.array_equal(train.images[0], test.images[0])


@pytest.mark.parametrize("quartet", [True, False], ids=["idx", "synthetic"])
@pytest.mark.parametrize("counts, name", [((-5, 2), "train_count"), ((0, 2), "train_count"),
                                          ((4, 2.5), "test_count"), ((4, -1), "test_count")])
def test_mnist_or_synthetic_refuses_counts_below_one(tmp_path, monkeypatch, quartet,
                                                     counts, name):
    # with an IDX quartet a train_count of -5 used to give 7 of 12 samples,
    # where the synthetic branch raised; now neither source is read
    if quartet:
        _write_idx_quartet(tmp_path)
    monkeypatch.setenv("AXFAULT_MNIST_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    built = []
    monkeypatch.setattr(ds, "load_idx_pair", lambda *a: built.append(a))
    monkeypatch.setattr(ds, "synth_digits", lambda *a, **k: built.append(a))
    with pytest.raises(ValueError, match=name):
        ds.mnist_or_synthetic(*counts)
    assert built == []


def _cifar_records(labels) -> bytearray:
    """CIFAR-10 batch bytes, one record per label: a red ramp, the green
    ramp reversed and a blue plane of the label's value."""
    rec = bytearray()
    for label in labels:
        rec.append(label)
        plane = np.arange(1024, dtype=np.uint8)
        rec += bytes(plane)          # red
        rec += bytes(plane[::-1])    # green
        rec += bytes([label]) * 1024  # blue
    return rec


def test_cifar_loader(tmp_path):
    rec = _cifar_records((3, 7))
    p = tmp_path / "b1.bin"
    p.write_bytes(bytes(rec))
    got = ds.load_cifar10_batches([p], "cifar-test")
    assert got.images.shape == (2, 32, 32, 3)
    assert list(got.labels) == [3, 7]
    assert got.images[0, 0, 1, 0] == 1 / 255.0           # red plane, row-major
    assert got.images[1, 0, 0, 2] == 7 / 255.0           # blue plane constant
    p.write_bytes(bytes(rec[:-1]))
    with pytest.raises(ValueError):
        ds.load_cifar10_batches([p], "cifar-test")


def test_cifar_spec_loads_several_batches_in_order(tmp_path):
    # "cifar:<a>,<b>" reads each batch file, a gzipped one too, and joins
    # their records in the order given
    a, b = tmp_path / "a.bin", tmp_path / "b.bin.gz"
    a.write_bytes(bytes(_cifar_records((3, 7))))
    with gzip.open(b, "wb") as f:
        f.write(bytes(_cifar_records((1,))))
    got = ds.parse_dataset_arg(f"cifar:{b},{a}")
    assert got.id == "cifar10" and got.n_classes == 10
    assert got.images.shape == (3, 32, 32, 3)
    assert list(got.labels) == [1, 3, 7]
    assert [got.images[i, 5, 5, 2] for i in range(3)] == [1 / 255.0, 3 / 255.0, 7 / 255.0]


def test_cifar_spec_keeps_a_colon_in_a_batch_path(tmp_path):
    # the spec was split at every ':', so "cifar:<dir>/a:b.bin" opened <dir>/a
    p = tmp_path / "a:b.bin"
    p.write_bytes(bytes(_cifar_records((4,))))
    assert list(ds.parse_dataset_arg(f"cifar:{p}").labels) == [4]
    assert list(ds.parse_dataset_arg(f"cifar:{p},{p}").labels) == [4, 4]


# --- synthetic generators ---------------------------------------------------


def test_blobs_deterministic():
    a = ds.synth_blobs(count=50, seed=3)
    b = ds.synth_blobs(count=50, seed=3)
    c = ds.synth_blobs(count=50, seed=4)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.images, c.images)


def test_blobs_share_class_means_across_seeds():
    # different seeds sample the same underlying problem, so per-class
    # centroids line up closely
    a = ds.synth_blobs(count=3000, seed=1)
    b = ds.synth_blobs(count=3000, seed=2)
    for k in range(3):
        ca = a.images[a.labels == k].mean(axis=0)
        cb = b.images[b.labels == k].mean(axis=0)
        assert np.linalg.norm(ca - cb) < 0.05


def test_blobs_range_and_validation():
    d = ds.synth_blobs(count=200, seed=0)
    assert d.images.min() >= 0.0 and d.images.max() <= 1.0
    assert d.images.shape == (200, 8)
    with pytest.raises(ValueError):
        ds.synth_blobs(count=0)


@pytest.mark.parametrize("kw, match", [
    ({"count": 2.5}, "count must be an integer"),
    ({"count": "3"}, "count must be an integer"),
    ({"count": True}, "count must be an integer"),
    ({"count": 0}, "count must be at least 1"),
    ({"n_classes": 1.5}, "n_classes must be an integer"),
    ({"n_classes": 0}, "n_classes must be at least 1"),
    ({"dim": False}, "dim must be an integer"),
    ({"dim": 0}, "dim must be at least 1"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": -1}, "seed must be at least 0"),
], ids=["count-float", "count-str", "count-bool", "count-zero", "classes-float",
        "classes-zero", "dim-bool", "dim-zero", "seed-float", "seed-negative"])
def test_blobs_reject_bad_arguments(kw, match):
    # these used to raise TypeErrors from inside numpy, and dim=0 returned
    # samples without features
    with pytest.raises(ValueError, match=match):
        ds.synth_blobs(**kw)


def test_blobs_centroid_classifier_works():
    train = ds.synth_blobs(count=600, seed=1)
    test = ds.synth_blobs(count=300, seed=2)
    means = np.stack([train.images[train.labels == k].mean(axis=0)
                      for k in range(3)])
    pred = np.argmin(
        ((test.images[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
    assert (pred == test.labels).mean() >= 0.95


def test_digits_deterministic_and_balanced():
    a = ds.synth_digits(100, seed=5)
    b = ds.synth_digits(100, seed=5)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    counts = np.bincount(a.labels, minlength=10)
    assert list(counts) == [10] * 10


def test_digits_vary_across_seed_and_index():
    a = ds.synth_digits(40, seed=1)
    c = ds.synth_digits(40, seed=2)
    assert not np.array_equal(a.images, c.images)
    same = [i for i in range(40) if a.labels[i] == a.labels[0]]
    assert len(same) >= 2
    assert not np.array_equal(a.images[same[0]], a.images[same[1]])


def test_digits_pixel_conventions():
    d = ds.synth_digits(60, seed=3)
    assert d.images.shape == (60, 28, 28)
    assert d.images.min() == 0.0
    assert d.images.max() <= 1.0
    # ink is sparse on a black background
    assert (d.images > 0).mean() < 0.5
    # 8-bit amplitude grid
    assert np.allclose(d.images * 255, np.round(d.images * 255), atol=1e-9)
    with pytest.raises(ValueError):
        ds.synth_digits(0)
    # numpy integers are integers
    assert len(ds.synth_digits(np.int64(2), seed=np.uint32(3))) == 2


@pytest.mark.parametrize("kw, match", [
    ({"count": 2.5}, "count must be an integer"),
    ({"count": True}, "count must be an integer"),
    ({"count": "3"}, "count must be an integer"),
    ({"count": -2}, "count must be at least 1"),
    ({"count": 3, "seed": 1.0}, "seed must be an integer"),
    ({"count": 3, "seed": False}, "seed must be an integer"),
    ({"count": 3, "seed": "0"}, "seed must be an integer"),
    ({"count": 3, "seed": -1}, "seed must be at least 0"),
], ids=["count-float", "count-bool", "count-str", "count-negative",
        "seed-float", "seed-bool", "seed-str", "seed-negative"])
def test_digits_reject_bad_count_and_seed(kw, match):
    # these used to fail with assorted TypeErrors from inside numpy
    with pytest.raises(ValueError, match=match):
        ds.synth_digits(**kw)


# --- the renderer against its original per-digit, per-pair form --------------
#
# The renderer as it was before the in-place distance kernel, the segment
# windows and the batches: one digit at a time over the whole grid, x and y reduced
# with ``.sum(-1)``, one sqrt per segment-pixel pair, a padded blur. The
# renderer must give the same bytes and draw from the RNG in the same order.


def _blur3_oracle(img):
    pad = np.pad(img, 1)
    out = (
        4 * pad[1:-1, 1:-1]
        + 2 * (pad[:-2, 1:-1] + pad[2:, 1:-1] + pad[1:-1, :-2] + pad[1:-1, 2:])
        + pad[:-2, :-2] + pad[:-2, 2:] + pad[2:, :-2] + pad[2:, 2:]
    )
    return out / 16.0


def _warp_points_oracle(px, rng, amp):
    coarse = rng.normal(0.0, 1.0, size=(2, 4, 4))
    u = np.clip(px / 28.0 * 3.0, 0.0, 3.0 - 1e-9)
    i0 = np.floor(u).astype(int)
    f = u - i0
    out = px.copy()
    for ax in range(2):
        g = coarse[ax]
        out[:, ax] += amp * (
            g[i0[:, 1], i0[:, 0]] * (1 - f[:, 0]) * (1 - f[:, 1])
            + g[i0[:, 1], i0[:, 0] + 1] * f[:, 0] * (1 - f[:, 1])
            + g[i0[:, 1] + 1, i0[:, 0]] * (1 - f[:, 0]) * f[:, 1]
            + g[i0[:, 1] + 1, i0[:, 0] + 1] * f[:, 0] * f[:, 1]
        )
    return out


def _segment_distance_oracle(a, b):
    ys, xs = np.mgrid[0:28, 0:28]
    grid = np.stack([xs.reshape(-1) + 0.5, ys.reshape(-1) + 0.5], axis=1)[None, :, :]

    ab = b - a
    denom = np.maximum((ab * ab).sum(-1), 1e-12)
    t = np.clip(((grid - a) * ab).sum(-1) / denom, 0.0, 1.0)
    nearest = a + t[:, :, None] * ab
    return np.sqrt(((grid - nearest) ** 2).sum(-1)).min(axis=0)


def _render_digit_oracle(styles, rng):
    strokes = styles[int(rng.integers(len(styles)))]
    theta = rng.uniform(-0.25, 0.25)
    sx, sy = rng.uniform(0.78, 1.16, size=2)
    shear = rng.uniform(-0.22, 0.22)
    tx, ty = rng.uniform(-2.5, 2.5, size=2)
    thick = rng.uniform(0.8, 2.0)
    peak = rng.uniform(0.65, 1.0)
    amp = rng.uniform(0.8, 2.0)

    ct, st = np.cos(theta), np.sin(theta)
    rot = np.array([[ct, -st], [st, ct]])
    segs_a, segs_b = [], []
    for pts in strokes:
        p = pts + rng.normal(0.0, 0.025, size=pts.shape)
        p = (p - 0.5) @ np.array([[sx, 0.0], [shear * sx, sy]]).T
        p = p @ rot.T + 0.5
        px = p * 20.0 + 4.0 + np.array([tx, ty])
        segs_a.append(px[:-1])
        segs_b.append(px[1:])
    a = np.concatenate(segs_a)
    b = np.concatenate(segs_b)
    nseg = len(a)
    joined = _warp_points_oracle(np.concatenate([a, b]), rng, amp)
    a = joined[:nseg][:, None, :]
    b = joined[nseg:][:, None, :]
    dist = _segment_distance_oracle(a, b)

    aa = 0.7
    img = np.clip((thick + aa - dist) / (2 * aa), 0.0, 1.0).reshape(28, 28)
    img = _blur3_oracle(img)
    img = np.clip(img * (1.0 + rng.normal(0.0, 0.08, img.shape)), 0.0, 1.0)
    img *= peak
    return np.round(img * 255.0) / 255.0


def _synth_digits_oracle(count, seed, split="train"):
    rng = np.random.default_rng([seed, 0xD161])
    labels = rng.permutation(np.arange(count) % 10)
    strokes = ds._digit_strokes()
    images = np.stack([_render_digit_oracle(strokes[int(k)], rng) for k in labels])
    return f"digits-{split}-{count}-s{seed}", images, labels


_STYLES = [(digit, k) for digit, styles in ds._digit_strokes().items()
           for k in range(len(styles))]
# the widest reach of a stroke: the thickest draw, the anti-aliased edge
# and the segment window's 1 px margin
_MAX_REACH = 2.0 + 0.7 + 1.0


def _assert_fields_equal_oracle(cases):
    # the (a, b, reach) cases as the segments of one batch of digits: each
    # field is the oracle's to the byte wherever it is within reach, and the
    # oracle's lies beyond reach wherever it is not
    a, b, reach = (np.concatenate(v) for v in zip(*((a, b, np.full(len(a), r))
                                                     for a, b, r in cases)))
    owner = np.repeat(np.arange(len(cases)), [len(c[0]) for c in cases])
    got = ds._segment_distance(a, b, reach, owner, len(cases))
    assert got.shape == (len(cases), 28, 28)
    for field, (a, b, r) in zip(got, cases):
        want = _segment_distance_oracle(a[:, None, :], b[:, None, :]).reshape(28, 28)
        near = field <= r
        assert field[near].tobytes() == want[near].tobytes()
        assert (want[~near] > r).all()
    return got


def _assert_renders_equal_oracle(style_lists, seed):
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    got = ds._render_digits(style_lists, new)
    assert got.shape == (len(style_lists), 28, 28)
    for img, styles in zip(got, style_lists):
        want = _render_digit_oracle(styles, old)
        assert img.dtype == want.dtype
        assert img.tobytes() == want.tobytes()
    # the same draws were taken in the same order
    assert new.bit_generator.state == old.bit_generator.state
    return got


@pytest.mark.parametrize("digit, style", _STYLES,
                         ids=[f"{d}-{k}" for d, k in _STYLES])
def test_render_digit_equals_oracle_for_every_style(digit, style):
    styles = [ds._digit_strokes()[digit][style]]
    if (digit, style) == (1, 1):
        assert len(styles[0]) == 1 and len(styles[0][0]) == 2  # one segment
    for seed in (0, 1, 2, 3):
        _assert_renders_equal_oracle([styles] * 3, seed)  # successive digits of one stream


# strokes partly or wholly outside the unit box: off the grid, past its
# border by less than a stroke's reach, and far off it
_OFF_BOX_STYLES = {
    "partly-left": [np.array([[-0.6, 0.5], [0.4, 0.5], [0.5, 0.9]])],
    "partly-below": [np.array([[0.5, 0.5], [0.5, 1.7]]),
                     np.array([[0.2, 1.2], [0.8, 1.2]])],
    "just-off": [np.array([[-0.23, 0.1], [-0.23, 0.9]])],
    "wholly-off": [np.array([[1.8, 1.8], [2.5, 2.2], [2.4, 1.9]])],
}


@pytest.mark.parametrize("name", sorted(_OFF_BOX_STYLES))
def test_render_digits_off_the_unit_box_equal_oracle(name):
    styles = [_OFF_BOX_STYLES[name]]
    for seed in (0, 5):
        got = _assert_renders_equal_oracle([styles] * 4, seed)
        if name == "wholly-off":
            assert not got.any()


def _thickest_seeds(count, tries=400):
    """The seeds, among the first ``tries``, whose first digit draws the
    thickest strokes, replaying the renderer's first draws."""
    def thick(seed):
        rng = np.random.default_rng(seed)
        rng.integers(1)
        rng.uniform(-0.25, 0.25)
        rng.uniform(0.78, 1.16, size=2)
        rng.uniform(-0.22, 0.22)
        rng.uniform(-2.5, 2.5, size=2)
        return rng.uniform(0.8, 2.0)
    return sorted(range(tries), key=thick)[-count:]


def test_render_thickest_stroke_at_the_grid_border():
    # a square traced along the grid's four borders, at the thickest draws
    square = np.array([[-0.17, -0.17], [1.17, -0.17], [1.17, 1.17], [-0.17, 1.17],
                       [-0.17, -0.17]])
    for seed in _thickest_seeds(3):
        got = _assert_renders_equal_oracle([[[square]]], seed)[0]
        assert all(edge.any() for edge in (got[0], got[-1], got[:, 0], got[:, -1]))


@pytest.mark.parametrize("digit, style", _STYLES,
                         ids=[f"{d}-{k}" for d, k in _STYLES])
def test_segment_distance_equals_oracle(digit, style):
    # the 8-bit output hides most last-bit errors of the field, so the field
    # is compared on its own, before the blur and the rounding; the strokes
    # may run off the grid, so some windows are clipped
    rng = np.random.default_rng([digit, style])
    strokes = ds._digit_strokes()[digit][style]
    cases = []
    for _ in range(6):
        scale, shift = rng.uniform(12.0, 24.0), rng.uniform(0.0, 8.0, size=2)
        px = [p * scale + shift + rng.normal(0.0, 0.5, size=p.shape) for p in strokes]
        cases.append((np.concatenate([p[:-1] for p in px]),
                      np.concatenate([p[1:] for p in px]), rng.uniform(0.8, 2.0) + 0.7 + 1.0))
    _assert_fields_equal_oracle(cases)


def test_warp_points_equals_oracle():
    # several digits' points warped at once, each by its own field and amp
    for seed in range(8):
        pts = np.random.default_rng(100 + seed).uniform(-4.0, 32.0, size=(70, 2))
        sizes, amps = (40, 2, 28), (1.7, 0.8, 2.0)
        parts = np.split(pts, np.cumsum(sizes)[:-1])
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        coarse = np.stack([new.normal(0.0, 1.0, size=(2, 4, 4)) for _ in sizes], axis=1)
        owner = np.repeat(np.arange(len(sizes)), sizes)
        got = ds._warp_points(pts, coarse, np.array(amps), owner)
        want = np.concatenate([_warp_points_oracle(p, old, amp) for p, amp in zip(parts, amps)])
        assert got.tobytes() == want.tobytes()
        assert new.bit_generator.state == old.bit_generator.state


def test_segment_distance_degenerate_segments():
    # zero-length segments (the floor on the squared length keeps 0 / 0
    # out), segments through pixel centres, and along the grid's border
    a = np.array([[5.5, 5.5], [10.0, 3.0], [0.5, 27.5], [14.5, 0.5], [0.0, 0.0]])
    b = np.array([[5.5, 5.5], [10.0, 3.0], [27.5, 27.5], [14.5, 27.5], [28.0, 0.0]])
    _assert_fields_equal_oracle([(a[:k], b[:k], _MAX_REACH) for k in range(1, len(a) + 1)]
                                + [(a[k:k + 1], b[k:k + 1], _MAX_REACH) for k in range(len(a))])
    # a segment off the grid, farther than reach: no pixel is measured
    got = _assert_fields_equal_oracle([(np.array([[-9.0, 3.0]]), np.array([[-6.0, 20.0]]),
                                        _MAX_REACH)])
    assert np.isinf(got).all()


# counts around the batches' edges (ds._CHUNK is 16), and beyond
@pytest.mark.parametrize("count", [1, 7, 15, 16, 17, 33, 150])
def test_synth_digits_equals_oracle(count):
    for seed in (0, 9):
        got = ds.synth_digits(count, seed=seed, split="test")
        want_id, want_images, want_labels = _synth_digits_oracle(count, seed, "test")
        assert got.id == want_id
        assert got.images.tobytes() == want_images.tobytes()
        assert got.labels.tobytes() == want_labels.tobytes()


def test_subset():
    d = ds.synth_blobs(count=50, seed=0)
    s = d.subset(10)
    assert len(s) == 10
    assert np.array_equal(s.images, d.images[:10])
    assert len(d.subset(0)) == 0 and len(d.subset(80)) == 50
    # -5 used to drop the last five samples
    for bad in (-5, 2.5, True, "10"):
        with pytest.raises(ValueError, match="count must be"):
            d.subset(bad)


def test_parse_dataset_arg_forms(tmp_path):
    d = ds.parse_dataset_arg("digits:30:4")
    assert len(d) == 30
    b = ds.parse_dataset_arg("blobs:4:100:6:2")
    assert b.images.shape == (100, 6)
    assert b.n_classes == 4
    assert len(ds.parse_dataset_arg("blobs")) == 300

    ds.save_idx(np.zeros((3, 2, 2), dtype=np.uint8), tmp_path / "i.idx")
    ds.save_idx(np.zeros(3, dtype=np.uint8), tmp_path / "l.idx")
    got = ds.parse_dataset_arg(f"idx:{tmp_path / 'i.idx'}:{tmp_path / 'l.idx'}")
    assert len(got) == 3

    with pytest.raises(ValueError):
        ds.parse_dataset_arg("edgecase-corpus")
    with pytest.raises(ValueError):
        ds.parse_dataset_arg("digits:notanumber")
    # fields past the ones read used to be dropped: digits:10:1:9 gave
    # digits-train-10-s1
    for spec, kind, most in (("digits:10:1:9", "digits", 2),
                             ("blobs:3:50:4:1:77", "blobs", 4),
                             ("mnist-test:some-dir:x", "mnist-test", 1)):
        with pytest.raises(ValueError,
                           match=f"^dataset spec '{spec}': {kind} takes at most {most} fields$"):
            ds.parse_dataset_arg(spec)


@pytest.mark.parametrize("spec, message", [
    ("cifar", "cifar takes one or more batch paths"),
    ("cifar:", "a field is empty"),
    ("cifar:a.bin,,b.bin", "a field is empty"),
    ("cifar:a.bin,", "a field is empty"),
    ("digits:abc", "digits takes integer fields"),
    ("digits:5:", "a field is empty"),
    ("digits:2.5", "digits takes integer fields"),
    ("digits:--5", "digits takes integer fields"),
    ("blobs:3:x", "blobs takes integer fields"),
    ("digits:0", "count must be at least 1, got 0"),
    ("blobs:3:-4", "count must be at least 1, got -4"),
    ("idx", "idx takes idx:<images>:<labels>"),
    ("idx:a.idx", "idx takes idx:<images>:<labels>"),
    ("idx::l.idx", "a field is empty"),
    ("mnist-test:", "a field is empty"),
    ("landsat:full", "unknown dataset kind 'landsat'"),
])
def test_malformed_dataset_spec_quotes_the_spec(spec, message):
    # "cifar" and "cifar:" raised FileNotFoundError for '', and a bad
    # integer field a bare "invalid literal for int()"
    with pytest.raises(ValueError, match=f"^{re.escape(f'dataset spec {spec!r}: {message}')}$"):
        ds.parse_dataset_arg(spec)


def test_parse_dataset_arg_mnist_shorthand(tmp_path, monkeypatch):
    _write_idx_quartet(tmp_path)
    monkeypatch.setenv("AXFAULT_MNIST_DIR", str(tmp_path))
    train = ds.parse_dataset_arg("mnist-train")
    test = ds.parse_dataset_arg(f"mnist-test:{tmp_path}")
    assert train.id.startswith("mnist-train")
    assert test.id.startswith("mnist-test")
    assert len(train) == 12 and len(test) == 6
    both = ds.mnist_or_synthetic(directory=tmp_path)
    for got, want in ((train, both[0]), (test, both[1])):
        assert got.id == want.id
        assert np.array_equal(got.images, want.images)
        assert np.array_equal(got.labels, want.labels)


def test_named_mnist_directory_without_files_fails(tmp_path, monkeypatch):
    # a named directory with no quartet used to give 2000 synthetic digits,
    # so a typo in the path evaluated on synthetic data
    (tmp_path / "mnist").mkdir()
    _write_idx_quartet(tmp_path / "mnist")
    monkeypatch.setenv("AXFAULT_MNIST_DIR", str(tmp_path / "mnist"))
    (tmp_path / "empty").mkdir()
    for named in (tmp_path / "no-such-dir", tmp_path / "empty"):
        for spec in (f"mnist-test:{named}", f"mnist-train:{named}"):
            with pytest.raises(ValueError, match=re.escape(f"no MNIST IDX file quartet in '{named}'")):
                ds.parse_dataset_arg(spec)
        with pytest.raises(ValueError, match="^no MNIST IDX file quartet in "):
            ds.mnist_or_synthetic(train_count=4, test_count=2, directory=named)
    # with no directory named the search goes on: here to $AXFAULT_MNIST_DIR
    assert ds.parse_dataset_arg("mnist-test").id.startswith("mnist-test")


def test_parse_dataset_arg_mnist_builds_one_split(tmp_path, monkeypatch):
    # each spec used to render both synthetic splits and keep one; the spy
    # renders at most 5 digits per call so the 12,000 default ones cost nothing
    monkeypatch.delenv("AXFAULT_MNIST_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    real, calls = ds.synth_digits, []

    def spy(count, seed=0, split="train"):
        calls.append((count, seed, split))
        return real(min(count, 5), seed=seed, split=split)

    monkeypatch.setattr(ds, "synth_digits", spy)
    train, test, _ = ds.mnist_or_synthetic()
    both_calls = calls[:]
    assert [c[2] for c in both_calls] == ["train", "test"]
    for i, want in enumerate((train, test)):
        calls.clear()
        got = ds.parse_dataset_arg(f"mnist-{both_calls[i][2]}")
        assert calls == [both_calls[i]]
        assert got.id == want.id
        assert np.array_equal(got.images, want.images)
        assert np.array_equal(got.labels, want.labels)
