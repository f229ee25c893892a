"""Show how weight-code retuning compensates an approximate multiplier.

For each stored weight code w the retuning table picks the replacement w'
whose products through the approximate multiplier best match the exact
products a*w, averaged over an activation histogram. Under the exact
multiplier the map is the identity; under a lossy one some codes move.
"""

import numpy as np

import axfault as ax


def expected_error(m, table, acts):
    """Mean |M(a, map[w]) - a*w| weighted by the activation histogram."""
    codes = np.arange(-128, 128)
    t2d = m.table2d().astype(np.int64)
    w = codes[None, :]
    a = codes[:, None]
    remapped = table.map.astype(np.int64) + 128
    err = np.abs(t2d[:, remapped] - a * w).astype(np.float64)
    weights = acts.counts.astype(np.float64)
    return float((weights @ err).sum() / (weights.sum() * 256))


def main():
    acts = ax.uniform_activations()

    for m in [ax.exact_multiplier(), ax.truncated_multiplier(4),
              ax.broken_carry_multiplier(2)]:
        table = ax.build_weight_map(m, acts)
        moved = np.nonzero(table.map != np.arange(-128, 128, dtype=np.int16))[0]
        ident = ax.WeightMapTable(np.arange(-128, 128, dtype=np.int16))
        before = expected_error(m, ident, acts)
        after = expected_error(m, table, acts)
        print(f"{m.id:<16} codes moved: {moved.size:>3}   "
              f"mean |err| {before:9.3f} -> {after:9.3f}")
        if moved.size:
            sample = [(int(c) - 128, int(table.map[c])) for c in moved[:6]]
            print(f"{'':16} first moves: "
                  + ", ".join(f"{a}->{b}" for a, b in sample))


if __name__ == "__main__":
    main()
