"""Sweep fault scenarios over a grid and emit the CSV + report bundle.

A campaign is the cross product of multipliers, fault kinds, bits, fault
percentages, layers, array sizes, and seeds. Every cell draws its fault
from its seed alone, so the multipliers of a seed are compared under one
fault map, and reruns and different worker counts give byte-identical
results.
"""

from pathlib import Path

import axfault as ax


def main():
    train = ax.synth_blobs(n_classes=4, count=800, seed=1)
    test = ax.synth_blobs(n_classes=4, count=400, seed=2)
    model = ax.ModelSpec("blobs-mlp", (8,), [
        ax.dense(8, 16, "relu"),
        ax.dense(16, 4),
    ])
    weights = ax.train(model, train, ax.HyperParams(lr=0.1, epochs=20, seed=5))

    spec = ax.CampaignSpec(
        model_id="blobs-mlp",
        dataset_id=test.id,
        engines=["systolic"],
        multipliers=["exact", "truncated-4", "broken-carry-2"],
        fault_kinds=["sa1"],
        bits=[15, 4],
        percents=[16.0],
        array_sizes=[8],
        seeds=[1, 2, 3],
    )
    cells = ax.run_campaign(spec, model, weights, test,
                            energy_table=ax.ILLUSTRATIVE_ENERGY_PJ)
    failed = [r for r in cells if r.error]
    print(f"ran {len(cells)} cells, {len(failed)} failed")

    out = Path("campaign_out")
    files = ax.emit_report(cells, out, energy_table=ax.ILLUSTRATIVE_ENERGY_PJ)
    print("report files:")
    for f in files:
        print(f"  {f}")

    # The summary ranks scenarios by mean accuracy loss.
    text = (out / "summary.md").read_text()
    head = "\n".join(text.splitlines()[:18])
    print("\n--- summary.md (head) ---")
    print(head)


if __name__ == "__main__":
    main()
