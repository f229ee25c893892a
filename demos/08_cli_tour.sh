#!/bin/sh
# End-to-end tour of the axfault command line: train a small model on the
# synthetic blobs set, inject faults, repair, and sweep. Everything lands
# in a scratch directory that is wiped at the end.
set -e

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cat > "$work/model.json" <<'EOF'
{
  "name": "blobs-mlp",
  "input_shape": [8],
  "layers": [
    {"kind": "dense", "activation": "relu", "in": 8, "out": 16},
    {"kind": "dense", "activation": "none", "in": 16, "out": 4}
  ]
}
EOF

echo "== train =="
axfault train --model "$work/model.json" --data blobs:4:800:8:1 \
    --epochs 20 --lr 0.1 --seed 5 --out "$work/weights.axdn"

echo "== eval, float then quantized through truncated-4 =="
axfault eval --model "$work/model.json" --weights "$work/weights.axdn" \
    --data blobs:4:400:8:2
axfault eval --model "$work/model.json" --weights "$work/weights.axdn" \
    --data blobs:4:400:8:2 --engine systolic --multiplier truncated-4

echo "== multiplier info =="
axfault mul info --multiplier broken-carry-2

echo "== inject a stuck-at fault =="
axfault inject --model "$work/model.json" --weights "$work/weights.axdn" \
    --data blobs:4:400:8:2 --multiplier exact --n 8 \
    --kind sa1 --bit 15 --percent 16 --seed 3 --save-map "$work/faults.axfm"

echo "== repair =="
axfault mitigate --model "$work/model.json" --weights "$work/weights.axdn" \
    --data blobs:4:800:8:1 --test-data blobs:4:400:8:2 \
    --multiplier truncated-3 --fault-map "$work/faults.axfm" \
    --epochs 5 --lr 0.05 --seed 21 \
    --out "$work/repaired.axdn" --report "$work/report.json"

echo "== score the repair under the saved fault, broken MACs bypassed =="
axfault inject --model "$work/model.json" --weights "$work/repaired.axdn" \
    --data blobs:4:400:8:2 --multiplier truncated-3 \
    --fault-map "$work/faults.axfm" --mode bypass

echo "== campaign =="
cat > "$work/sweep.json" <<EOF
{
  "model_id": "$work/model.json",
  "dataset_id": "blobs:4:400:8:2",
  "multipliers": ["exact", "truncated-4"],
  "fault_kinds": ["sa1"],
  "bits": [15, 4],
  "percents": [16.0],
  "array_sizes": [8],
  "seeds": [1, 2]
}
EOF
axfault campaign run --spec "$work/sweep.json" --weights "$work/weights.axdn" \
    --energy illustrative --out "$work/campaign"
axfault campaign report --records "$work/campaign/records.json" \
    --energy illustrative --out "$work/campaign/report"
echo "report files:"
ls "$work/campaign/report"
