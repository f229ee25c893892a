"""Mutation gate: every named mutant of ``src/`` must fail the fast tests of
the fault routes, the quantizer, the network, the digit renderer, the
repair pipeline and the pinned results.

    python tools/mutants.py

A mutant is a named (file, old text, new text) edit of one file under
``src/``. For each mutant of ``MUTANTS`` the script copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, applies the
edit there and runs ``pytest -x`` on ``TEST_FILES``, the mutated module's
own test file first (``run_order``); the tests kill the mutant when they
fail, and it survives only when every file passes. Before the mutants it
runs the same tests on an unedited copy, which must pass. It exits 1 when
the unedited copy fails, when a mutant survives or is not killed by a
failing test (a collection error, say), or when a mutant's old text is not
found exactly once in its file. The working tree is never edited.
Hypothesis runs with seed 0, so a run repeats.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TEST_FILES = ("tests/test_faults.py", "tests/test_gemm_paths.py",
              "tests/test_forward_properties.py", "tests/test_quantize.py",
              "tests/test_pinned_results.py", "tests/test_network.py",
              "tests/test_datasets.py", "tests/test_mitigation.py")

_FAULTS = "src/axfault/faults.py"
_QUANTIZE = "src/axfault/quantize.py"
_NETWORK = "src/axfault/network.py"
_DATASETS = "src/axfault/datasets.py"
_MITIGATION = "src/axfault/mitigation.py"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    what: str


MUTANTS = (
    Mutant("bypass-code-fault-free", _FAULTS,
           'lattice[ij] = 0 if mode == "bypass"', 'lattice[ij] = 0xFFFF if mode == "bypass"',
           "a bypassed MAC gets the lattice code of a fault-free one"),
    Mutant("station-transposed", _FAULTS,
           "np.tile(lattice, (", "np.tile(lattice.T, (",
           "weight (r, c) is stationed on MAC (c mod n, r mod n)"),
    Mutant("masks-shift", _FAULTS,
           "(codes >> 16)", "(codes >> 15)",
           "_masks reads the or-mask one bit low"),
    Mutant("sign-counts-shift", _FAULTS,
           "(_matmul(ws, signs) - h) << 15", "(_matmul(ws, signs) - h) << 14",
           "_sign_counts moves a product by 2^14 instead of 2^15"),
    Mutant("sign-code", _FAULTS,
           "(or_m | ~and_m) == 0x8000", "(or_m | ~and_m) == 0x4000",
           "bit-14 faults are counted as sign faults, and bit-15 faults form their products"),
    Mutant("sign-sa1-rows", _FAULTS,
           "counted & (or_m != 0)", "counted & (or_m == 0)",
           "_sign_counts takes the sa0 weights of each row for its sa1 ones"),
    Mutant("counted-per-row", _FAULTS,
           "_COUNTED_PER_ROW = 2", "_COUNTED_PER_ROW = 1",
           "sign counts taken at one faulty weight per depth column"),
    Mutant("table-changes-offset", _FAULTS,
           "view(np.uint8) ^ np.uint8(0x80)", "view(np.uint8) ^ np.uint8(0)",
           "_table_changes reads change tables at code mod 256, not code + 128"),
    Mutant("prune-test-inverted", _FAULTS,
           'cfg.mode == "bypass" and not m.by_weight[128].any()',
           'cfg.mode == "bypass" and m.by_weight[128].any()',
           "bypass prunes exactly the multipliers whose weight-0 products are not all 0"),
    Mutant("truncation-pairing", _FAULTS,
           "(v == K - j)", "(v == K + j)",
           "_truncation pairs low-bit value j with 2^k + j, which no activation has, not 2^k - j"),
    Mutant("products-operands-swapped", _FAULTS,
           "m.table[((x.astype(np.int32) + 128) << 8) | (y.astype(np.int32) + 128)]",
           "m.table[((y.astype(np.int32) + 128) << 8) | (x.astype(np.int32) + 128)]",
           "_products gathers a table multiplier's product of (weight, activation), "
           "from the transposed table"),
    Mutant("products-truncation-skipped", _FAULTS,
           'p &= np.int16(-(1 << m.params["k"]))', "p &= np.int16(-1)",
           "_products keeps the k low bits of a truncated-k product"),
    Mutant("blas-ready-k9", _FAULTS,
           'm.params["k"] <= 8', 'm.params["k"] <= 9',
           "truncated-9 takes the matmul path at 512 rows or more, past the "
           "uint8 masks of _truncation"),
    Mutant("clean-shape-unchecked", _FAULTS,
           "if clean.shape != (wq.shape[0], aq.shape[1]):", "if clean.ndim != 2:",
           "_clean_copy takes a clean output of any 2-d shape"),
    Mutant("damage-ragged-edge", _FAULTS,
           "keep = (r < rows) & (b < batch)", "keep = (r < rows) | (b < batch)",
           "_damage_outputs keeps damage drawn off one side of a ragged edge block"),
    Mutant("quantize-rounding", _QUANTIZE,
           "x += 0.5", "x += 0.49",
           "quantize rounds x.49 and above, not x.5 and above, away from zero"),
    Mutant("quantize-sign-dropped", _QUANTIZE,
           "np.copysign(x, t, out=x)", "np.abs(x, out=x)",
           "quantize drops the sign of a tensor with negative values"),
    Mutant("quantize-nonnegative-shortcut", _QUANTIZE,
           "if lo < 0:\n        np.abs(x, out=x)", "if lo < -1:\n        np.abs(x, out=x)",
           "quantize skips the absolute value of a tensor whose minimum lies in [-1, 0)"),
    Mutant("requantize-order", _QUANTIZE,
           "acc.astype(np.float64) * (float(w_scale) * float(a_scale))",
           "acc.astype(np.float64) * float(w_scale) * float(a_scale)",
           "requantize_accum rounds acc * w_scale before the product of the scales: "
           "every quantized logit moves in its last bits"),
    Mutant("plan-check-weights-only", _NETWORK,
           'for i in weights for k in ("W", "b")', 'for i in weights for k in ("W",)',
           "a plan runs a weight set whose biases differ from its own"),
    Mutant("states-for-any-data", _NETWORK,
           "kept is None or kept[0] is not data or", "kept is None or",
           "golden states kept for one dataset resume an evaluate of another "
           "of the same length"),
    Mutant("states-for-any-batch-size", _NETWORK,
           "kept[0] is not data or kept[1] != batch_size:", "kept[0] is not data:",
           "golden states kept for one eval batch size resume an evaluate of another"),
    Mutant("window-margin-short", _DATASETS,
           "(thick + _AA + 1.0)[owner]", "(thick + _AA - 1.0)[owner]",
           "a segment's window stops 1 px short of its reach: it cuts lit pixels"),
    Mutant("t-rows-for-columns", _DATASETS,
           "t = (gx - ax[sp]) * abx[sp]", "t = (np.repeat(gy, wr) - ax[sp]) * abx[sp]",
           "the x term of the projection parameter t reads the window's row centres "
           "for its columns"),
    Mutant("reachable-threshold-inverted", _MITIGATION,
           "scored = acc_thresh is not None and acc_thresh != math.inf",
           "scored = not (acc_thresh is not None and acc_thresh != math.inf)",
           "a repair scores its epochs without a reachable threshold, and trains "
           "unscored past a finite one"),
)


def problems(mutants=MUTANTS, root: str = ROOT) -> list[str]:
    """Why each mutant cannot be applied: its old text is not found exactly
    once in its file, or its new text is the old."""
    out = []
    for mt in mutants:
        with open(os.path.join(root, mt.file)) as fh:
            count = fh.read().count(mt.old)
        if count != 1:
            out.append(f"{mt.name}: old text found {count} times in {mt.file}")
        if mt.new == mt.old:
            out.append(f"{mt.name}: new text is the old")
    return out


def run_order(mutant: Mutant | None) -> tuple[str, ...]:
    """``TEST_FILES`` in the order they run on ``mutant``: its module's own
    test file (``tests/test_<module>.py``) first, when there is one."""
    if mutant is None:
        return TEST_FILES
    own = "tests/test_" + os.path.basename(mutant.file)
    return tuple(sorted(TEST_FILES, key=lambda f: f != own))


def _copy(tmp: str) -> None:
    junk = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name), ignore=junk)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)


def run_tests(mutant: Mutant | None) -> tuple[int, str]:
    """pytest's exit code on a copy with ``mutant`` applied (None: unedited)
    and the first line naming a failed test."""
    with tempfile.TemporaryDirectory() as tmp:
        _copy(tmp)
        if mutant is not None:
            path = os.path.join(tmp, mutant.file)
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(text.replace(mutant.old, mutant.new))
        # the copy's pyproject puts its own src/ first on sys.path
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *run_order(mutant)],
            cwd=tmp, env=env, capture_output=True, text=True)
    failed = next((ln for ln in proc.stdout.splitlines()
                   if ln.startswith(("FAILED", "ERROR"))), "")
    return proc.returncode, failed


def main() -> int:
    bad = problems()
    for line in bad:
        print(f"error: {line}")
    if bad:
        return 1
    t0 = time.monotonic()
    code, failed = run_tests(None)
    if code != 0:
        print(f"error: the unedited copy fails its tests (exit {code}): {failed}")
        return 1
    print(f"unedited copy passes ({time.monotonic() - t0:.1f} s)", flush=True)
    alive = 0
    for mt in MUTANTS:
        t0 = time.monotonic()
        code, failed = run_tests(mt)
        # pytest exits 1 exactly when tests ran and some failed
        verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR (exit {code})"
        alive += code != 1
        print(f"{verdict:<8} {mt.name} ({time.monotonic() - t0:.1f} s): {mt.what}", flush=True)
        if failed:
            print(f"         {failed}", flush=True)
    print(f"{len(MUTANTS) - alive} of {len(MUTANTS)} mutants killed")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
