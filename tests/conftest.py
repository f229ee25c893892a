"""Shared fixtures.

The digit data and the two trained digit models are expensive, so they are
session-scoped and trained once. Everything else builds its own tiny blobs
problem locally.
"""

import time

import numpy as np
import pytest
from hypothesis import settings

from axfault import datasets, network, training

# Selected with `pytest --hypothesis-profile=gemm-deep`. The hypothesis
# properties that leave their example count to the loaded profile then draw
# ten times the default: the GEMM oracle properties and the truncation
# property of test_gemm_paths.py, the whole-network relations of
# test_forward_properties.py, the fault lattice property of test_faults.py
# and the signed-formula property of test_quantize.py.
settings.register_profile("gemm-deep", max_examples=1000)


@pytest.fixture(scope="session")
def digit_data():
    train, test, source = datasets.mnist_or_synthetic()
    print(f"\n[data] source={source} train={len(train)} test={len(test)}")
    return train, test, source


@pytest.fixture(scope="session")
def mp_tanh(digit_data):
    """Trained mp-tanh-desk plus its training cost, shared by many tests."""
    train, _, _ = digit_data
    model = network.desk_model("mp-tanh-desk")
    hp = training.HyperParams(lr=0.05, momentum=0.9, batch_size=64,
                              epochs=15, seed=11)
    hist = []
    t0 = time.monotonic()
    ws = training.train(model, train, hp, history=hist)
    seconds = time.monotonic() - t0
    return {"model": model, "weights": ws, "seconds": seconds,
            "epochs": len(hist), "hp": hp}


@pytest.fixture(scope="session")
def lenet(digit_data):
    train, test, _ = digit_data
    model = network.desk_model("lenet-desk")
    hp = training.HyperParams(lr=0.05, momentum=0.9, batch_size=64,
                              epochs=8, seed=11)
    t0 = time.monotonic()
    ws = training.train(model, train, hp, eval_data=test.subset(500),
                        stop_acc=98.5)
    seconds = time.monotonic() - t0
    return {"model": model, "weights": ws, "seconds": seconds}


@pytest.fixture(scope="session")
def blobs_setup():
    """Small 3-class blobs problem with a trained 2-layer net."""
    train = datasets.synth_blobs(count=600, seed=1)
    test = datasets.synth_blobs(count=300, seed=2)
    model = network.ModelSpec(
        "blobs-mlp",
        (8,),
        [network.dense(8, 16, activation="relu"),
         network.dense(16, 3)],
    )
    hp = training.HyperParams(lr=0.1, epochs=20, seed=5)
    ws = training.train(model, train, hp)
    return {"model": model, "weights": ws, "train": train, "test": test}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
