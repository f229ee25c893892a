"""Run one model through all three execution engines.

float is the plain fp64 reference. systolic and gpu_tiles quantize every
GEMM to int8 and push each product through the chosen multiplier; without
faults the two quantized engines agree bit for bit with each other, for
every multiplier.
"""

import axfault as ax


def main():
    train = ax.synth_blobs(n_classes=6, count=900, seed=1)
    test = ax.synth_blobs(n_classes=6, count=400, seed=2)
    model = ax.ModelSpec("blobs-mlp", (8,), [
        ax.dense(8, 16, "relu"),
        ax.dense(16, 6),
    ])
    hp = ax.HyperParams(lr=0.1, epochs=20, seed=5)
    weights = ax.train(model, train, hp)

    exact = ax.exact_multiplier()
    envs = {
        "float": ax.ExecEnv(engine="float"),
        "systolic / exact": ax.ExecEnv(
            engine="systolic", multiplier=exact,
            systolic=ax.SystolicConfig(n=8)),
        "gpu_tiles / exact": ax.ExecEnv(
            engine="gpu_tiles", multiplier=exact, tile=8),
        "systolic / truncated-6": ax.ExecEnv(
            engine="systolic", multiplier=ax.truncated_multiplier(6),
            systolic=ax.SystolicConfig(n=8)),
        "systolic / broken-carry-3": ax.ExecEnv(
            engine="systolic", multiplier=ax.broken_carry_multiplier(3),
            systolic=ax.SystolicConfig(n=8)),
    }
    for name, env in envs.items():
        acc = ax.evaluate(model, weights, test, env=env)
        print(f"{name:<28} accuracy {acc:6.2f} %")

    a = ax.forward(model, weights, test.images[0], env=envs["systolic / exact"])
    b = ax.forward(model, weights, test.images[0], env=envs["gpu_tiles / exact"])
    same = bool((a["logits"] == b["logits"]).all())
    print(f"\nsystolic and gpu_tiles logits identical: {same}")


if __name__ == "__main__":
    main()
