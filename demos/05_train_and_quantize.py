"""Train the desk-size digit MLP and watch int8 + approximation costs.

Uses real MNIST when an IDX directory is available (AXFAULT_MNIST_DIR or
./data/mnist), otherwise the built-in synthetic digits, so the script runs
anywhere. Training stays in float; quantization only happens at inference.
"""

import time

import axfault as ax


def main():
    train, test, source = ax.mnist_or_synthetic()
    print(f"data: {train.id} from {source} ({len(train.images)} train / "
          f"{len(test.images)} test)")

    # the one cut of the test set: training's eval and the ladder score it
    scored = test.subset(1000)

    model = ax.desk_model("mp-tanh-desk")
    hp = ax.HyperParams(lr=0.05, momentum=0.9, batch_size=64, epochs=8,
                        seed=11)
    t0 = time.perf_counter()
    history = []
    weights = ax.train(model, train, hp, eval_data=scored,
                       history=history)
    dt = time.perf_counter() - t0
    print(f"trained {model.name} ({weights.param_count()} params) in "
          f"{dt:.1f} s, last-epoch eval {history[-1]['eval_acc']:.2f} %\n")

    cfg = ax.SystolicConfig(n=16)
    ladder = [
        ("float (fp64)", ax.ExecEnv()),
        ("int8 exact", ax.ExecEnv(engine="systolic",
                                  multiplier=ax.exact_multiplier(),
                                  systolic=cfg)),
    ]
    for k in (2, 4, 6, 8):
        ladder.append((f"int8 truncated-{k}",
                       ax.ExecEnv(engine="systolic",
                                  multiplier=ax.truncated_multiplier(k),
                                  systolic=cfg)))
    for k in (1, 2, 3):
        ladder.append((f"int8 broken-carry-{k}",
                       ax.ExecEnv(engine="systolic",
                                  multiplier=ax.broken_carry_multiplier(k),
                                  systolic=cfg)))

    base = None
    for name, env in ladder:
        acc = ax.evaluate(model, weights, scored, env=env)
        if base is None:
            base = acc
        print(f"{name:<22} {acc:6.2f} %   (drop {base - acc:+5.2f})")


if __name__ == "__main__":
    main()
