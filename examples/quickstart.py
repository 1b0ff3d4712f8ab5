"""Quickstart: generate a small city, train RL4OASD, detect detours online.

Run with::

    python examples/quickstart.py
"""

from repro.datagen import tiny_dataset
from repro.config import ASDNetConfig, LabelingConfig, RSRNetConfig, TrainingConfig
from repro.core import RL4OASDTrainer
from repro.eval import evaluate_labelings


def main() -> None:
    # 1. A small synthetic taxi dataset with ground-truth detour labels.
    dataset = tiny_dataset(seed=3)
    train, test = dataset.train_test_split(train_size=int(len(dataset) * 0.75), seed=0)
    development, test = test[:30], test[30:]
    print(f"dataset: {len(dataset)} trajectories on "
          f"{dataset.network.num_segments} road segments")

    # 2. Train RL4OASD without using any ground-truth labels (the development
    #    set is only used for best-model selection, as in the paper).
    trainer = RL4OASDTrainer(
        dataset.network,
        train,
        labeling_config=LabelingConfig(alpha=0.35, delta=0.25),
        rsrnet_config=RSRNetConfig(embedding_dim=32, hidden_dim=32, nrf_dim=16),
        asdnet_config=ASDNetConfig(label_embedding_dim=16, learning_rate=0.01),
        training_config=TrainingConfig(
            pretrain_trajectories=150, pretrain_epochs=6,
            joint_trajectories=150, joint_epochs=2, validation_interval=50),
        development_set=development,
    )
    model = trainer.train()
    print(f"trained in {model.report.total_seconds:.1f}s "
          f"(best validation F1 {model.report.best_validation_f1:.3f})")

    # 3. Online detection: the detector consumes road segments one at a time.
    detector = model.detector()
    report = evaluate_labelings([t.labels for t in test],
                                [detector.detect(t).labels for t in test])
    print(f"test F1 = {report.f1:.3f}, TF1 = {report.t_f1:.3f}")

    # 4. Inspect one anomalous trajectory.
    for trajectory in test:
        if trajectory.is_anomalous:
            result = detector.detect(trajectory)
            print("ground truth :", "".join(map(str, trajectory.labels)))
            print("detected     :", "".join(map(str, result.labels)))
            print("anomalous subtrajectories:",
                  [sub.span for sub in result.subtrajectories])
            break


if __name__ == "__main__":
    main()
