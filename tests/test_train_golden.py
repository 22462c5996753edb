"""Frozen SHA-256 digests of `mlp.train` on runs that no CLI golden covers.

Every golden and benchmark training run accepts the full Armijo step at each
iteration and stops at max_iters. These cases train on features drawn from
N(0, 30^2), which saturate the tanh layer, so the line search backtracks
often; the second case also stops on validation failures. A refactor of the
trainer must leave every digest unchanged; a change that alters training on
purpose regenerates the fixture and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_train_golden.py > tests/fixtures/train_golden.json
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from litterscan.bands import CANONICAL_ORDER
from litterscan.dataset import Normalizer
from litterscan.mlp import TrainConfig, init_model, train
from litterscan.rng import SplitMix64

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "train_golden.json")
CASES = {
    "backtracking": TrainConfig(max_iters=300, max_val_failures=10**9),
    "val_early_stop": TrainConfig(max_iters=300, max_val_failures=6),
}
N_TRAIN, N_VAL, SIGMA = 200, 50, 30.0


def wide_sets():
    """(features, labels) of N_TRAIN and of N_VAL SplitMix64 samples: N(0, SIGMA^2)
    features, coin-flip labels."""
    rng = SplitMix64(0)
    n = N_TRAIN + N_VAL
    feats = np.array([[SIGMA * rng.normal() for _ in range(13)] for _ in range(n)])
    labels = np.array([rng.next_below(2) for _ in range(n)], dtype=np.uint8)
    return (feats[:N_TRAIN], labels[:N_TRAIN]), (feats[N_TRAIN:], labels[N_TRAIN:])


def train_digests(cfg: TrainConfig) -> dict:
    """{"stop_reason", "iterations_run", "weights": sha256, "report": sha256}."""
    train_set, val_set = wide_sets()
    model = init_model(0, Normalizer(np.full(13, -1.0), np.full(13, 1.0)), CANONICAL_ORDER)
    fitted, report = train(model, train_set, val_set, cfg)
    report_json = json.dumps(report, indent=2).encode()
    return {"stop_reason": report["stop_reason"],
            "iterations_run": report["iterations_run"],
            "weights": hashlib.sha256(fitted.weights.tobytes()).hexdigest(),
            "report": hashlib.sha256(report_json).hexdigest()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_train_matches_golden_digests(case):
    with open(GOLDEN, encoding="utf-8") as f:
        want = json.load(f)[case]
    assert train_digests(CASES[case]) == want


if __name__ == "__main__":
    doc = {case: train_digests(cfg) for case, cfg in CASES.items()}
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
