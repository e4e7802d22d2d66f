import csv

import numpy as np
import pytest

from cycleadapt.models import ArchConfig, build_suite
from cycleadapt.trainer import METRICS_FIELDS, MetricsRow

SMALL_ARCH = ArchConfig(
    input_dim=3,
    num_classes=3,
    feature_dim=5,
    feature_hidden=6,
    domain_disc_hidden=6,
    translator_hidden=5,
    sample_disc_hidden=5,
    seed=11,
)


@pytest.fixture
def small_suite():
    return build_suite(SMALL_ARCH)


@pytest.fixture
def small_batch():
    rng = np.random.default_rng(3)
    x_s = rng.standard_normal((4, 3))
    y_s = rng.integers(0, 3, size=4)
    x_t = rng.standard_normal((4, 3))
    return x_s, y_s, x_t


def read_metrics_csv(path) -> list[MetricsRow]:
    """The rows of a run's metrics.csv."""
    rows: list[MetricsRow] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != METRICS_FIELDS:
            raise ValueError(f"{path}: unexpected metrics header {reader.fieldnames}")
        for rec in reader:
            rows.append(
                MetricsRow(
                    step=int(rec["step"]),
                    **{k: float(rec[k]) for k in METRICS_FIELDS[1:]},
                )
            )
    return rows
