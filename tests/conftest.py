import numpy as np
import pytest

from gdps.bundle import GradientBundle, GradientMatrix
from gdps.grouping import DistanceMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


def tiny_bundle(rows_by_task, layer="L0"):
    """Bundle with one layer and explicit rows per task."""
    mats = [GradientMatrix(task, layer, np.asarray(rows)) for task, rows in rows_by_task.items()]
    return GradientBundle.from_matrices(mats)


def two_layer_bundle():
    """Two planted tasks at 75 degrees on L0 and 10 degrees on L1."""
    from gdps.synth import planted_bundle

    mats = []
    for theta, layer in ((75.0, "L0"), (10.0, "L1")):
        b = planted_bundle(2, [[0], [1]], theta, d=8, m=4, seed=7, spread_deg=0.0, layer=layer)
        mats += list(b.entries.values())
    return GradientBundle.from_matrices(mats)


def four_language_distances():
    """Distance fixture completed from the two published separations.

    Published: bem-gle = 0.243 and aeb-est = 0.157.  The remaining entries
    are constructed: bem held at 0.243 from everyone, the other in-group
    distances near 0.15.
    """
    tasks = ("aeb", "bem", "est", "gle")
    d = np.zeros((4, 4))
    pairs = {
        ("aeb", "bem"): 0.243,
        ("aeb", "est"): 0.157,
        ("aeb", "gle"): 0.160,
        ("bem", "est"): 0.243,
        ("bem", "gle"): 0.243,
        ("est", "gle"): 0.152,
    }
    idx = {t: i for i, t in enumerate(tasks)}
    for (a, b), v in pairs.items():
        d[idx[a], idx[b]] = d[idx[b], idx[a]] = v
    return DistanceMatrix(tasks, d)
