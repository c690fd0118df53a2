"""Byte-identity of metrics CSVs over the knobs the perfbench goldens miss.

The perfbench goldens run only Euclidean, m = 1, full detection, full
catalogs and the `volfied` and `topk` strategies. This table pins a
metrics CSV digest for every pair of the knobs below (a covering array:
each two knobs meet in all their value pairs), at two seeds each: angular
runs, the `random` strategy's stream, detection draws with p < 1, m > 1,
sparse catalogs and caches. A change that is not meant to change outputs
must leave every digest as it is.

Re-record only for a change meant to change outputs:

    PYTHONPATH=src python tests/test_digests.py
"""

import dataclasses
import hashlib

import pytest

from volfied.files import render_metrics_csv
from volfied.model import DistanceMetric
from volfied.scenario import build_scenario
from volfied.sim import SimConfig, run

EUCL, ANG = DistanceMetric.EUCLIDEAN, DistanceMetric.ANGULAR

# about 2,000 ads and 120 steps; few vehicles keep the table cheap
SCENARIO = SimConfig(
    k=4,
    n_ads=2000,
    n_poas=6,
    n_vehicles=100,
    steps=120,
    area_w_m=2000.0,
    area_h_m=2000.0,
    n_dims=3,
    poa_range_m=400.0,
    epsilon=0.05,
)
D_MAX = {EUCL: 0.12, ANG: 0.08}
SEEDS = (0, 1)

# (strategy, metric, m, detection_accuracy, use_sparse, cache_size)
GRID = [
    ("volfied", EUCL, 1, 1.0, False, 0),
    ("volfied", EUCL, 2, 1.0, True, 4),
    ("volfied", ANG, 1, 0.6, False, 4),
    ("volfied", ANG, 2, 0.6, True, 0),
    ("topk", EUCL, 1, 1.0, True, 4),
    ("topk", EUCL, 2, 0.6, False, 4),
    ("topk", ANG, 1, 0.6, True, 0),
    ("topk", ANG, 2, 1.0, False, 0),
    ("random", EUCL, 1, 0.6, False, 4),
    ("random", EUCL, 2, 0.6, True, 0),
    ("random", ANG, 1, 1.0, False, 0),
    ("random", ANG, 2, 1.0, True, 4),
]

# label -> SHA-256 of the metrics CSV
DIGESTS = {
    "volfied-euclidean-m1-p1.0-full-C0-seed0": "2e5c62baa85c676a2e892fe8952b8b25e0e810784ca7c75dd2cc9ab700c95ed8",
    "volfied-euclidean-m1-p1.0-full-C0-seed1": "425d92a7cb3d0df3479ad957ecec1149b585ae7d1e69fe732900ee464bc30585",
    "volfied-euclidean-m2-p1.0-sparse-C4-seed0": "419d41753df2d918083b33a283cb3e0290c8c3e55c4f2ea937b81da134e06fa0",
    "volfied-euclidean-m2-p1.0-sparse-C4-seed1": "cbfab6a178000c982958bee42d7901312621db21345c8d023685144fa51eba51",
    "volfied-angular-m1-p0.6-full-C4-seed0": "754c376e437cfc913ba24309c1d8d1e1482f652d468df72c13851b12c358098d",
    "volfied-angular-m1-p0.6-full-C4-seed1": "3fef4d247ab0f5bda2f5313d075a7af07b63c550a63c295caa5384c95bbf9197",
    "volfied-angular-m2-p0.6-sparse-C0-seed0": "949d58c35865b556fab3ab26a5db9a337270ad88a0fc4ca2dc7740b4511840fb",
    "volfied-angular-m2-p0.6-sparse-C0-seed1": "cec13a758086967467cb53e3fa5ce60d4e7edf40ab77a6faa8bc10361cad15ed",
    "topk-euclidean-m1-p1.0-sparse-C4-seed0": "6434b17f95e8634620dd0dccb3172ed1e642327c366e16a742197c4302ddf008",
    "topk-euclidean-m1-p1.0-sparse-C4-seed1": "c6291ce833e7515a3245ca00769bb2d083d3815adf8c12f10c931106121934f3",
    "topk-euclidean-m2-p0.6-full-C4-seed0": "6dac14e9c26425321a5303b8b676e80dbc3af9cc2ce91dbe4dd8693a5f095858",
    "topk-euclidean-m2-p0.6-full-C4-seed1": "4aa8150d78636ca2c36726b77af9b0b32f804c6ee10bf2fe67d163f42cfd7a7d",
    "topk-angular-m1-p0.6-sparse-C0-seed0": "231846664eb95ed2d9adca6c0c57aaee025408a81d8711c36be59dfc99b37f06",
    "topk-angular-m1-p0.6-sparse-C0-seed1": "c7b5fa07dbd6ff4dda7776284e51d81d776e7e659963f9f83dc1602b50850124",
    "topk-angular-m2-p1.0-full-C0-seed0": "9e3facd61b9d1fcd11f9efa18eca510f697322de541f509535ec90a2ba1f272e",
    "topk-angular-m2-p1.0-full-C0-seed1": "95cddb602b25651fca4eb404b2942b0aac00d8cd227504e7c789849fa49758f9",
    "random-euclidean-m1-p0.6-full-C4-seed0": "ac679505a79378c47fc2d4a60b307ab6d2e93aff39b24a32d4c1493a30cf54d1",
    "random-euclidean-m1-p0.6-full-C4-seed1": "bc5b2a676433ac7c2d1cb940b3c94bcb2fc8bd44c8e0bafec21be9f7a90dc4fc",
    "random-euclidean-m2-p0.6-sparse-C0-seed0": "ffcac0e4f3cc769dc4925f97d644f38e6c863eed80ad37ff637b1956d388a2d1",
    "random-euclidean-m2-p0.6-sparse-C0-seed1": "452a05d33d9f6cfb94a3d2229a9f46415851223496feb26322b57d572d42aebc",
    "random-angular-m1-p1.0-full-C0-seed0": "dc0b8b8249eed7fded621132bfa874dbeb83536f49dafa53137e235dda070e6f",
    "random-angular-m1-p1.0-full-C0-seed1": "e6399269480b255a9e2a50dfe57b12f3322c50f1b0183dd56f3bb7adcda572f9",
    "random-angular-m2-p1.0-sparse-C4-seed0": "8b13f5dd8f00ab42430d7dbe6a2eeca8036fdf41498edb05be9482d322cbbf0c",
    "random-angular-m2-p1.0-sparse-C4-seed1": "b96a9227d918c238fd0deb2f2b0470475f32257adfff20326e2c0bbb79e0ec0f",
}


def label(row, seed):
    strategy, metric, m, p, sparse, cache = row
    catalog = "sparse" if sparse else "full"
    return f"{strategy}-{metric.value}-m{m}-p{p}-{catalog}-C{cache}-seed{seed}"


def metrics_digest(row, seed):
    strategy, metric, m, p, sparse, cache = row
    cfg = dataclasses.replace(
        SCENARIO,
        strategy=strategy,
        metric=metric,
        d_max=D_MAX[metric],
        m=m,
        detection_accuracy=p,
        use_sparse=sparse,
        cache_size=cache,
        seed=seed,
    )
    ads, profiles, poas, trace = build_scenario(cfg, seed)
    metrics, _ = run(cfg, trace, ads, profiles, poas)
    return hashlib.sha256(render_metrics_csv(strategy, metrics).encode()).hexdigest()


CASES = [(row, seed) for row in GRID for seed in SEEDS]


def test_grid_covers_every_pair():
    for i in range(6):
        for j in range(i + 1, 6):
            pairs = {(row[i], row[j]) for row in GRID}
            assert len(pairs) == len({r[i] for r in GRID}) * len({r[j] for r in GRID})


@pytest.mark.parametrize("row,seed", CASES, ids=[label(r, s) for r, s in CASES])
def test_metrics_digest(row, seed):
    assert metrics_digest(row, seed) == DIGESTS[label(row, seed)]


if __name__ == "__main__":
    for row, seed in CASES:
        print(f'    "{label(row, seed)}": "{metrics_digest(row, seed)}",')
