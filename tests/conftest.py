"""Shared helpers: random single-step instances and realized-revenue runs."""

import numpy as np
import pytest

from volfied.broker import RevenueEstimator, SelectionParams
from volfied.model import Ad, DistanceMetric, VehicleProfile
from volfied.oracle import OracleInstance, simulate_display
from volfied.sim import STRATEGIES


def random_instance(
    seed,
    n_ads=10,
    n_vehicles=20,
    k=3,
    m=1,
    n_dims=2,
    d_max=0.3,
    metric=DistanceMetric.EUCLIDEAN,
):
    """Single-PoA instance: all vehicles covered, all ads Global."""
    rng = np.random.default_rng(seed)
    ads = tuple(
        Ad(
            ad_id=i + 1,
            features=rng.uniform(0.0, 1.0, n_dims),
            base_value=float(rng.uniform(0.1, 1.0)),
        )
        for i in range(n_ads)
    )
    vehicles = tuple(
        VehicleProfile(vehicle_id=v, interests=rng.uniform(0.0, 1.0, n_dims))
        for v in range(n_vehicles)
    )
    params = SelectionParams(k=k, m=m, d_max=d_max, metric=metric)
    coverage = {v.vehicle_id: 0 for v in vehicles}
    return OracleInstance(ads=ads, vehicles=vehicles, coverage=coverage, params=params)


def clustered_instance(
    seed,
    n_ads=12,
    n_vehicles=20,
    k=3,
    m=1,
    n_dims=2,
    d_max=0.15,
    n_clusters=3,
    min_sep=0.5,
):
    """Single-PoA instance with clustered interests.

    Vehicles concentrate around a few well-separated interest clusters and
    ads gravitate to the same clusters, so the highest-estimate ads tend to
    conflict with each other while good non-conflicting alternatives exist.
    """
    rng = np.random.default_rng(seed)
    # keep centers far enough apart that cross-cluster ads never conflict
    while True:
        centers = rng.uniform(0.15, 0.85, (n_clusters, n_dims))
        gaps = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
        if (gaps + np.eye(n_clusters) * 9).min() >= min_sep:
            break
    weights = rng.dirichlet(np.ones(n_clusters) * 1.5)
    v_cluster = rng.choice(n_clusters, size=n_vehicles, p=weights)
    a_cluster = rng.choice(n_clusters, size=n_ads, p=weights)
    vehicles = tuple(
        VehicleProfile(
            vehicle_id=v,
            interests=np.clip(
                centers[v_cluster[v]] + rng.normal(0, 0.04, n_dims), 0, 1
            ),
        )
        for v in range(n_vehicles)
    )
    ads = tuple(
        Ad(
            ad_id=i + 1,
            features=np.clip(
                centers[a_cluster[i]] + rng.normal(0, 0.08, n_dims), 0, 1
            ),
            base_value=float(rng.uniform(0.1, 1.0)),
        )
        for i in range(n_ads)
    )
    params = SelectionParams(k=k, m=m, d_max=d_max, metric=DistanceMetric.EUCLIDEAN)
    coverage = {v.vehicle_id: 0 for v in vehicles}
    return OracleInstance(ads=ads, vehicles=vehicles, coverage=coverage, params=params)


def estimator_for(instance):
    """Fresh broker estimator fed one detected enter event per covered vehicle."""
    poa_ids = sorted({p for p in instance.coverage.values() if p is not None})
    est = RevenueEstimator(
        instance.params, {pid: list(instance.ads) for pid in poa_ids}
    )
    for prof in instance.vehicles:
        poa = instance.coverage.get(prof.vehicle_id)
        if poa is not None:
            est.on_vehicle_enter(poa, prof, detected=True)
    return est


def realized_revenue(instance, strategy, rng=None):
    """Select per PoA with the given strategy, then price the displays.

    strategy is a key of sim.STRATEGIES (an unknown one raises KeyError);
    returns (broadcasts, revenue) where broadcasts maps poa_id -> chosen ad
    id list.
    """
    select = STRATEGIES[strategy]
    est = estimator_for(instance)
    poa_ids = sorted({p for p in instance.coverage.values() if p is not None})
    broadcasts = {pid: select(est, pid, instance.params, None, rng) for pid in poa_ids}
    _, revenue = simulate_display(broadcasts, instance)
    return broadcasts, revenue


# One line per acceptance criterion, echoed in the terminal summary so the
# verdicts are visible even when pytest captures per-test stdout.
_CRITERION_LINES: list[str] = []


@pytest.fixture(scope="session")
def criterion_report():
    def note(line: str) -> None:
        _CRITERION_LINES.append(line)
        print(line)

    return note


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
