"""Shared helpers: random single-step instances, realized-revenue runs, the
simulator's step loop as a loop over events and vehicles with a dense
coverage lookup, and the block greedy that `select_volfied` must equal."""

import numpy as np
import pytest

from volfied.broker import RevenueEstimator, SelectionParams, SelectionStats
from volfied.model import Ad, AdTable, DistanceMetric, VehicleProfile, paired_distances
from volfied.oracle import OracleInstance, simulate_display
from volfied.sim import (
    STRATEGIES,
    STREAM_DETECTION,
    STREAM_RANDOM_STRATEGY,
    StepMetrics,
    _candidates_by_poa,
    rng_stream,
)
from volfied.vehicle import VehicleState, step_display

# count_within keeps each kernel temporary below this many, cache-sized, bytes.
_BLOCK_BYTES = 1 << 20


def count_within(
    metric: DistanceMetric, points: np.ndarray, targets: np.ndarray, radius: float
) -> np.ndarray:
    """For each row of `points`, how many rows of `targets` lie within
    `radius` of it (ties inside), evaluated in blocks of points: the
    all-pairs reference for `sparse.ball_counts`."""
    step = max(1, _BLOCK_BYTES // max(targets.nbytes, 1))
    counts = np.zeros(points.shape[0], dtype=np.int64)
    for start in range(0, points.shape[0], step):
        block = points[start : start + step, None, :]
        dists = paired_distances(metric, block, targets[None, :, :])
        counts[start : start + step] = np.count_nonzero(dists <= radius, axis=1)
    return counts


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


def estimator(params, candidates):
    """A `RevenueEstimator` over the ads of `candidates` (PoA id -> ads): the
    catalog holds the first ad that carries each id, and each PoA's mask
    the rows of its ads' ids."""
    first = {}
    for ads in candidates.values():
        for a in ads:
            first.setdefault(a.ad_id, a)
    catalog = AdTable.from_ads(list(first.values()))
    masks = {pid: np.isin(catalog.ids, [a.ad_id for a in ads]) for pid, ads in candidates.items()}
    return RevenueEstimator(params, catalog, masks)


def estimator_for(instance):
    """Fresh broker estimator fed one detected enter event per covered vehicle."""
    poa_ids = sorted({p for p in instance.coverage.values() if p is not None})
    est = estimator(instance.params, {pid: instance.ads for pid in poa_ids})
    for prof in instance.vehicles:
        poa = instance.coverage.get(prof.vehicle_id)
        if poa is not None:
            est.on_vehicle_enter(poa, prof, detected=True)
    return est


def credited_ids(est, poa):
    """Ad ids the estimator credits to each detected vehicle under `poa`:
    the entries of its memo worth something at `poa` and still unserved."""
    credited = {}
    for vid, at in est.present(poa).items():
        rows = est._rows[at]
        rows = rows[est._worth[est._poa_row[poa], rows] & est._unserved[at]]
        credited[vid] = set(est._union_ids[rows].tolist())
    return credited


def full_table_rank(est):
    """`RevenueEstimator._rank` from one pass over the whole count table:
    the reference for its ranking of the cells positive at the last rank
    and those credited since."""
    width = max(est._counts.shape[1], 1)
    cells = np.flatnonzero(est._counts > 0)  # by PoA row, then union row
    at, rows = np.divmod(cells, width)
    r = est.union_base[rows] * est._counts.reshape(-1)[cells]
    # rows ascend with ad id within a PoA, so a stable order breaks ties by id
    rows = rows[np.lexsort((-r, at))]
    ids = est._union_ids[rows]
    bounds = np.searchsorted(at, np.arange(est._counts.shape[0] + 1)).tolist()
    return [(rows[a:b], ids[a:b]) for a, b in zip(bounds, bounds[1:])]


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


def dense_lookup(poas, positions):
    """Index into the ascending PoA ids of the PoA each row of a (n, 2)
    array of positions associates with, -1 where none covers it: one
    (positions x PoAs) matrix of squared distances, those out of range set
    to inf, and its row-wise first minimum. The reference for
    `_CoverageIndex.lookup`."""
    ordered = sorted(poas, key=lambda p: p.poa_id)
    if not ordered:
        return np.full(len(positions), -1, dtype=np.int64)
    xy = np.array([[p.x_m, p.y_m] for p in ordered], dtype=float)
    r2 = np.array([p.range_m * p.range_m for p in ordered], dtype=float)
    dx = positions[:, 0, None] - xy[:, 0]
    dy = positions[:, 1, None] - xy[:, 1]
    d2 = dx * dx + dy * dy
    d2[d2 > r2[None, :]] = np.inf
    best = np.argmin(d2, axis=1)
    covered = np.isfinite(d2[np.arange(len(positions)), best])
    return np.where(covered, best, -1)


def reference_run(config, trace, ads, profiles, poas, display=step_display, new_state=VehicleState):
    """`sim.run` as a loop over events and vehicles, the reference that the
    array passes of `run` must equal.

    In each step, `dense_lookup` places the present vehicles, and every
    vehicle whose PoA changed, in ascending id, leaves its old PoA by
    `on_vehicle_exit` and enters its new one by `on_vehicle_enter`, with
    the same detection draws as `run`. Each PoA then selects and
    broadcasts by `on_broadcast`. Every present vehicle that received ads
    or holds a cache calls `display` (`step_display`'s signature) on its
    state, made by `new_state(profile=...)`, which evaluates the distances
    to the ads in its pool. Returns `run`'s (metrics, summary).
    """
    by_vid = {p.vehicle_id: p for p in profiles}
    params = config.selection_params
    select = STRATEGIES[config.strategy]
    catalog = AdTable.from_ads(ads)
    est = RevenueEstimator(params, catalog, _candidates_by_poa(config, catalog, poas))
    poa_ids = sorted(p.poa_id for p in poas)
    by_ad_id = {a.ad_id: a for a in ads}
    vids = sorted(by_vid)
    states = [new_state(profile=by_vid[vid]) for vid in vids]
    column = np.searchsorted(np.array(vids, dtype=np.int64), trace.ids)
    det_rng = rng_stream(config.seed, STREAM_DETECTION)
    strat_rng = rng_stream(config.seed, STREAM_RANDOM_STRATEGY)
    stats = SelectionStats()

    current = np.full(len(vids), -1, dtype=np.int64)
    cached = np.array([bool(s.cache) for s in states], dtype=bool)
    metrics = []
    revenue, impressions, distance_sum, broadcasts = 0.0, 0, 0.0, 0
    for step in range(config.steps):
        new = np.full(len(vids), -1, dtype=np.int64)
        present = np.zeros(len(vids), dtype=bool)
        if step < trace.n_steps:
            xy = trace.positions[step]
            here = ~np.isnan(xy[:, 0])
            present[column[here]] = True
            new[column[here]] = dense_lookup(poas, xy[here])

        changed = np.flatnonzero(new != current)
        draws = det_rng.uniform(size=np.count_nonzero(new[changed] >= 0))
        detected = iter((draws < config.detection_accuracy).tolist())
        for i in changed.tolist():
            if current[i] >= 0:
                est.on_vehicle_exit(poa_ids[current[i]], vids[i])
            if new[i] >= 0:
                est.on_vehicle_enter(poa_ids[new[i]], states[i].profile, detected=next(detected))
        current = new

        received = []
        for pid in poa_ids:
            chosen = select(est, pid, params, stats, strat_rng)
            est.on_broadcast(pid, chosen)
            broadcasts += len(chosen)
            received.append([by_ad_id[a] for a in chosen])
        received.append([])  # what a vehicle under no PoA (index -1) receives

        sending = np.array([bool(got) for got in received])
        for i in np.flatnonzero(present & (sending[current] | cached)).tolist():
            state = states[i]
            poa = int(current[i])
            where = poa_ids[poa] if poa >= 0 else None
            for ad_id, dist in display(state, received[poa], where, params, config.cache_size):
                revenue += by_ad_id[ad_id].base_value
                impressions += 1
                distance_sum += dist
            cached[i] = bool(state.cache)

        metrics.append(
            StepMetrics(
                step=step,
                revenue_cum=revenue,
                impressions_cum=impressions,
                avg_distance_cum=distance_sum / impressions if impressions else 0.0,
                broadcasts_cum=broadcasts,
            )
        )
    last = metrics[-1] if metrics else StepMetrics(0, 0.0, 0, 0.0, 0)
    summary = {
        "revenue": last.revenue_cum,
        "impressions": last.impressions_cum,
        "avg_distance": last.avg_distance_cum,
        "broadcasts": last.broadcasts_cum,
        "distance_evals": stats.distance_evals,
    }
    return metrics, summary


# block_greedy's first block of candidates, in multiples of k; each later
# block doubles it.
HEAD_PER_SLOT = 4


def block_greedy(est, poa, params, stats=None):
    """`select_volfied` without the conflict memo, the reference it must
    equal in ids and `distance_evals`: each block of the ranking is checked
    against itself and the ads admitted before it by one fresh
    `paired_distances` call."""
    rows, ids = est._positive_by_revenue(poa)
    reach = 2.0 * params.d_max
    chosen: list[int] = []  # indices into rows
    chosen_feats = est._union_feats[:0]
    evals = 0
    start, size = 0, HEAD_PER_SLOT * params.k
    while start < len(rows) and len(chosen) < params.k:
        stop = min(start + size, len(rows))
        block = est._union_feats[rows[start:stop]]
        # columns: the ads admitted before the block, then the block itself
        prior = len(chosen)
        against = np.concatenate([chosen_feats, block]) if prior else block
        near = (paired_distances(params.metric, block[:, None], against[None]) <= reach).tolist()
        columns = list(range(prior))
        for i in range(start, stop):
            n = len(chosen)
            if n >= params.k:
                break
            row = near[i - start]
            evals += n
            if sum([row[c] for c in columns]) < params.m:
                chosen.append(i)
                columns.append(prior + i - start)
        chosen_feats = against[columns]
        start, size = stop, 2 * size
    if stats is not None:
        stats.distance_evals += evals
    return ids[chosen].tolist()


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
