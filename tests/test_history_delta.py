"""Differential tests of the delta history control plane.

The contract under test: a history refresh broadcast as a version-keyed
:class:`~repro.history.HistoryDelta` (only the appended trajectories on
the wire) is **label-identical** to the same refresh broadcast as a full
snapshot — across shard counts and both backends, with streams in flight —
and any base-version disagreement falls back to the full-snapshot form
instead of corrupting a shard. Around that: delta algebra (apply, merge,
chain retention, gapped/out-of-order rejection), the durable
content-addressed :class:`~repro.history.HistoryArchive` (save → load →
serve parameter- and label-exact, blob sharing, gc, integrity), checkpoint
format v4 (history embedded; older versions refused), the
learner publishing deltas, the scheduled roll-forward driver, and — by the
``derivations`` counters — what a refresh does *not* do: derive again, on a
warm shard or a warm trainer, anything it already held.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config import (ASDNetConfig, LabelingConfig, RSRNetConfig,
                          TrainingConfig)
from repro.core import OnlineLearner, RL4OASDTrainer
from repro.exceptions import ArchiveError, CheckpointError, LabelingError
from repro.history import (HistoryArchive, HistoryDelta, HistorySnapshot,
                           RollForwardDriver, RouteHistoryStore, apply_delta,
                           clone_snapshot, delta_from_bytes,
                           delta_to_bytes, merge_deltas)
from repro.serve import (CHECKPOINT_VERSION, DetectionService, IngestEvent,
                         clone_model, load_model, save_model, serve_fleet)
from repro.trajectory import MatchedTrajectory


# ---------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def extension_parts(dataset_split):
    """Three disjoint slices of real trajectories to extend history with."""
    _, development, test = dataset_split
    pool = list(test) + list(development)
    assert len(pool) >= 18
    return pool[:6], pool[6:12], pool[12:18]


def service_fleet(dataset_split):
    _, development, _ = dataset_split
    return list(development)[:10]


# ------------------------------------------------------------ delta algebra
def test_extended_records_origin_delta(trained_model, extension_parts):
    base = trained_model.pipeline.history
    first, _, _ = extension_parts
    successor = base.extended(first, version=base.version + 1)
    delta = successor.origin_delta
    assert isinstance(delta, HistoryDelta)
    assert delta.base_version == base.version
    assert delta.new_version == successor.version
    assert delta.slots_per_day == base.slots_per_day
    # Only what was appended rides the delta: the six trips, under the slot
    # groups they joined, whatever those groups held before.
    assert sorted(t.trajectory_id for trips in delta.appended.values()
                  for t in trips) == sorted(t.trajectory_id for t in first)
    for key, trips in delta.appended.items():
        assert successor.groups()[key] == base.groups().get(key, ()) + trips


def test_apply_delta_reproduces_successor_bit_identically(
        trained_model, extension_parts):
    base = trained_model.pipeline.history
    first, _, _ = extension_parts
    successor = base.extended(first, version=base.version + 1)
    rebuilt = apply_delta(base, successor.origin_delta)
    assert rebuilt.version == successor.version
    assert rebuilt.slots_per_day == successor.slots_per_day
    # Bit-identical: same groups, same values, same iteration order.
    assert list(rebuilt.groups().items()) == list(successor.groups().items())
    assert rebuilt.segment_universe() == successor.segment_universe()
    # And the wire form round-trips to the same result.
    wired = apply_delta(base, delta_from_bytes(
        delta_to_bytes(successor.origin_delta)))
    assert list(wired.groups().items()) == list(successor.groups().items())


def test_apply_delta_rejects_base_version_mismatch(
        trained_model, extension_parts):
    base = trained_model.pipeline.history
    first, second, _ = extension_parts
    v2 = base.extended(first, version=base.version + 1)
    v3 = v2.extended(second, version=v2.version + 1)
    # A gapped (out-of-order) delta must not apply to the older base.
    with pytest.raises(LabelingError, match="delta applies to history"):
        apply_delta(base, v3.origin_delta)
    # Nor may a delta re-apply to the snapshot it already produced.
    with pytest.raises(LabelingError, match="delta applies to history"):
        apply_delta(v2, v2.origin_delta)


def test_merge_deltas_contiguity(trained_model, extension_parts):
    base = trained_model.pipeline.history
    first, second, third = extension_parts
    v2 = base.extended(first, version=base.version + 1)
    v3 = v2.extended(second, version=v2.version + 1)
    v4 = v3.extended(third, version=v3.version + 1)
    chain = [v2.origin_delta, v3.origin_delta, v4.origin_delta]
    merged = merge_deltas(chain)
    assert merged.base_version == base.version
    assert merged.new_version == v4.version
    rebuilt = apply_delta(base, merged)
    assert list(rebuilt.groups().items()) == list(v4.groups().items())
    # Gapped and out-of-order chains are rejected.
    with pytest.raises(LabelingError, match="not contiguous"):
        merge_deltas([v2.origin_delta, v4.origin_delta])
    with pytest.raises(LabelingError, match="not contiguous"):
        merge_deltas([v3.origin_delta, v2.origin_delta])
    with pytest.raises(LabelingError):
        merge_deltas([])


def test_store_delta_chain_retention_and_rebuild(
        trained_model, extension_parts):
    first, second, third = extension_parts
    store = RouteHistoryStore.from_snapshot(trained_model.pipeline.history)
    v1 = store.version
    store.extend(first)
    store.extend(second)
    chain = store.delta_chain(v1)
    assert chain is not None and len(chain) == 2
    assert chain[0].base_version == v1
    assert chain[1].new_version == store.version
    # Intermediate base works too; absurd bases do not.
    assert len(store.delta_chain(v1 + 1)) == 1
    assert store.delta_chain(store.version) is None
    assert store.delta_chain(v1 - 1) is None
    # A rebuild has no delta form: the log is cleared.
    store.rebuild(list(store.current().trajectories()))
    assert store.delta_chain(v1) is None
    # Deltas resume after the rebuild.
    rebuilt_version = store.version
    store.extend(third)
    assert len(store.delta_chain(rebuilt_version)) == 1


def test_snapshot_serialization_drops_origin_delta(
        trained_model, extension_parts):
    base = trained_model.pipeline.history
    first, _, _ = extension_parts
    successor = base.extended(first, version=base.version + 1)
    assert successor.origin_delta is not None
    assert clone_snapshot(successor).origin_delta is None


# ----------------------------------------------- service delta differential
@pytest.mark.parametrize("backend,shards", [
    ("inprocess", 1),
    ("inprocess", 3),
    ("process", 2),
])
def test_delta_swap_matches_full_swap_and_fresh_build(
        trained_model, dataset_split, extension_parts, backend, shards):
    """The tentpole differential: delta ≡ full ≡ fresh, streams in flight."""
    first, second, _ = extension_parts
    fleet = service_fleet(dataset_split)
    model = clone_model(trained_model)
    pipeline = model.pipeline

    delta_svc = DetectionService(model, num_shards=shards, backend=backend)
    full_svc = DetectionService(model, num_shards=shards, backend=backend)
    try:
        # Open streams that stay in flight across the refresh boundary.
        inflight = fleet[0]
        for svc in (delta_svc, full_svc):
            svc.ingest_many([IngestEvent(
                "inflight", inflight.segments[0],
                destination=inflight.destination,
                start_time_s=inflight.start_time_s)])
            svc.ingest_many([IngestEvent("inflight", inflight.segments[1])])
            svc.pump()

        pipeline.extend_history(first)
        pipeline.extend_history(second)

        # Delta path: the pipeline exposes the store, both extends chain.
        delta_svc.swap(history=pipeline)
        assert delta_svc.metrics().delta_swaps == 1
        assert delta_svc.metrics().full_swaps == 0
        # Full path: a cloned bare snapshot has neither store nor origin
        # delta, so the facade must broadcast the whole corpus.
        full_svc.swap(history=clone_snapshot(pipeline.history))
        assert full_svc.metrics().full_swaps == 1
        assert full_svc.metrics().delta_swaps == 0
        assert delta_svc.history_version == full_svc.history_version
        # The delta payload must be much smaller than the full snapshot's.
        assert (delta_svc.metrics().swap_payload_bytes
                < full_svc.metrics().swap_payload_bytes / 2)

        # In-flight streams keep their opening snapshot on both paths.
        for svc in (delta_svc, full_svc):
            for segment in inflight.segments[2:]:
                svc.ingest_many([IngestEvent("inflight", segment)])
        inflight_delta = delta_svc.finalize("inflight")
        inflight_full = full_svc.finalize("inflight")
        assert inflight_delta.labels == inflight_full.labels

        # Streams opened after the refresh label exactly like a service
        # freshly built from the refreshed snapshot.
        fresh = DetectionService(model.with_history(pipeline.history),
                                 num_shards=1, backend="inprocess")
        try:
            reference = serve_fleet(fresh, fleet)
            via_delta = serve_fleet(delta_svc, fleet)
            via_full = serve_fleet(full_svc, fleet)
        finally:
            fresh.close()
        for ref, d, f in zip(reference, via_delta, via_full):
            assert d.labels == ref.labels
            assert f.labels == ref.labels
    finally:
        delta_svc.close()
        full_svc.close()


def test_swap_falls_back_to_full_on_unknown_base_then_resumes(
        trained_model, extension_parts):
    """A gapped chain is routine, not an error: full swap, then deltas."""
    first, second, third = extension_parts
    model = clone_model(trained_model)
    pipeline = model.pipeline
    svc = DetectionService(model, num_shards=2, backend="inprocess")
    try:
        # Two extends, but the second snapshot arrives *bare* — its origin
        # delta bases on the intermediate version the service never saw,
        # and without the store there is no chain to merge.
        pipeline.extend_history(first)
        pipeline.extend_history(second)
        svc.swap(history=clone_snapshot(pipeline.history))
        metrics = svc.metrics()
        assert metrics.full_swaps == 1 and metrics.delta_swaps == 0
        # The full swap re-synchronized every shard: deltas resume.
        pipeline.extend_history(third)
        svc.swap(history=pipeline)
        metrics = svc.metrics()
        assert metrics.delta_swaps == 1
        assert svc.history_version == pipeline.history.version
    finally:
        svc.close()


def test_swap_via_store_with_evicted_chain_uses_full_form(
        trained_model, extension_parts):
    """A store whose log no longer reaches the acked base → full swap.

    With the chain evicted, a snapshot exactly one step ahead can still
    ride its own ``origin_delta``; a snapshot two steps ahead cannot (its
    origin delta bases on the intermediate version the shards never saw),
    so the facade must fall back to the full corpus.
    """
    first, second, _ = extension_parts
    model = clone_model(trained_model)
    pipeline = model.pipeline
    svc = DetectionService(model, num_shards=1, backend="inprocess")
    try:
        pipeline.extend_history(first)
        pipeline.extend_history(second)
        pipeline.store._deltas.clear()  # simulate eviction/restart
        svc.swap(history=pipeline)
        metrics = svc.metrics()
        assert metrics.full_swaps == 1 and metrics.delta_swaps == 0
    finally:
        svc.close()


def resolved_keys(pipeline, snapshot, trips):
    return {snapshot.resolved_key(
        trip.source, trip.destination, pipeline._slot_of(trip.start_time_s),
        pipeline.config.min_slot_group_size) for trip in trips}


def grown_keys(pipeline, trips):
    """The memo keys of the groups ``trips`` join: each trip's own slot
    group, and its pair across all slots."""
    return ({(trip.source, trip.destination, None) for trip in trips}
            | {(trip.source, trip.destination,
                pipeline._slot_of(trip.start_time_s)) for trip in trips})


@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_delta_swap_into_a_warm_shard_derives_nothing_again(
        trained_model, backend):
    """Where the history layer's time went, counted: a delta that touches
    every SD pair extends every entry the shard holds and computes none; a
    group is derived from scratch only when nobody asked for it before."""
    model = clone_model(trained_model)
    pipeline = model.pipeline
    base = pipeline.history
    first_of_pair = {}
    for trip in base.trajectories():
        first_of_pair.setdefault(trip.sd_pair, trip)
    fleet = list(first_of_pair.values())  # one stream per SD pair
    held = resolved_keys(pipeline, base, fleet)
    with DetectionService(model, num_shards=1, backend=backend) as service:
        serve_fleet(service, fleet)
        warm = service.metrics().shards[0]
        assert (warm.history_computed, warm.history_extended) == (len(held), 0)
        # One new trip per pair, in the slot of the pair's stream: every
        # group the shard holds an entry for grows.
        refreshed = pipeline.extend_history([
            MatchedTrajectory(90_000 + index, list(trip.segments),
                              start_time_s=trip.start_time_s)
            for index, trip in enumerate(fleet)])
        service.swap(history=pipeline)
        assert service.metrics().delta_swaps == 1
        swapped = service.metrics().shards[0]
        assert swapped.history_computed == warm.history_computed
        assert swapped.history_extended == len(held)
        serve_fleet(service, fleet)
        # Only a slot that crossed min_slot_group_size asks for a new key.
        crossed = resolved_keys(pipeline, refreshed, fleet) - held
        after = service.metrics().shards[0]
        assert after.history_computed == warm.history_computed + len(crossed)
        assert after.history_extended == len(held)
        assert (f'repro_history_derived_total{{how="extended"}} '
                f'{len(held)}') in service.metrics_text()


def test_in_process_shards_report_their_one_history_lineage_once(
        trained_model):
    """In-process shards serve one shared pipeline: every shard reports
    that lineage's counts, and the service-level series counts it once."""
    model = clone_model(trained_model)
    first_of_pair = {}
    for trip in model.pipeline.history.trajectories():
        first_of_pair.setdefault(trip.sd_pair, trip)
    fleet = list(first_of_pair.values())
    held = resolved_keys(model.pipeline, model.pipeline.history, fleet)
    with DetectionService(model, num_shards=2, backend="inprocess") as service:
        serve_fleet(service, fleet)
        metrics = service.metrics()
        assert all(shard.points_processed for shard in metrics.shards)
        assert [shard.history_computed for shard in metrics.shards] \
            == [len(held)] * 2
        assert metrics.history_derived == {"computed": len(held),
                                           "extended": 0}
        assert (f'repro_history_derived_total{{how="computed"}} '
                f'{len(held)}\n') in service.metrics_text()


def test_an_in_process_delta_swap_shares_trajectories_and_nothing_else(
        trained_model, extension_parts):
    """What an in-process shard shares with the publisher, under either
    swap form: no group map and no memo. A delta swap does share the
    appended trajectory objects — values no history ever mutates or
    copies, the publisher's own store included."""
    first, second, _ = extension_parts
    model = clone_model(trained_model)
    pipeline = model.pipeline
    with DetectionService(model, num_shards=2, backend="inprocess") as service:
        published = pipeline.extend_history(first)
        service.swap(history=pipeline)
        assert service.metrics().delta_swaps == 1
        engines = [core.engine for core in service._backend._cores]
        serving = engines[0].history_snapshot
        assert all(engine.history_snapshot is serving for engine in engines)
        assert serving is not published
        assert serving.groups() is not published.groups()
        assert list(serving.groups().items()) \
            == list(published.groups().items())
        served = {id(trip) for trip in serving.trajectories()}
        assert all(id(trip) in served for trip in first)
        # The publisher deriving, or moving on, is not seen by serving.
        before = serving.derivations
        for trip in first:
            pipeline.normal_routes_for(trip)
        pipeline.extend_history(second)
        assert serving.derivations == before
        assert serving is engines[1].history_snapshot
        assert len(serving) == len(published)


def _warm_trainer(dataset, dataset_split, **training):
    """A trained trainer that has fine-tuned once, and the 30 trips of its
    next fine-tune."""
    train, development, _ = dataset_split
    trainer = RL4OASDTrainer(
        dataset.network, train[:120],
        labeling_config=LabelingConfig(alpha=0.35, delta=0.25,
                                       min_slot_group_size=3),
        rsrnet_config=RSRNetConfig(embedding_dim=12, hidden_dim=12, nrf_dim=6),
        asdnet_config=ASDNetConfig(label_embedding_dim=6),
        training_config=TrainingConfig(
            pretrain_trajectories=40, pretrain_epochs=1,
            joint_trajectories=20, joint_epochs=1, validation_interval=20,
            **training),
        development_set=development[:10],
    )
    trainer.train()
    trainer.fine_tune(train[120:150], batch_size=8)
    return trainer, train[150:180]


def test_fine_tune_on_a_warm_trainer_derives_only_what_it_never_held(
        dataset, dataset_split):
    """The RL path reads tokens and NRF only: its fine-tune computes route
    tallies for the groups asked for the first time and extends the held
    ones its trips joined. It computes no transition statistics, so the
    statistics memo gains no entry; what it holds (from the noisy-label
    warm start) is extended by the refresh where a group grew and carried
    by reference where none did."""
    trainer, new = _warm_trainer(dataset, dataset_split)
    pipeline = trainer.pipeline
    before = pipeline.history
    held_routes = set(before._routes_cache)
    held_statistics = set(before._statistics_cache)
    counts = before.derivations
    trainer.fine_tune(new, batch_size=8)
    after = pipeline.history
    assert after.version == before.version + 1
    grown = grown_keys(pipeline, new)
    fresh = resolved_keys(pipeline, after, new) - held_routes
    assert set(after._routes_cache) == held_routes | fresh
    assert set(after._statistics_cache) == held_statistics
    for key in held_statistics - grown:
        assert after._statistics_cache[key] is before._statistics_cache[key]
    assert after.derivations == {
        "computed": counts["computed"] + len(fresh),
        "extended": counts["extended"] + len(held_routes & grown)
        + len(held_statistics & grown)}
    assert fresh and held_routes & grown and held_statistics & grown


def test_noisy_label_fine_tune_derives_both_only_where_it_never_held(
        dataset, dataset_split):
    """Without ASDNet the fine-tune trains on noisy labels, so it derives
    both statistics and route tally: each extended for every held group
    the new trips joined, computed for the groups asked for the first time
    (a pair or a dense slot nobody preprocessed, a slot that just crossed
    min_slot_group_size) — and for nothing else."""
    trainer, new = _warm_trainer(dataset, dataset_split, use_asdnet=False)
    pipeline = trainer.pipeline
    before = pipeline.history
    held = set(before._routes_cache)
    assert held == set(before._statistics_cache)
    counts = before.derivations
    trainer.fine_tune(new, batch_size=8)
    after = pipeline.history
    assert after.version == before.version + 1
    fresh = resolved_keys(pipeline, after, new) - held
    assert after.derivations == {
        "computed": counts["computed"] + 2 * len(fresh),
        "extended": counts["extended"]
        + 2 * len(held & grown_keys(pipeline, new))}
    assert fresh and held & grown_keys(pipeline, new)


def test_learner_publishes_delta_swaps(dataset, dataset_split):
    """The FT loop's routine publish rides the delta plane end to end."""
    train, development, _ = dataset_split
    trainer = RL4OASDTrainer(
        dataset.network, train[:120],
        labeling_config=LabelingConfig(alpha=0.35, delta=0.25),
        rsrnet_config=RSRNetConfig(embedding_dim=12, hidden_dim=12, nrf_dim=6),
        asdnet_config=ASDNetConfig(label_embedding_dim=6),
        training_config=TrainingConfig(
            pretrain_trajectories=40, pretrain_epochs=1,
            joint_trajectories=20, joint_epochs=1, validation_interval=20),
        development_set=development[:10],
    )
    learner = OnlineLearner(trainer)
    learner.initial_fit()
    service = learner.model.detection_service(num_shards=2)
    learner.attach_service(service)
    try:
        learner.observe_part(1, train[120:140])
        metrics = service.metrics()
        assert metrics.delta_swaps == 1
        assert metrics.full_swaps == 0
        assert service.history_version == learner.model.pipeline.history.version
        learner.observe_part(2, train[140:160])
        assert service.metrics().delta_swaps == 2
    finally:
        service.close()


# ------------------------------------------------------------------ archive
def test_archive_round_trip_is_parameter_and_label_exact(
        tmp_path, trained_model, dataset_split, extension_parts):
    first, _, _ = extension_parts
    base = trained_model.pipeline.history
    refreshed = base.extended(first, version=base.version + 1)
    archive = HistoryArchive(tmp_path / "hist")
    archive.save(base, provenance={"note": "seed"})
    archive.save(refreshed)
    assert archive.versions() == [base.version, refreshed.version]
    assert archive.provenance(base.version)["note"] == "seed"

    loaded = archive.load(refreshed.version)
    assert loaded.version == refreshed.version
    assert loaded.slots_per_day == refreshed.slots_per_day
    assert list(loaded.groups().items()) == list(refreshed.groups().items())
    # load() defaults to the newest version.
    assert archive.load().version == refreshed.version

    # Label-exact through a serving build.
    fleet = service_fleet(dataset_split)
    with DetectionService(trained_model.with_history(refreshed),
                          num_shards=1) as direct, \
            DetectionService(trained_model.with_history(loaded),
                             num_shards=1) as rehydrated:
        for a, b in zip(serve_fleet(direct, fleet),
                        serve_fleet(rehydrated, fleet)):
            assert a.labels == b.labels


def test_archive_shares_blobs_and_gc_reclaims(tmp_path, trained_model,
                                              extension_parts):
    first, _, _ = extension_parts
    base = trained_model.pipeline.history
    refreshed = base.extended(first, version=base.version + 1)
    archive = HistoryArchive(tmp_path / "hist")
    archive.save(base)
    blobs_after_base = len(list((tmp_path / "hist" / "blobs").glob("*.pkl")))
    archive.save(refreshed)
    blobs_after_both = len(list((tmp_path / "hist" / "blobs").glob("*.pkl")))
    touched = len(refreshed.origin_delta.appended)
    # Copy-on-write sharing on disk: version N+1 adds at most one blob per
    # touched group, not one per group in the corpus.
    assert blobs_after_both - blobs_after_base <= touched
    # gc to the newest version only; shared blobs survive.
    manifests_removed, _ = archive.gc(keep_last=1)
    assert manifests_removed == 1
    assert archive.versions() == [refreshed.version]
    loaded = archive.load()
    assert list(loaded.groups().items()) == list(refreshed.groups().items())
    with pytest.raises(ArchiveError):
        archive.load(base.version)


def test_archive_refuses_forked_version_and_detects_corruption(
        tmp_path, trained_model, extension_parts):
    first, _, _ = extension_parts
    base = trained_model.pipeline.history
    archive = HistoryArchive(tmp_path / "hist")
    archive.save(base)
    archive.save(base)  # idempotent re-save of identical content
    forked = HistorySnapshot(
        dict(list(base.groups().items())[:1]), base.slots_per_day,
        base.version)
    with pytest.raises(ArchiveError, match="already archived"):
        archive.save(forked)
    # Flip one blob's bytes: the digest re-check must catch it.
    blob = next((tmp_path / "hist" / "blobs").glob("*.pkl"))
    blob.write_bytes(blob.read_bytes() + b"x")
    with pytest.raises(ArchiveError, match="integrity"):
        archive.load(base.version)


# --------------------------------------------------------------- checkpoints
@pytest.mark.parametrize("version", [2, 3, 99])
def test_unreadable_checkpoint_versions_are_rejected(tmp_path, trained_model,
                                                     version):
    """Only the current format is read. A pre-delta-plane v2 payload is
    refused like any unknown version, and so is a v3 payload whose history
    lived in an archive: its pipeline carries an empty placeholder snapshot
    at the true version, which would otherwise load as a history-less
    model."""
    assert CHECKPOINT_VERSION == 4
    path = tmp_path / "other.ckpt"
    save_model(trained_model, path)
    payload = pickle.loads(path.read_bytes())
    payload["version"] = version
    if version == 3:
        history = payload["pipeline"].history
        payload["pipeline"] = payload["pipeline"].with_history(
            HistorySnapshot({}, history.slots_per_day, history.version))
        payload["history_storage"] = "archived"
    path.write_bytes(pickle.dumps(payload))
    with pytest.raises(CheckpointError, match="not supported"):
        load_model(path)


# ------------------------------------------------------------- roll-forward
def test_roll_forward_driver_rolls_window_and_publishes(
        trained_model, dataset_split, extension_parts, tmp_path):
    first, second, _ = extension_parts
    fleet = service_fleet(dataset_split)
    model = clone_model(trained_model)
    archive = HistoryArchive(tmp_path / "rolls")
    driver = RollForwardDriver(model.pipeline, interval_s=10.0, window_s=30.0,
                               archive=archive)
    svc = DetectionService(model, num_shards=2, backend="inprocess")
    driver.attach_service(svc)
    try:
        assert driver.tick(0.0) is None  # arms the timer
        driver.observe(first, now=1.0)
        assert driver.tick(5.0) is None  # not due yet
        snapshot = driver.tick(11.0)
        assert snapshot is not None
        assert svc.history_version == snapshot.version
        assert driver.stats.rolls == 1
        assert archive.versions() == [snapshot.version]
        # The post-roll publish is intentionally a full swap (a rebuild has
        # no delta form); label equivalence against a fresh build holds.
        assert svc.metrics().full_swaps == 1
        fresh = DetectionService(model.with_history(snapshot), num_shards=1)
        try:
            for a, b in zip(serve_fleet(svc, fleet),
                            serve_fleet(fresh, fleet)):
                assert a.labels == b.labels
        finally:
            fresh.close()
        # A second roll from fresh window entries...
        driver.observe(second, now=35.0)
        assert driver.tick(45.0) is not None
        assert driver.stats.rolls == 2
        # ...then every entry ages past the 30s window: the due tick
        # skips the roll instead of rebuilding down to the seed.
        assert driver.tick(120.0) is None
        assert driver.stats.skipped_empty == 1
    finally:
        svc.close()


def test_roll_forward_driver_validates_inputs(trained_model):
    store = RouteHistoryStore.from_snapshot(trained_model.pipeline.history)
    with pytest.raises(LabelingError):
        RollForwardDriver(store, interval_s=0.0)
    with pytest.raises(LabelingError):
        RollForwardDriver(store, window_s=-1.0)
    with pytest.raises(LabelingError):
        RollForwardDriver(object())
