"""Shared lane plans: each parent arrival is routed once per session build.

A sharded session routes its parent order through the partition map
once per build (start, reshard, resume) and every lane reads its slice
of that plan.  Pinned here:

- the route count: O(n · epochs) ``shard_of`` calls per build,
  independent of the lane count, and none while lanes drain;
- equivalence with references built in the test itself — per-element
  ``shard_of`` filtering of the parent stream for a single epoch, and
  per-lane ``lane_streams`` calls for a multi-epoch map — on order,
  batch sizes, timestamps and the final fingerprint of every lane;
- the per-element fallback for parents with no up-front order;
- strict parsing of the partition map's integer fields, down to the
  CLI's exit code.
"""

import json

import pytest

import repro.online.sharding as sharding
from repro.cli import main
from repro.errors import InvalidInstanceError
from repro.online.arrivals import (
    ArrivalFingerprint,
    ArrivalSchedule,
    ArrivalSource,
    ScheduleSource,
    build_arrival_source,
    source_from_spec,
)
from repro.online.session import (
    build_workload,
    reshard_session,
    resume_any_session,
    start_sharded_session,
)
from repro.online.sharding import (
    PartitionMap,
    ShardSource,
    partition_from_manifest,
    shard_of,
)


def _rt(payload):
    return json.loads(json.dumps(payload, sort_keys=True, allow_nan=False))


@pytest.fixture
def route_counter(monkeypatch):
    """Count every ``shard_of`` call made through the sharding module."""
    calls = [0]
    real = sharding.shard_of

    def counting(element, num_shards, salt=0):
        calls[0] += 1
        return real(element, num_shards, salt)

    monkeypatch.setattr(sharding, "shard_of", counting)
    return calls


class TestRouteCount:
    N = 2000

    def test_each_build_routes_the_parent_once(self, route_counter):
        n = self.N
        session = start_sharded_session(
            n=n, k=4, seed=3, process="bursty", shards=4,
        )
        started = route_counter[0]
        session.advance(n // 2)
        assert route_counter[0] == started  # lanes drain without routing
        assert route_counter[0] <= n
        manifest = _rt(session.checkpoint())
        consumed = sum(entry["cursor"] for entry in manifest["shards"])
        assert consumed == n // 2

        route_counter[0] = 0
        resharded = reshard_session(manifest, 8)
        assert route_counter[0] <= n + (n - consumed)

        route_counter[0] = 0
        resumed = resume_any_session(_rt(resharded))
        assert route_counter[0] <= n + (n - consumed)

        route_counter[0] = 0
        resumed.advance()
        assert resumed.finished
        assert route_counter[0] == 0

    def test_shrink_routes_nothing_at_reshard(self, route_counter):
        # Every lane of a shrink is carried: only its spec is rewritten.
        session = start_sharded_session(
            n=200, k=4, seed=3, process="bursty", shards=4,
        ).advance(150)
        manifest = _rt(session.checkpoint())
        route_counter[0] = 0
        out = reshard_session(manifest, 2)
        assert route_counter[0] == 0
        assert 2 < len(out["shards"]) <= len(manifest["shards"])
        assert resume_any_session(out).advance().finished

    def test_route_count_is_independent_of_lane_count(self, route_counter):
        counts = []
        for shards in (2, 8):
            route_counter[0] = 0
            start_sharded_session(
                n=300, k=4, seed=3, process="poisson", shards=shards,
            ).advance()
            counts.append(route_counter[0])
        assert counts == [300, 300]


class _OpaqueSource(ArrivalSource):
    """A parent whose order is unknown up front (``order`` is ``None``)."""

    def __init__(self, schedule: ArrivalSchedule) -> None:
        super().__init__(schedule.process, schedule.seed, schedule.params, None)
        self._inner = ScheduleSource(schedule)

    def _emit(self, limit):
        self._inner._cursor = self._cursor
        return self._inner._emit(limit)


def _drain(source):
    """``(elements, batch_sizes, timestamps)`` left in *source*."""
    elements, sizes, stamps = [], [], []
    while True:
        step = source.take(None)
        if step is None:
            return elements, sizes, stamps
        _, batch, ts = step
        elements.extend(batch)
        sizes.append(len(batch))
        stamps.extend(ts if ts is not None else [None] * len(batch))


def _filtered_lanes(schedule, num_shards, salt=0):
    """Single-epoch reference: filter the parent element by element."""
    lanes = [([], [], []) for _ in range(num_shards)]
    pos = 0
    for size in schedule.batch_sizes:
        counts = [0] * num_shards
        for p in range(pos, pos + size):
            a = shard_of(schedule.order[p], num_shards, salt)
            lanes[a][0].append(schedule.order[p])
            lanes[a][2].append(
                None if schedule.timestamps is None else schedule.timestamps[p]
            )
            counts[a] += 1
        for a, c in enumerate(counts):
            if c:
                lanes[a][1].append(c)
        pos += size
    return lanes


def _fingerprint(schedule, lane, params):
    """Fingerprint of a reference ``(order, sizes, stamps)`` lane."""
    order, sizes, stamps = lane
    return ArrivalSchedule(
        process=schedule.process, seed=schedule.seed, order=order,
        batch_sizes=sizes,
        timestamps=None if schedule.timestamps is None else stamps,
        params=params,
    ).fingerprint()


class TestPerElementFallback:
    def test_unplannable_parent_still_shards_correctly(self, route_counter):
        fn, _ = build_workload({"family": "additive", "n": 40, "seed": 2})
        schedule = build_arrival_source("poisson", fn, 5).materialize()
        want = _filtered_lanes(schedule, 3, salt=4)
        route_counter[0] = 0
        for index in range(3):
            lane = ShardSource(_OpaqueSource(schedule), index, 3, salt=4)
            assert lane.order is None and lane.n is None
            assert _drain(lane) == want[index]
            assert lane.fingerprint() == _fingerprint(
                schedule, want[index], lane.params)
        # No plan: every lane routes every parent element as it arrives.
        assert route_counter[0] == 3 * schedule.n

    def test_fallback_lane_suspends_and_resumes(self):
        fn, _ = build_workload({"family": "additive", "n": 30, "seed": 2})
        schedule = build_arrival_source("bursty", fn, 5).materialize()
        whole = ShardSource(_OpaqueSource(schedule), 1, 2)
        want = _drain(whole)
        lane = ShardSource(_OpaqueSource(schedule), 1, 2)
        head = lane.take(2)
        state = _rt(lane.state_dict())
        back = ShardSource(_OpaqueSource(schedule), 1, 2)
        back.restore(state)
        tail = _drain(back)
        assert head[1] + tail[0] == want[0]
        assert back.fingerprint() == whole.fingerprint()


def _parent_of(manifest, fn):
    """A fresh parent stream rebuilt from a manifest lane's spec."""
    spec = manifest["shards"][0]["source"]
    return source_from_spec(
        {k: v for k, v in spec.items() if k not in ("shard", "state")}, fn,
    )


def _planned_lane(schedule, pinned, suffix):
    """Multi-epoch reference lane: positions grouped by parent batch.

    Returns the lane's order, timestamps, and per-arrival flags saying
    which arrivals open a lane batch.
    """
    positions = list(pinned) + list(suffix)
    batch_of, pos = [], 0
    for b, size in enumerate(schedule.batch_sizes):
        batch_of.extend([b] * size)
        pos += size
    opens = [
        k == 0 or batch_of[p] != batch_of[positions[k - 1]]
        for k, p in enumerate(positions)
    ]
    stamps = [
        None if schedule.timestamps is None else schedule.timestamps[p]
        for p in positions
    ]
    return [schedule.order[p] for p in positions], stamps, opens


HOPS = [(4, (8,)), (4, (8, 4)), (8, (3,))]


class TestPlanEquivalence:
    @pytest.mark.parametrize("process", ["poisson", "bursty"])
    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_single_epoch_lanes_match_per_element_filter(self, process, shards):
        session = start_sharded_session(
            n=60, k=3, seed=4, process=process, shards=shards,
        )
        fn = session.base
        manifest = _rt(session.checkpoint())
        schedule = _parent_of(manifest, fn).materialize()
        want = _filtered_lanes(schedule, shards)
        for index, run in enumerate(session.run.runs):
            lane = run.source
            assert lane.order == want[index][0]
            assert _drain(lane) == want[index]
            assert lane.fingerprint() == _fingerprint(
                schedule, want[index], lane.params)

    @pytest.mark.parametrize("process", ["poisson", "bursty"])
    @pytest.mark.parametrize("start,hops", HOPS)
    def test_multi_epoch_lanes_match_per_lane_lane_streams(
        self, process, start, hops
    ):
        n = 80
        session = start_sharded_session(
            n=n, k=3, seed=6, process=process, shards=start,
        )
        fn = session.base
        session.advance(n // 4)
        manifest = _rt(session.checkpoint())
        for hop in hops:
            manifest = _rt(reshard_session(manifest, hop))
            stepped = resume_any_session(manifest).advance(n // 8)
            manifest = _rt(stepped.checkpoint())
        partition = partition_from_manifest(manifest)
        assert partition.epoch == len(hops)
        schedule = _parent_of(manifest, fn).materialize()
        resumed = resume_any_session(_rt(manifest))
        assert len(resumed.run.runs) == len(manifest["shards"])
        for index, (run, entry) in enumerate(
            zip(resumed.run.runs, manifest["shards"])
        ):
            # The reference routes the whole parent again for this lane
            # alone; the runtime lanes share one plan.
            pinned, suffix = partition.lane_streams(schedule.order)[index]
            order, stamps, opens = _planned_lane(schedule, pinned, suffix)
            lane = run.source
            assert lane.order == order
            cursor = entry["cursor"]
            assert lane.cursor == cursor
            # A lane resumed mid-batch finishes that batch first.
            sizes = []
            for k in range(cursor, len(order)):
                if opens[k] or k == cursor:
                    sizes.append(0)
                sizes[-1] += 1
            assert _drain(lane) == (order[cursor:], sizes, stamps[cursor:])
            fp = ArrivalFingerprint.from_state(
                {}, entry["source"]["state"]["fingerprint"],
            )
            for k in range(cursor, len(order)):
                fp.update(order[k], opens[k], stamps[k])
            assert lane.fingerprint() == fp.digest


class TestStrictPartitionParsing:
    @pytest.mark.parametrize("epochs,field", [
        ([{"num_shards": "x"}], "partition.epochs[0].num_shards"),
        ([{"num_shards": True}], "partition.epochs[0].num_shards"),
        ([{"num_shards": 2.0}], "partition.epochs[0].num_shards"),
        ([{"num_shards": 2, "salt": "7"}], "partition.epochs[0].salt"),
        ([{"num_shards": 2, "salt": False}], "partition.epochs[0].salt"),
        ([{"num_shards": 2}, {"num_shards": 3, "consumed": ["a", 0]}],
         "partition.epochs[1].consumed[0]"),
        ([{"num_shards": 2}, {"num_shards": 3, "consumed": [1, True]}],
         "partition.epochs[1].consumed[1]"),
        ([{"num_shards": 2}, {"salt": 0, "consumed": [1, 0]}],
         "partition.epochs[1].num_shards"),
        ([{"num_shards": 2}, "epoch"], "partition.epochs[1]"),
    ])
    def test_bad_fields_are_named(self, epochs, field):
        with pytest.raises(InvalidInstanceError) as err:
            PartitionMap.from_payload({"epochs": epochs})
        assert field in str(err.value)

    def test_epochs_must_be_a_list(self):
        with pytest.raises(InvalidInstanceError, match="partition.epochs"):
            PartitionMap.from_payload({"epochs": "2"})

    def test_v2_manifest_fields_are_strict(self):
        with pytest.raises(InvalidInstanceError, match="num_shards"):
            partition_from_manifest({"num_shards": True, "salt": 0})
        with pytest.raises(InvalidInstanceError, match="salt"):
            partition_from_manifest({"num_shards": 2, "salt": "0"})

    def test_valid_maps_parse_unchanged(self):
        pm = PartitionMap.base(2, salt=3).reshard(4, [5, 1])
        assert PartitionMap.from_payload(_rt(pm.payload())).payload() \
            == pm.payload()


class TestStrictPartitionCLI:
    @pytest.fixture
    def resharded(self, tmp_path, capsys):
        ck = str(tmp_path / "m.json")
        assert main([
            "online", "run", "--policy", "monotone", "--process", "bursty",
            "--n", "30", "--k", "4", "--seed", "5", "--shards", "2",
            "--max-arrivals", "12", "--checkpoint", ck,
        ]) == 0
        assert main(["online", "reshard", ck, "--shards", "3"]) == 0
        capsys.readouterr()
        with open(ck, encoding="utf-8") as fh:
            return ck, json.load(fh)

    @pytest.mark.parametrize("command", ["resume", "reshard", "inspect"])
    @pytest.mark.parametrize("mutate,field", [
        (lambda ep: ep.__setitem__("num_shards", "x"),
         "partition.epochs[1].num_shards"),
        (lambda ep: ep.__setitem__("num_shards", True),
         "partition.epochs[1].num_shards"),
        (lambda ep: ep.__setitem__("consumed", ["a", 0]),
         "partition.epochs[1].consumed[0]"),
        (lambda ep: ep.__setitem__("salt", "x"),
         "partition.epochs[1].salt"),
    ])
    def test_malformed_map_exits_2_naming_the_field(
        self, resharded, capsys, tmp_path, command, mutate, field
    ):
        path, manifest = resharded
        mutate(manifest["partition"]["epochs"][1])
        bad = str(tmp_path / "bad.json")
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        argv = ["online", command, bad]
        if command == "reshard":
            argv += ["--shards", "4", "--output", str(tmp_path / "out.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and field in err
