"""Tampered ``policy.state``: a clean error naming the key, never a traceback.

Every built-in policy checks the state it reloads against its declared
:attr:`~repro.online.policies.OnlinePolicy.STATE_SCHEMA`: a missing,
unknown or mistyped key raises
:class:`~repro.errors.InvalidInstanceError` naming
``policy.state.<key>``.  At the boundaries that gives exit 2 from
``online resume`` and ``online reshard`` (whose carried lanes are
checked without building a policy) and a one-tenant quarantine under
``serve --resume``.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.oracle import CountingOracle
from repro.errors import InvalidInstanceError
from repro.matroids.uniform import UniformMatroid
from repro.online.arrivals import build_arrival_schedule
from repro.online.checkpoint import make_checkpoint, resume_run, tenant_checkpoint_path
from repro.online.driver import OnlineRun
from repro.online.policies import MatroidSecretaryPolicy, check_saved_policy, check_state
from repro.online.serving import ServingLoop, load_tenant_specs
from repro.online.session import resume_any_session, start_session, start_sharded_session
from repro.workloads.secretary_streams import coverage_utility

#: (session policy, seed) -> the policy class whose state the checkpoint holds.
CASES = {
    ("monotone", 1): "segmented",
    ("classical", 1): "best_singleton",
    ("robust", 1): "robust_topk",
    ("bottleneck", 1): "bottleneck",
    ("knapsack", 1): "knapsack",  # heads: the singleton rule's state
    ("knapsack", 3): "knapsack",  # tails
    ("subadditive", 3): "subadditive_segment",
}
#: Wrong for every kind of state field (scalar, list, choice, object).
BAD = [[]]


def _roundtrip(payload):
    return json.loads(json.dumps(payload))


def _checkpoint(policy, seed):
    session = start_session(policy, "additive", 30, 3, seed=seed, process="bursty")
    return _roundtrip(session.advance(15).checkpoint())


def _tampers(state):
    """(label, mutate, field) for every key of *state*, one level deep."""
    out = [("empty", lambda s: s.clear(), "policy.state."),
           ("unknown key", lambda s: s.update(bogus=1), "policy.state.bogus")]
    for key in sorted(state):
        out.append((f"drop {key}", lambda s, k=key: s.pop(k), f"policy.state.{key}"))
        out.append((f"retype {key}", lambda s, k=key: s.update({k: BAD}),
                    f"policy.state.{key}"))
    return out


@pytest.mark.parametrize("policy,seed", sorted(CASES), ids=lambda v: str(v))
def test_every_tampered_key_is_named(policy, seed):
    ck = _checkpoint(policy, seed)
    assert ck["policy"]["name"] == CASES[(policy, seed)]
    assert resume_any_session(_roundtrip(ck)).advance().finished
    for label, mutate, field in _tampers(ck["policy"]["state"]):
        bad = _roundtrip(ck)
        mutate(bad["policy"]["state"])
        with pytest.raises(InvalidInstanceError, match=field.replace(".", r"\.")):
            resume_any_session(bad)


def test_nested_fields_are_named():
    ck = _checkpoint("monotone", 1)
    assert ck["policy"]["state"]["traces"], "fixture must have closed a segment"
    ck["policy"]["state"]["traces"][0]["gain"] = "x"
    with pytest.raises(InvalidInstanceError, match=r"policy\.state\.traces\[0\]\.gain"):
        resume_any_session(ck)
    heads = _checkpoint("knapsack", 1)
    heads["policy"]["state"]["singleton"]["done"] = 0
    with pytest.raises(InvalidInstanceError, match=r"policy\.state\.singleton\.done"):
        resume_any_session(heads)
    tails = _checkpoint("knapsack", 3)
    tails["policy"]["state"]["phase"] = "hire"
    with pytest.raises(InvalidInstanceError, match=r"policy\.state\.phase must be one of"):
        resume_any_session(tails)


@pytest.mark.parametrize("mutate,field", [
    (lambda ck: ck.update(policy=5), "policy must be an object"),
    (lambda ck: ck["policy"].pop("state"), "policy.state is missing"),
    (lambda ck: ck["policy"].pop("config"), "policy.config is missing"),
    (lambda ck: ck["policy"].pop("name"), "policy.name is missing"),
    (lambda ck: ck["policy"].update(config=[]), "policy.config must be an object"),
    (lambda ck: ck["policy"].update(state="x"), "policy.state must be an object"),
])
def test_policy_block_shape(mutate, field):
    ck = _checkpoint("monotone", 1)
    mutate(ck)
    with pytest.raises(InvalidInstanceError, match=field.replace(".", r"\.")):
        resume_any_session(ck)


def test_saved_policy_state_checked_without_building_the_policy():
    check_saved_policy({"name": "custom", "config": {}, "state": "anything"})
    with pytest.raises(InvalidInstanceError, match=r"policy\.state\.singleton is missing"):
        check_saved_policy({"name": "knapsack", "config": {"heads": True}, "state": {}})
    with pytest.raises(InvalidInstanceError, match=r"policy\.state\.phase is missing"):
        check_saved_policy({"name": "knapsack", "config": {"heads": False}, "state": {}})


def test_check_state_names_the_first_bad_list_item():
    with pytest.raises(InvalidInstanceError, match=r"policy\.state\.selected\[2\]"):
        check_state({"selected": ["a", 1, True]}, {"selected": ["element"]})
    check_state({"selected": ["a", 1]}, {"selected": ["element"]})
    with pytest.raises(InvalidInstanceError, match=r"policy\.state\.seg must be an integer"):
        check_state({"seg": 1.0}, {"seg": "int"})


def test_matroid_inner_state_is_named():
    fn = coverage_utility(14, 6, rng=np.random.default_rng(1))
    matroids = [UniformMatroid(fn.ground_set, 3)]
    schedule = build_arrival_schedule("uniform", fn, 5)
    for k_guess in (1, 4):  # best-singleton and segmented inner rules
        run = OnlineRun(CountingOracle(fn), schedule,
                        MatroidSecretaryPolicy(matroids, k_guess)).run(7)
        ck = _roundtrip(make_checkpoint(run))
        ck["policy"]["state"]["inner"]["done"] = "no"
        with pytest.raises(InvalidInstanceError, match=r"policy\.state\.inner\.done"):
            resume_run(ck, CountingOracle(fn), deps={"matroids": matroids})
        ck["policy"]["state"]["inner"] = []
        with pytest.raises(InvalidInstanceError, match=r"policy\.state\.inner must be"):
            resume_run(ck, CountingOracle(fn), deps={"matroids": matroids})


class TestBoundaries:
    def test_cli_resume_exit_2(self, tmp_path, capsys):
        ck = _checkpoint("monotone", 1)
        ck["policy"]["state"] = {}
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(ck))
        assert main(["online", "resume", str(path)]) == 2
        assert "policy.state.selected is missing" in capsys.readouterr().err

    def test_cli_resume_and_reshard_manifest_exit_2(self, tmp_path, capsys):
        session = start_sharded_session("robust", "additive", 30, 3, seed=1,
                                        process="bursty", shards=2)
        manifest = _roundtrip(session.advance(15).checkpoint())
        manifest["shards"][1]["policy"]["state"]["seg"] = "x"
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        assert main(["online", "resume", str(path)]) == 2
        assert "policy.state.seg must be an integer" in capsys.readouterr().err
        for shards in ("2", "3"):  # identity and grow
            assert main(["online", "reshard", str(path), "--shards", shards]) == 2
            assert "shards[1].policy.state.seg" in capsys.readouterr().err

    def test_serve_resume_quarantines_only_that_tenant(self, tmp_path):
        fleet = {
            "defaults": {"family": "additive", "n": 24, "k": 3},
            "tenants": [
                {"id": "a", "policy": "monotone", "seed": 21},
                {"id": "b", "policy": "robust", "seed": 22},
            ],
        }
        root = str(tmp_path / "ck")
        baseline = ServingLoop(load_tenant_specs(fleet), checkpoint_root=root).serve()
        path = tenant_checkpoint_path(root, "b")
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["policy"]["state"]["per_segment"] = "x"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        report = ServingLoop(load_tenant_specs(fleet), checkpoint_root=root,
                             resume=True).serve()
        victim = report["tenants"]["b"]
        assert victim["state"] == "quarantined"
        assert "policy.state.per_segment" in victim["error"]
        assert report["totals"]["quarantined"] == 1
        for key in ("selected", "value", "oracle_calls", "decisions"):
            assert report["tenants"]["a"][key] == baseline["tenants"]["a"][key]
