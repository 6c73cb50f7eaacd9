"""``WorkloadRecipe``: one declaration, strict parsing at every boundary.

Covers the recipe type itself, the strict checkpoint/manifest
``instance`` parse (every field required and typed, the recipe matching
the recorded stream), the decision-log bounds check on resume, and the
CLI contract for each tampered input: exit 2 with an error naming the
field, never a traceback or a silent coercion.  A hypothesis fuzz pins
the property behind all of it: a serve-spec tenant or an ``instance``
block either parses into a valid recipe or raises
:class:`~repro.errors.InvalidInstanceError`.
"""

import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import InvalidInstanceError
from repro.online.serving import TenantSpec, load_tenant_specs
from repro.online.session import (
    RECIPE_FIELDS,
    WorkloadRecipe,
    resume_any_session,
    start_session,
    start_sharded_session,
)


def _roundtrip(payload):
    return json.loads(json.dumps(payload))


def _plain_checkpoint():
    session = start_session("monotone", "additive", 30, 3, seed=1,
                            process="bursty")
    return _roundtrip(session.advance(15).checkpoint())


def _manifest():
    session = start_sharded_session("monotone", "additive", 30, 3, seed=1,
                                    process="bursty", shards=2)
    return _roundtrip(session.advance(15).checkpoint())


class TestRecipeType:
    def test_defaults_are_declared_once(self):
        recipe = WorkloadRecipe()
        assert (recipe.policy, recipe.family, recipe.n, recipe.k) == (
            "monotone", "additive", 60, 4)
        assert RECIPE_FIELDS[:4] == ("policy", "family", "n", "k")
        assert RECIPE_FIELDS[-1] == "shards"

    def test_of_accepts_recipe_mapping_and_fields(self):
        recipe = WorkloadRecipe.of("robust", "coverage", 20, 2, seed=5)
        assert WorkloadRecipe.of(recipe) is recipe
        block = recipe.instance(7, sharded=False)
        assert WorkloadRecipe.of(block) == recipe
        assert WorkloadRecipe.of(policy="robust", family="coverage", n=20,
                                 k=2, seed=5) == recipe

    def test_of_rejects_duplicate_and_surplus_positionals(self):
        with pytest.raises(TypeError):
            WorkloadRecipe.of("monotone", policy="robust")
        with pytest.raises(TypeError):
            WorkloadRecipe.of("monotone", "additive", 10, 2, 0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            WorkloadRecipe().n = 5  # type: ignore[misc]

    @pytest.mark.parametrize("field,value", [
        ("n", "10"), ("n", 10.0), ("n", True), ("seed", None),
        ("k", "3"), ("policy", 1), ("process_params", [1]),
        ("shards", 0), ("family", "nope"), ("policy", "nope"),
    ])
    def test_python_boundary_is_strict(self, field, value):
        with pytest.raises(InvalidInstanceError, match=field):
            WorkloadRecipe.of(**{field: value})

    def test_instance_key_sets(self):
        recipe = WorkloadRecipe()
        plain = recipe.instance(3, sharded=False)
        sharded = recipe.instance(3, sharded=True)
        assert "shards" not in plain
        assert set(sharded) - set(plain) == {"shards"}
        assert list(plain)[:2] == ["kind", "recipe_version"]
        assert list(plain)[-1] == "oracle_calls_consumed"

    def test_checkpoint_round_trip(self):
        for ck in (_plain_checkpoint(), _manifest()):
            recipe, prior = WorkloadRecipe.from_checkpoint(ck)
            assert recipe.instance(prior, sharded=recipe.shards > 1) == (
                ck["instance"])

    def test_tenant_spec_is_an_id_plus_a_recipe(self):
        spec = TenantSpec("t", policy="robust", n=12, seed=3)
        assert spec.recipe == WorkloadRecipe.of(policy="robust", n=12, seed=3)
        assert (spec.tenant_id, spec.n, spec.seed) == ("t", 12, 3)
        with pytest.raises(AttributeError):
            spec.seed = 4  # a silent shadow of the recipe field


#: (description, mutation, field the error must name).  Each mutation
#: is one reproduced defect: a traceback, a misleading error, or a
#: silent coercion before the recipe was parsed strictly.
TAMPERS = [
    ("n string", lambda i: i.update(n="x"), "instance.n"),
    ("seed null", lambda i: i.update(seed=None), "instance.seed"),
    ("calls string", lambda i: i.update(oracle_calls_consumed="x"),
     "instance.oracle_calls_consumed"),
    ("missing n", lambda i: i.pop("n"), "instance.n"),
    ("missing seed", lambda i: i.pop("seed"), "instance.seed"),
    ("missing family", lambda i: i.pop("family"), "instance.family"),
    ("missing process", lambda i: i.pop("process"), "instance.process"),
    ("n bool", lambda i: i.update(n=True), "instance.n"),
    ("n float", lambda i: i.update(n=40.0), "instance.n"),
    ("k string", lambda i: i.update(k="3"), "instance.k"),
    ("n_knapsacks string", lambda i: i.update(n_knapsacks="2"),
     "instance.n_knapsacks"),
    ("process_params list", lambda i: i.update(process_params=[1]),
     "instance.process_params"),
    ("calls bool", lambda i: i.update(oracle_calls_consumed=True),
     "instance.oracle_calls_consumed"),
    ("unknown key", lambda i: i.update(bogus=1), "instance.bogus"),
    ("seed changed", lambda i: i.update(seed=2), "instance.seed"),
    ("process changed", lambda i: i.update(process="uniform"),
     "instance.process"),
]


def _tampered(make, mutate):
    ck = make()
    mutate(ck["instance"])
    return ck


@pytest.mark.parametrize("make", [_plain_checkpoint, _manifest],
                         ids=["plain", "manifest"])
@pytest.mark.parametrize("label,mutate,field", TAMPERS,
                         ids=[t[0] for t in TAMPERS])
class TestTamperedInstance:
    def test_resume_rejects_naming_the_field(self, make, label, mutate, field):
        with pytest.raises(InvalidInstanceError, match=field):
            resume_any_session(_tampered(make, mutate))

    def test_cli_resume_and_reshard_exit_2(self, make, label, mutate, field,
                                          tmp_path, capsys):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(_tampered(make, mutate)))
        for argv in (["online", "resume", str(path)],
                     ["online", "reshard", str(path), "--shards", "3"]):
            assert main(argv) == 2, argv
            assert field in capsys.readouterr().err, argv


class TestInstanceRules:
    def test_shards_key_only_in_manifests(self):
        ck = _plain_checkpoint()
        ck["instance"]["shards"] = 1
        with pytest.raises(InvalidInstanceError, match="instance.shards"):
            resume_any_session(ck)
        manifest = _manifest()
        del manifest["instance"]["shards"]
        with pytest.raises(InvalidInstanceError, match="instance.shards"):
            resume_any_session(manifest)

    def test_missing_recipe_version_means_version_one(self):
        ck = _plain_checkpoint()
        del ck["instance"]["recipe_version"]
        assert resume_any_session(ck).advance().finished

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_non_int_versions_rejected(self, version):
        ck = _plain_checkpoint()
        ck["instance"]["recipe_version"] = version
        with pytest.raises(InvalidInstanceError,
                           match="recipe schema version"):
            resume_any_session(ck)
        ck = _plain_checkpoint()
        ck["schema_version"] = version
        with pytest.raises(InvalidInstanceError,
                           match="checkpoint schema version"):
            resume_any_session(ck)

    def test_negative_calls_rejected(self):
        ck = _plain_checkpoint()
        ck["instance"]["oracle_calls_consumed"] = -1
        with pytest.raises(InvalidInstanceError,
                           match="instance.oracle_calls_consumed"):
            resume_any_session(ck)

    def test_lane_stream_seed_checked(self):
        manifest = _manifest()
        manifest["shards"][1]["source"]["seed"] += 1
        with pytest.raises(InvalidInstanceError, match="instance.seed"):
            resume_any_session(manifest)


class TestDecisionLog:
    def _ck(self):
        ck = _plain_checkpoint()
        assert ck["decisions"], "fixture must have hired mid-stream"
        return ck

    @pytest.mark.parametrize("decisions", [
        [[5, "zzz"]],                      # element outside the ground set
        [[15, "s1"]],                      # position == cursor
        [[-1, "s1"]],                      # negative position
        [[True, "s1"]],                    # bool position
        [[3, "s1"], [3, "s2"]],            # not strictly ascending
        [[4, "s1"], [2, "s2"]],            # descending
        [[3]],                             # not a pair
        [[3, ["s1"]]],                     # unhashable element
    ])
    def test_out_of_stream_decisions_rejected(self, decisions):
        ck = self._ck()
        ck["decisions"] = decisions
        bad = len(decisions) - 1 if len(decisions) > 1 else 0
        with pytest.raises(InvalidInstanceError, match=rf"decisions\[{bad}\]"):
            resume_any_session(ck)

    def test_decisions_must_be_a_list(self):
        ck = self._ck()
        ck["decisions"] = {"0": "s1"}
        with pytest.raises(InvalidInstanceError, match="decisions"):
            resume_any_session(ck)

    def test_manifest_lane_decisions_checked(self):
        manifest = _manifest()
        lane = next(s for s in manifest["shards"] if s["decisions"])
        lane["decisions"][0][1] = "zzz"
        with pytest.raises(InvalidInstanceError, match=r"decisions\[0\]"):
            resume_any_session(manifest)

    def test_cli_resume_exit_2(self, tmp_path, capsys):
        ck = self._ck()
        ck["decisions"] = [[5, "zzz"]]
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(ck))
        assert main(["online", "resume", str(path)]) == 2
        assert "decisions[0]" in capsys.readouterr().err


# -- fuzz ----------------------------------------------------------------------

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10 ** 6)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_valid = {
    "policy": st.sampled_from(["monotone", "robust", "knapsack"]),
    "family": st.sampled_from(["additive", "coverage"]),
    "n": st.integers(1, 10 ** 6), "k": st.integers(1, 9),
    "aux": st.integers(0, 50), "n_knapsacks": st.integers(1, 4),
    "distribution": st.sampled_from(["uniform", "lognormal"]),
    "seed": st.integers(0, 2 ** 40), "process": st.sampled_from(
        ["uniform", "bursty"]),
    "process_params": st.dictionaries(st.text(max_size=4), _json, max_size=2),
    "shards": st.integers(1, 6),
}
_keys = st.sampled_from(
    RECIPE_FIELDS + ("kind", "recipe_version", "oracle_calls_consumed",
                     "id", "bogus"))


@st.composite
def _fields(draw):
    """A mapping of mostly-valid recipe values with a few wrong ones."""
    out = {name: draw(strategy) for name, strategy in _valid.items()
           if draw(st.booleans())}
    for key in draw(st.lists(_keys, max_size=3)):
        out[key] = draw(_json)
    return out


@settings(max_examples=300, deadline=None)
@given(tenant=_fields(), defaults=_fields())
def test_fuzz_serve_spec_tenant(tenant, defaults):
    tenant.setdefault("id", "t")
    try:
        specs = load_tenant_specs({"defaults": defaults, "tenants": [tenant]})
    except InvalidInstanceError:
        return
    recipe = specs[0].recipe
    assert WorkloadRecipe.of(recipe.instance(0, sharded=True)) == recipe


_BASES = {"plain": _plain_checkpoint(), "manifest": _manifest()}


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(sorted(_BASES)), block=_fields(),
       keep=st.booleans())
def test_fuzz_instance_block(base, block, keep):
    ck = copy.deepcopy(_BASES[base])
    if keep:  # perturb the real block instead of replacing it
        ck["instance"].update(block)
    else:
        ck["instance"] = {"kind": "secretary-workload", **block}
    try:
        recipe, prior = WorkloadRecipe.from_checkpoint(ck)
    except InvalidInstanceError:
        return
    assert isinstance(prior, int) and prior >= 0
    assert recipe.instance(prior, sharded=base == "manifest")["n"] == recipe.n
