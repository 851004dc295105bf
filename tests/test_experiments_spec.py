"""Tests for declarative experiment specs and their content hashes."""

import json
import pickle

import pytest

from repro.errors import ReproError
from repro.experiments.spec import (
    ExperimentSpec,
    SweepSpec,
    family_params_from_size,
    family_workload,
)
from repro.sim.rng import spawn


def _spec(**overrides):
    base = dict(
        family="regular",
        family_params={"n": 100, "degree": 4},
        walk="eprocess",
        trials=5,
        root_seed=11,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecHash:
    def test_stable_across_sessions(self):
        # Pinned literal: the hash is a storage key, so any change to the
        # canonicalization silently orphans every existing store.  If this
        # fails, you changed the identity payload — bump STORE_SCHEMA_VERSION
        # and migrate, don't update the literal casually.
        assert _spec().spec_hash == "d53ac67e927654e4"

    def test_param_order_is_canonical(self):
        a = ExperimentSpec("regular", {"n": 60, "degree": 3}, "srw", root_seed=1)
        b = ExperimentSpec("regular", {"degree": 3, "n": 60}, "srw", root_seed=1)
        assert a.spec_hash == b.spec_hash
        assert a == b

    def test_identity_fields_change_hash(self):
        base = _spec()
        assert _spec(root_seed=12).spec_hash != base.spec_hash
        assert _spec(walk="srw").spec_hash != base.spec_hash
        assert _spec(target="edges").spec_hash != base.spec_hash
        assert _spec(family_params={"n": 102, "degree": 4}).spec_hash != base.spec_hash
        assert _spec(start=0).spec_hash != base.spec_hash
        assert _spec(max_steps=10**6).spec_hash != base.spec_hash

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (_spec(family="cycle", family_params={"n": 30}, walk="srw", root_seed=20120716),
             "9c2accb13f96a8c6"),
            (ExperimentSpec("regular", {"n": 2000, "degree": 4}, "eprocess"),
             "0f499d6c69bb425d"),
            (ExperimentSpec("implicit_hypercube", {"r": 5}, "srw", target="edges",
                            root_seed=201),
             "d8161b42d58ba443"),
            (ExperimentSpec("torus", {"rows": 4, "cols": 5}, "vprocess", start=3,
                            max_steps=10000, root_seed=7),
             "7f1b5b65325998a0"),
            (ExperimentSpec("lps", {"p": 5, "q": 13}, "rotor", root_seed=1, trials=9),
             "5445a8dbf7814ac0"),
        ],
    )
    def test_existing_store_buckets_stay_addressable(self, spec, expected):
        # Pinned literals: a bucket an existing store holds must keep its
        # address whatever non-identity fields the spec gains or loses.
        assert spec.spec_hash == expected
        assert spec.seed_label == f"exp:{expected}"

    def test_trials_do_not_change_hash(self):
        # A top-up must land in the same store bucket.
        base = _spec()
        assert base.with_trials(20).spec_hash == base.spec_hash

    def test_seed_label_derives_from_hash(self):
        spec = _spec()
        assert spec.spec_hash in spec.seed_label
        assert spec.with_trials(50).seed_label == spec.seed_label

    def test_canonical_json_is_valid_and_sorted(self):
        payload = json.loads(_spec().canonical_json())
        assert payload["family"] == "regular"
        assert payload["trials"] == 5
        assert "engine" not in payload


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ReproError, match="unknown graph family"):
            ExperimentSpec("moebius", {"n": 10}, "srw")

    def test_wrong_params(self):
        with pytest.raises(ReproError, match="takes params"):
            ExperimentSpec("regular", {"n": 10}, "srw")
        with pytest.raises(ReproError, match="takes params"):
            ExperimentSpec("cycle", {"n": 10, "degree": 3}, "srw")

    def test_unknown_walk(self):
        with pytest.raises(ReproError, match="unknown walk"):
            ExperimentSpec("cycle", {"n": 10}, "levy-flight")

    def test_bad_target_trials_start(self):
        with pytest.raises(ReproError, match="target"):
            ExperimentSpec("cycle", {"n": 10}, "srw", target="faces")
        with pytest.raises(ReproError, match="one trial"):
            ExperimentSpec("cycle", {"n": 10}, "srw", trials=0)
        with pytest.raises(ReproError, match="start"):
            ExperimentSpec("cycle", {"n": 10}, "srw", start="everywhere")

    def test_numeric_string_start_normalized(self):
        spec = ExperimentSpec("cycle", {"n": 10}, "srw", start="3")
        assert spec.start == 3

    def test_non_scalar_param_rejected(self):
        with pytest.raises(ReproError, match="JSON scalar"):
            ExperimentSpec("cycle", {"n": [10]}, "srw")


class TestWorkload:
    def test_builds_the_family_member(self):
        spec = ExperimentSpec("cycle", {"n": 12}, "srw")
        graph = spec.workload()(spawn(1, "x"))
        assert graph.n == 12 and graph.m == 12

    def test_regular_workload_uses_rng(self):
        spec = _spec()
        g1 = spec.workload()(spawn(1, "a"))
        g2 = spec.workload()(spawn(1, "b"))
        assert g1.n == g2.n == 100
        assert g1 != g2  # different noise, different sample

    def test_workload_pickles(self):
        workload = _spec().workload()
        clone = pickle.loads(pickle.dumps(workload))
        assert clone.family == "regular"
        assert clone.params == {"n": 100, "degree": 4}

    def test_unknown_family_workload(self):
        with pytest.raises(ReproError):
            family_workload("moebius", {"n": 3})


class TestSweepSpec:
    def test_regular_grid_shape_and_parity(self):
        # 99 parity-adjusts to 100 for d=3 and collides with the listed
        # 100, collapsing to one point; d=4 keeps both sizes.
        sweep = SweepSpec.regular_grid(
            "g", sizes=[99, 100], degrees=[3, 4], walk="srw", trials=2, root_seed=1
        )
        assert len(sweep.specs) == 3
        assert sweep.total_trials == 6
        for spec in sweep.specs:
            n, d = spec.params["n"], spec.params["degree"]
            assert (n * d) % 2 == 0

    def test_duplicate_points_rejected(self):
        spec = _spec()
        with pytest.raises(ReproError, match="twice"):
            SweepSpec("dup", (spec, spec.with_trials(9)))

    def test_empty_rejected(self):
        with pytest.raises(ReproError, match="no experiment points"):
            SweepSpec("empty", ())

    def test_figure1_is_eprocess_vertices(self):
        sweep = SweepSpec.figure1(sizes=[100], degrees=[3], trials=2, root_seed=5)
        (spec,) = sweep.specs
        assert spec.walk == "eprocess"
        assert spec.target == "vertices"
        assert spec.params == {"n": 100, "degree": 3}


class TestFamilyParamsFromSize:
    def test_derivations(self):
        assert family_params_from_size("cycle", 30) == {"n": 30}
        assert family_params_from_size("regular", 99, degree=3) == {"n": 100, "degree": 3}
        assert family_params_from_size("torus", 100) == {"rows": 10, "cols": 10}
        assert family_params_from_size("hypercube", 1000) == {"r": 10}

    def test_lps_has_no_size(self):
        with pytest.raises(ReproError, match="size-derived"):
            family_params_from_size("lps", 1000)
