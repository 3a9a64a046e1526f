"""Campaign planner tests: ordering, unit identity, fingerprint sensitivity."""

import dataclasses

import pytest

from repro.cli import build_parser, plan_study
from repro.core.random_set import UniformRandomSetPolicy
from repro.core.weighted import UtilizationWeightedPolicy
from repro.runner.plan import (
    CampaignPlan,
    WorkUnit,
    plan_section2,
    plan_section4_policy,
    plan_section4_sweep,
    policy_is_stateless,
    section2_relay_rotation,
)
from repro.workloads.experiment import (
    SECTION4_SESSION_CONFIG,
    Section2Study,
    Section4Study,
)
from repro.workloads.studies import STUDY_SESSION_CONFIG, get_study

CLIENTS = ["Italy", "Sweden", "Taiwan"]


@pytest.fixture(scope="module")
def s2_plan(section2_scenario):
    return plan_section2(
        section2_scenario,
        repetitions=3,
        interval=360.0,
        config=STUDY_SESSION_CONFIG,
        sites=["eBay"],
        clients=CLIENTS,
    )


class TestSection2Plan:
    def test_serial_order(self, section2_scenario, s2_plan):
        """Units enumerate clients outer, sites inner, reps innermost."""
        expected = []
        for client in CLIENTS:
            rotation = section2_relay_rotation(section2_scenario, client)
            for j in range(3):
                expected.append((client, "eBay", j, j * 360.0, (rotation[j % len(rotation)],)))
        actual = [
            (u.client, u.site, u.repetition, u.start_time, u.offered)
            for u in s2_plan.units
        ]
        assert actual == expected
        assert [u.index for u in s2_plan.units] == list(range(len(s2_plan)))
        assert [u.sort_key for u in s2_plan.units] == sorted(u.sort_key for u in s2_plan.units)

    def test_study_plan_equals_planner(self, section2_scenario, s2_plan):
        study = Section2Study(section2_scenario, repetitions=3, interval=360.0)
        assert study.plan(sites=["eBay"], clients=CLIENTS) == s2_plan

    def test_defaults_cover_all_clients_and_sites(self, section2_scenario):
        plan = plan_section2(
            section2_scenario,
            repetitions=1,
            interval=360.0,
            config=STUDY_SESSION_CONFIG,
        )
        clients = {u.client for u in plan.units}
        sites = {u.site for u in plan.units}
        assert clients == set(section2_scenario.client_names)
        assert sites == set(section2_scenario.site_names)


class TestUnitIdentity:
    def test_unit_id_ignores_index(self, s2_plan):
        unit = s2_plan.units[0]
        moved = dataclasses.replace(unit, index=99)
        assert moved.unit_id == unit.unit_id

    def test_unit_id_depends_on_content(self, s2_plan):
        unit = s2_plan.units[0]
        assert dataclasses.replace(unit, repetition=77).unit_id != unit.unit_id
        assert dataclasses.replace(unit, offered=("Princeton",)).unit_id != unit.unit_id
        assert dataclasses.replace(unit, set_size_label=5).unit_id != unit.unit_id

    def test_unit_ids_unique_within_plan(self, s2_plan):
        ids = [u.unit_id for u in s2_plan.units]
        assert len(set(ids)) == len(ids)

    def test_plan_rejects_misnumbered_units(self, s2_plan):
        units = list(s2_plan.units)
        units[1] = dataclasses.replace(units[1], index=5)
        with pytest.raises(ValueError, match="serial execution order"):
            CampaignPlan(
                study=s2_plan.study,
                scenario_spec=s2_plan.scenario_spec,
                seed=s2_plan.seed,
                config=s2_plan.config,
                units=tuple(units),
            )


class TestFingerprint:
    def test_stable_across_replans(self, section2_scenario, s2_plan):
        again = plan_section2(
            section2_scenario,
            repetitions=3,
            interval=360.0,
            config=STUDY_SESSION_CONFIG,
            sites=["eBay"],
            clients=CLIENTS,
        )
        assert again.fingerprint() == s2_plan.fingerprint()

    def test_sensitive_to_seed(self, s2_plan):
        drifted = dataclasses.replace(s2_plan, seed=s2_plan.seed + 1)
        assert drifted.fingerprint() != s2_plan.fingerprint()

    def test_sensitive_to_unit_stream(self, section2_scenario, s2_plan):
        fewer = plan_section2(
            section2_scenario,
            repetitions=2,
            interval=360.0,
            config=STUDY_SESSION_CONFIG,
            sites=["eBay"],
            clients=CLIENTS,
        )
        assert fewer.fingerprint() != s2_plan.fingerprint()

    def test_sensitive_to_config(self, s2_plan):
        drifted = dataclasses.replace(s2_plan, config=SECTION4_SESSION_CONFIG)
        assert drifted.fingerprint() != s2_plan.fingerprint()


class TestSection4Plans:
    def test_stateless_detection(self):
        assert policy_is_stateless(UniformRandomSetPolicy(4))
        assert not policy_is_stateless(UtilizationWeightedPolicy(4))

    def test_stateful_policy_refused(self, section4_scenario):
        with pytest.raises(ValueError, match="adapts to feedback"):
            plan_section4_policy(
                section4_scenario,
                UtilizationWeightedPolicy(4),
                repetitions=2,
                interval=30.0,
                config=SECTION4_SESSION_CONFIG,
            )

    def test_policy_plan_replays_serial_draws(self, section4_scenario):
        """Planned candidate sets equal the serial per-client stream draws."""
        policy = UniformRandomSetPolicy(3)
        plan = plan_section4_policy(
            section4_scenario,
            policy,
            repetitions=4,
            interval=30.0,
            config=SECTION4_SESSION_CONFIG,
        )
        expected = []
        full_set = section4_scenario.relay_names
        for client in section4_scenario.client_names:
            rng = section4_scenario.bank.generator("policy", "section4", policy.name, client)
            for j in range(4):
                offered = policy.candidates(client, "eBay", full_set, rng, now=j * 30.0)
                expected.append((client, j, tuple(offered)))
        actual = [(u.client, u.repetition, u.offered) for u in plan.units]
        assert actual == expected

    def test_sweep_concatenates_per_k_plans(self, section4_scenario):
        plan = plan_section4_sweep(
            section4_scenario,
            [1, 3],
            repetitions=2,
            interval=30.0,
            config=SECTION4_SESSION_CONFIG,
        )
        n_clients = len(section4_scenario.client_names)
        assert len(plan) == 2 * 2 * n_clients
        assert [u.index for u in plan.units] == list(range(len(plan)))
        sizes = [len(u.offered) for u in plan.units]
        assert sizes == [1] * (2 * n_clients) + [3] * (2 * n_clients)
        assert all(u.set_size_label is None for u in plan.units)

    def test_study_sweep_plan_equals_planner(self, section4_scenario):
        study = Section4Study(section4_scenario, repetitions=2)
        assert study.plan_random_set_sweep([1, 3]) == plan_section4_sweep(
            section4_scenario,
            [1, 3],
            repetitions=2,
            interval=30.0,
            config=SECTION4_SESSION_CONFIG,
        )


class TestWorkUnitShape:
    def test_units_are_frozen_and_picklable(self, s2_plan):
        import pickle

        unit = s2_plan.units[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            unit.index = 3  # type: ignore[misc]
        assert pickle.loads(pickle.dumps(unit)) == unit

    def test_plan_is_picklable(self, s2_plan):
        import pickle

        clone = pickle.loads(pickle.dumps(s2_plan))
        assert clone == s2_plan
        assert clone.fingerprint() == s2_plan.fingerprint()

    def test_work_unit_defaults(self):
        unit = WorkUnit(
            index=0,
            study="s",
            client="c",
            site="x",
            repetition=0,
            start_time=0.0,
            offered=("R1",),
        )
        assert unit.set_size_label is None
        assert unit.sort_key == 0


#: Fingerprints of each study's ``--quick`` plan and of the section2/section4
#: (and small scale) plans the CI runs, as the CLI plans them.  Checkpoints of
#: these campaigns must stay resumable, so none of these may ever change.
PINNED_PLANS = [
    (
        ["section2", "--reps", "4", "--clients", "Italy,Sweden,Taiwan"],
        "a0f1b718ea8b2f36e332102a8061f2e93e20e64377ff323507725de21f9f7abf",
    ),
    (
        ["section4", "--reps", "4", "--set-sizes", "1,4,10"],
        "3cca60d1a9b9d2a447d6ce5382bd5560ec7c949dfcb4a14f73026cf47090770a",
    ),
    (
        ["failures", "--quick"],
        "a37f78558fa559feedda097ac6eb125c98d93cfd45abd02a60f2d086dd8a2677",
    ),
    (
        ["mhttp", "--quick"],
        "4422be6caf447a303e421ea97e21243663d5ff42f6f7f128f14d16a0512ab01a",
    ),
    (
        ["chaos", "--quick"],
        "57422e544f30372457fd17872feda8ff3a35a8622deffe3eb0fa27ebb54841c5",
    ),
    (
        ["scale", "--quick"],
        "8a04ad61372d198844dc668963e857eb94b46d3ce5dcef9a92892daf13835b7a",
    ),
    (
        ["scale", "--clients", "300", "--waves", "2"],
        "66ac2f6b082a1f9f800415fb6e8661385d780bcaf6189c6a6c55eed525b19315",
    ),
]


@pytest.mark.parametrize(
    "argv,fingerprint", PINNED_PLANS, ids=[" ".join(a) for a, _ in PINNED_PLANS]
)
def test_cli_plan_fingerprint_is_pinned(argv, fingerprint):
    args = build_parser(argv[0]).parse_args([*argv, "--out", "unused.jsonl"])
    _scenario, plan = plan_study(get_study(argv[0]), args)
    assert plan.fingerprint() == fingerprint
