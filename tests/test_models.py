import pytest

from conftest import project_by_merging

import polaris.models
from polaris.automata import (
    is_bisimilar,
    marked_language_upto,
    natural_project,
    parallel_compose,
)
from polaris.models import (
    agent_alphabet,
    build_collision_spec,
    build_formation_spec,
    build_models,
    build_plant,
)
from polaris.polar import PolarPartition
from polaris.supervision import (
    check_controllability,
    check_decomposability,
    is_nonblocking,
    modular_supervisor,
    verify_decentralized,
)

P = PolarPartition(40.0, 5, 9)  # 4 rings x 8 sectors
SMALL = PolarPartition(40.0, 3, 3)  # 2 rings x 2 sectors


def test_alphabet_counts():
    al = agent_alphabet(1, P)
    assert len(al.detection_ids) == (P.n_r - 1) * (P.n_theta - 1) == 32
    assert len(al.first_circle) == P.n_theta - 1 == 8
    assert len(al.commands) == 4
    assert set(al.external) == {
        "Ca12F", "Ca12N", "Ca21F", "Ca21N", "Stop1", "Stop2", "R12", "R21",
    }
    controllable = set(al.controllable_ids)
    uncontrollable = set(al.uncontrollable_ids)
    assert controllable & uncontrollable == set()
    assert controllable | uncontrollable == set(al.all_ids)
    assert "Ca12F" in uncontrollable and "d_2_3_1" in uncontrollable
    assert "Stop2" in controllable and "C0_1" in controllable


def test_alphabet_owner_tags():
    al = agent_alphabet(2, P)
    by_id = {e.id: e for e in al.events()}
    assert by_id["Cr-2"].owners == frozenset({2})
    assert by_id["d_1_1_2"].owners == frozenset({2})
    assert by_id["Stop1"].owners == frozenset({1, 2})


def test_plant_structure():
    plant = build_plant(1, P)
    al = agent_alphabet(1, P)
    assert len(plant.states) == 2
    assert plant.initial == "R1"
    assert plant.marked == frozenset({"R1"})
    expected = len(al.commands) + len(al.detection_ids) + 2 * len(al.external) + 1
    assert len(plant.transitions) == expected


def test_plant_language_samples():
    plant = build_plant(1, P)
    assert plant.generates(("Cr-1", "d_2_3_1"))
    assert not plant.generates(("Cr-1", "Cr-1"))
    assert plant.accepts(())  # initial state marked
    assert not plant.accepts(("Cr-1",))
    assert plant.generates(("Ca12F", "Cr-1", "Stop2", "d_1_4_1"))


def test_formation_spec_reach_keep_walk():
    spec = build_formation_spec(1, P)
    walk = ("Cr-1", "d_3_2_1", "Cr-1", "d_2_2_1", "Cr-1", "d_1_2_1", "C0_1", "C0_1")
    assert spec.generates(walk)
    assert spec.accepts(walk)  # all states marked


def test_formation_spec_initially_allows_only_inward_command():
    spec = build_formation_spec(1, P)
    enabled = set(spec.enabled(spec.initial))
    assert "Cr-1" in enabled
    assert not ({"Cr+1", "Cth+1", "Cth-1", "C0_1"} & enabled)


def test_formation_spec_alarm_makes_it_permissive_until_release():
    spec = build_formation_spec(1, P)
    state = spec.step1(spec.initial, "Ca12F")
    assert "Cth+1" in spec.enabled(state)
    assert "R21" in spec.enabled(state)
    # the turn command is tracked and the release resumes the policy
    after_turn = spec.step1(state, "Cth+1")
    resumed = spec.step1(after_turn, "R21")
    assert resumed == "moving"


def test_formation_spec_controllable():
    for k in (1, 2):
        plant = build_plant(k, P)
        spec = build_formation_spec(k, P)
        e_uc = {e.id for e in plant.alphabet if not e.controllable}
        assert check_controllability(spec, plant, e_uc).controllable


def test_collision_spec_left_branch_walk():
    spec = build_collision_spec(P)
    walk = ("Ca12F", "Stop2", "Cth+1", "d_3_4_1", "Cth+1", "d_3_5_1", "R21")
    assert spec.generates(walk)


def test_collision_spec_stops_other_agent_until_release():
    spec = build_collision_spec(P)
    state = spec.step1(spec.step1(spec.initial, "Ca12F"), "Stop2")
    al2 = agent_alphabet(2, P)
    blocked = set(al2.commands) | {al2.hold}
    while True:
        enabled = set(spec.enabled(state))
        assert not (blocked & enabled), state
        if "R21" in enabled:
            break
        state = spec.step1(state, "Cth+1")
        assert state is not None
        state = spec.step1(state, "d_2_1_1")
    assert spec.step1(state, "R21") == spec.initial


def test_collision_spec_neutral_interleaving():
    spec = build_collision_spec(P)
    assert spec.generates(("Cr-1", "Cr-2"))
    assert spec.generates(("Cr-2", "Cr-1"))
    assert spec.generates(("Cr-1", "d_2_2_1", "Cr-2", "d_3_3_2"))


def test_collision_spec_formation_reached_during_avoidance():
    spec = build_collision_spec(P)
    state = spec.step1(spec.step1(spec.initial, "Ca12N"), "Stop2")
    parked = spec.step1(spec.step1(state, "Cth+1"), "d_1_7_1")
    assert parked == "parked1"
    assert "C0_1" in spec.enabled(parked)
    assert "Cth+1" not in spec.enabled(parked)
    assert spec.step1(parked, "R21") == spec.initial


def test_collision_spec_controllable_wrt_joint_plant():
    spec = build_collision_spec(P)
    joint = parallel_compose(build_plant(1, P), build_plant(2, P))
    e_uc = {e.id for e in joint.alphabet if not e.controllable}
    assert check_controllability(spec, joint, e_uc).controllable


def test_collision_spec_decomposable():
    spec = build_collision_spec(P)
    e1 = frozenset(agent_alphabet(1, P).all_ids)
    e2 = frozenset(agent_alphabet(2, P).all_ids)
    report = check_decomposability(spec, e1, e2)
    assert report.decomposable
    assert report.dc1 and report.dc2 and report.dc3 and report.dc4


def test_local_supervisors_recompose_to_global():
    models = build_models(P)
    ac = build_collision_spec(P)
    assert is_bisimilar(parallel_compose(models.local1, models.local2), ac)
    assert models.local1.deterministic and models.local2.deterministic


def test_local_supervisor_alphabets_match_agents():
    models = build_models(P)
    assert models.local1.event_ids == frozenset(agent_alphabet(1, P).all_ids)
    assert models.local2.event_ids == frozenset(agent_alphabet(2, P).all_ids)


def test_build_models_builds_collision_spec_once(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return build_collision_spec(p)

    monkeypatch.setattr(polaris.models, "build_collision_spec", counted)
    models = build_models.__wrapped__(P)  # past the cache
    assert calls == [P]
    assert models.collision == build_collision_spec(P)


def test_private_pairs_commute_in_collision_spec():
    spec = build_collision_spec(P)
    # agent-1 and agent-2 private events enabled together must commute
    free = spec.initial
    for (e1, e2) in [("Cr-1", "Cr-2"), ("C0_1", "d_2_2_2"), ("Cr+1", "C0_2")]:
        one = spec.step1(spec.step1(free, e1), e2)
        two = spec.step1(spec.step1(free, e2), e1)
        assert one is not None and one == two


def test_projection_matches_merged_epsilon_on_collision_spec():
    spec = build_collision_spec(SMALL)
    for k in (1, 2):
        keep = frozenset(agent_alphabet(k, SMALL).all_ids)
        subset = natural_project(spec, keep)
        merged = project_by_merging(spec, keep)
        assert set(marked_language_upto(subset, 4)) == set(marked_language_upto(merged, 4))


def test_mission_closed_loop_nonblocking():
    models = build_models(SMALL)
    joint = parallel_compose(models.plant1, models.plant2)
    closed = modular_supervisor(
        parallel_compose(models.formation1, models.formation2),
        models.collision,
        joint,
    )
    assert is_nonblocking(closed)
    assert closed.accepts(())


def test_decentralized_pipeline_on_mission_models():
    models = build_models(SMALL)
    joint = parallel_compose(models.plant1, models.plant2)
    spec = parallel_compose(models.collision, joint)
    verdict = verify_decentralized(models.plant1, models.plant2, models.collision, spec)
    assert verdict.satisfied
    assert verdict.centralized_matches


def test_agent_loop_contains_mission_strings():
    models = build_models(SMALL)
    loop = models.agent_loop(1)
    assert loop.generates(("Cr-1", "d_1_1_1", "C0_1"))
    assert loop.generates(("Cr-1", "Ca12F", "Stop2", "d_2_2_1", "Cth+1", "d_2_1_1", "R21"))
    # plant alternation still enforced inside the composite
    assert not loop.generates(("Cr-1", "Cr-1"))


@pytest.mark.parametrize("n_r,n_theta", [(3, 3), (6, 9), (9, 13), (11, 10), (22, 10)])
def test_agent_loop_enables_at_most_one_actuation(n_r, n_theta):
    # the simulator picks the first enabled actuation in alphabet order; with
    # never more than one enabled, the order decides nothing
    models = build_models(PolarPartition(50.0, n_r, n_theta))
    for k in (1, 2):
        actuations = set(models.alphabet(k).actuation_ids)
        loop = models.agent_loop(k)
        counts = [len(actuations.intersection(loop.enabled(q))) for q in loop.states]
        assert max(counts) == 1


@pytest.mark.parametrize("n_r,n_theta", [(3, 3), (9, 13), (24, 36)])
def test_class_counts_do_not_grow_with_the_partition(n_r, n_theta):
    models = build_models(PolarPartition(50.0, n_r, n_theta))
    joint_plant = parallel_compose(models.plant1, models.plant2)
    mission = modular_supervisor(
        parallel_compose(models.formation1, models.formation2), models.collision, joint_plant
    )
    counts = {
        name: len(auto._members)
        for name, auto in [
            ("plant", models.plant1), ("formation", models.formation1),
            ("collision", models.collision), ("local", models.local1),
            ("joint plant", joint_plant), ("mission", mission),
        ]
    }
    assert counts == {
        "plant": 5, "formation": 10, "collision": 16, "local": 11, "joint plant": 8, "mission": 18,
    }


def test_plant_is_fully_accessible():
    plant = build_plant(1, P)
    from polaris.automata import accessible

    assert accessible(plant) is plant


def test_supervised_language_is_spec_intersect_plant_on_built_models():
    # closed-loop marked language equals the spec language intersected with
    # the plant's marked language, by exhaustive enumeration at a small bound
    models = build_models(SMALL)
    af1, a1 = models.formation1, models.plant1
    left = set(marked_language_upto(parallel_compose(af1, a1), 4))
    right = set(marked_language_upto(af1, 4)) & set(marked_language_upto(a1, 4))
    assert left == right


def test_modular_language_is_module_intersection_on_built_models():
    models = build_models(SMALL)
    af1, ac1, a1 = models.formation1, models.local1, models.plant1
    left = set(
        marked_language_upto(parallel_compose(parallel_compose(af1, ac1), a1), 4)
    )
    k1 = set(marked_language_upto(parallel_compose(af1, a1), 4))
    k2 = set(marked_language_upto(parallel_compose(ac1, a1), 4))
    assert left == k1 & k2


def test_build_plant_rejects_bad_agent():
    with pytest.raises(ValueError):
        build_plant(3, P)


def test_closed_loop_helper_on_built_models():
    from polaris.supervision import closed_loop

    models = build_models(SMALL)
    loop = closed_loop(models.formation1, models.plant1)
    assert loop.accepts(())
    assert loop.generates(("Cr-1", "d_1_1_1", "C0_1"))
    assert not loop.generates(("Cth+1",))
