import pytest

from conftest import (
    _edges,
    accepts,
    enabled,
    marked_language_upto,
    project_by_merging,
    transitions,
)

import polaris.models
from polaris.automata import (
    Automaton,
    is_bisimilar,
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
    by_id = {e.id: e for e in al.events}
    assert by_id["Cr-2"].owners == frozenset({2})
    assert by_id["d_1_1_2"].owners == frozenset({2})
    assert by_id["Stop1"].owners == frozenset({1, 2})


def test_plant_structure():
    plant = build_plant(agent_alphabet(1, P))
    al = agent_alphabet(1, P)
    assert len(plant.states) == 2
    assert plant.initial == "R1"
    assert plant.marked == frozenset({"R1"})
    expected = len(al.commands) + len(al.detection_ids) + 2 * len(al.external) + 1
    assert len(transitions(plant)) == expected


def test_plant_language_samples():
    plant = build_plant(agent_alphabet(1, P))
    assert plant.generates(("Cr-1", "d_2_3_1"))
    assert not plant.generates(("Cr-1", "Cr-1"))
    assert accepts(plant, ())  # initial state marked
    assert not accepts(plant, ("Cr-1",))
    assert plant.generates(("Ca12F", "Cr-1", "Stop2", "d_1_4_1"))


def test_formation_spec_reach_keep_walk():
    spec = build_formation_spec(agent_alphabet(1, P))
    walk = ("Cr-1", "d_3_2_1", "Cr-1", "d_2_2_1", "Cr-1", "d_1_2_1", "C0_1", "C0_1")
    assert spec.generates(walk)
    assert accepts(spec, walk)  # all states marked


def test_formation_spec_initially_allows_only_inward_command():
    spec = build_formation_spec(agent_alphabet(1, P))
    first = set(enabled(spec, spec.initial))
    assert "Cr-1" in first
    assert not ({"Cr+1", "Cth+1", "Cth-1", "C0_1"} & first)


def test_formation_spec_alarm_makes_it_permissive_until_release():
    spec = build_formation_spec(agent_alphabet(1, P))
    state = spec.step1(spec.initial, "Ca12F")
    assert "Cth+1" in enabled(spec, state)
    assert "R21" in enabled(spec, state)
    # the turn command is tracked and the release resumes the policy
    after_turn = spec.step1(state, "Cth+1")
    resumed = spec.step1(after_turn, "R21")
    assert resumed == "moving"


def test_formation_spec_controllable():
    for k in (1, 2):
        plant = build_plant(agent_alphabet(k, P))
        spec = build_formation_spec(agent_alphabet(k, P))
        assert check_controllability(spec, plant)


def test_collision_spec_left_branch_walk():
    spec = build_collision_spec(agent_alphabet(1, P), agent_alphabet(2, P))
    walk = ("Ca12F", "Stop2", "Cth+1", "d_3_4_1", "Cth+1", "d_3_5_1", "R21")
    assert spec.generates(walk)


def test_collision_spec_stops_other_agent_until_release():
    spec = build_collision_spec(agent_alphabet(1, P), agent_alphabet(2, P))
    state = spec.step1(spec.step1(spec.initial, "Ca12F"), "Stop2")
    al2 = agent_alphabet(2, P)
    blocked = set(al2.commands) | {al2.hold}
    while True:
        now = set(enabled(spec, state))
        assert not (blocked & now), state
        if "R21" in now:
            break
        state = spec.step1(state, "Cth+1")
        assert state is not None
        state = spec.step1(state, "d_2_1_1")
    assert spec.step1(state, "R21") == spec.initial


def test_collision_spec_neutral_interleaving():
    spec = build_collision_spec(agent_alphabet(1, P), agent_alphabet(2, P))
    assert spec.generates(("Cr-1", "Cr-2"))
    assert spec.generates(("Cr-2", "Cr-1"))
    assert spec.generates(("Cr-1", "d_2_2_1", "Cr-2", "d_3_3_2"))


def test_collision_spec_formation_reached_during_avoidance():
    spec = build_collision_spec(agent_alphabet(1, P), agent_alphabet(2, P))
    state = spec.step1(spec.step1(spec.initial, "Ca12N"), "Stop2")
    parked = spec.step1(spec.step1(state, "Cth+1"), "d_1_7_1")
    assert parked == "parked1"
    assert "C0_1" in enabled(spec, parked)
    assert "Cth+1" not in enabled(spec, parked)
    assert spec.step1(parked, "R21") == spec.initial


def test_collision_spec_controllable_wrt_joint_plant():
    spec = build_collision_spec(agent_alphabet(1, P), agent_alphabet(2, P))
    joint = parallel_compose(build_plant(agent_alphabet(1, P)), build_plant(agent_alphabet(2, P)))
    assert check_controllability(spec, joint)


def test_collision_spec_decomposable():
    spec = build_collision_spec(agent_alphabet(1, P), agent_alphabet(2, P))
    e1 = frozenset(agent_alphabet(1, P).all_ids)
    e2 = frozenset(agent_alphabet(2, P).all_ids)
    report = check_decomposability(spec, e1, e2)
    assert report
    assert (report.dc1_witness, report.dc2_witness, report.dc3_witness,
            report.dc4_witness) == (None,) * 4


def test_local_supervisors_recompose_to_global():
    models = build_models(P)
    ac = build_collision_spec(agent_alphabet(1, P), agent_alphabet(2, P))
    assert is_bisimilar(parallel_compose(models.local(1), models.local(2)), ac)
    assert models.local(1).deterministic and models.local(2).deterministic


def test_local_supervisor_alphabets_match_agents():
    models = build_models(P)
    assert models.local(1).event_ids == frozenset(agent_alphabet(1, P).all_ids)
    assert models.local(2).event_ids == frozenset(agent_alphabet(2, P).all_ids)


def test_build_models_builds_collision_spec_once(monkeypatch):
    calls = []

    def counted(al1, al2):
        calls.append((al1.k, al2.k))
        return build_collision_spec(al1, al2)

    monkeypatch.setattr(polaris.models, "build_collision_spec", counted)
    models = build_models.__wrapped__(P)  # past the cache
    assert calls == [(1, 2)]
    assert models.collision == build_collision_spec(agent_alphabet(1, P), agent_alphabet(2, P))


def test_build_models_builds_each_alphabet_once(monkeypatch):
    calls = []

    def counted(k, p):
        calls.append(k)
        return agent_alphabet(k, p)

    monkeypatch.setattr(polaris.models, "agent_alphabet", counted)
    build_models.__wrapped__(P)  # past the cache
    assert calls == [1, 2]


def test_build_models_reports_a_collision_supervisor_that_is_not_decomposable(
    undecomposable_collision,
):
    models = build_models.__wrapped__(P)
    report = models.decomposition
    assert not report and not report.bisim
    assert report.dc1_witness is not None
    assert (models.local(1), models.local(2)) == (report.local1, report.local2)
    assert not is_bisimilar(parallel_compose(models.local(1), models.local(2)), models.collision)


@pytest.mark.parametrize("n_r,n_theta", [(3, 3), (5, 9), (9, 13), (21, 9), (24, 36)])
def test_builders_rows_build_what_their_triples_build(monkeypatch, n_r, n_theta):
    build = Automaton.build.__func__
    calls = []

    def recording(cls, states, initial, alphabet, rows, marked):
        calls.append((states, initial, alphabet, rows, marked))
        return build(cls, states, initial, alphabet, rows, marked)

    monkeypatch.setattr(Automaton, "build", classmethod(recording))
    p = PolarPartition(50.0, n_r, n_theta)
    al1, al2 = agent_alphabet(1, p), agent_alphabet(2, p)
    built = [
        build_plant(al1), build_plant(al2), build_formation_spec(al1),
        build_formation_spec(al2), build_collision_spec(al1, al2),
    ]
    monkeypatch.undo()
    assert len(calls) == len(built)
    for auto, (states, initial, alphabet, rows, marked) in zip(built, calls):
        triples = _edges(rows)
        assert len(triples) > len(rows)  # the rows do group events
        assert auto == Automaton.build(states, initial, alphabet, triples, marked)
        assert transitions(auto) == tuple(sorted(set(triples)))


def test_private_pairs_commute_in_collision_spec():
    spec = build_collision_spec(agent_alphabet(1, P), agent_alphabet(2, P))
    # agent-1 and agent-2 private events enabled together must commute
    free = spec.initial
    for (e1, e2) in [("Cr-1", "Cr-2"), ("C0_1", "d_2_2_2"), ("Cr+1", "C0_2")]:
        one = spec.step1(spec.step1(free, e1), e2)
        two = spec.step1(spec.step1(free, e2), e1)
        assert one is not None and one == two


def test_projection_matches_merged_epsilon_on_collision_spec():
    spec = build_collision_spec(agent_alphabet(1, SMALL), agent_alphabet(2, SMALL))
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
    assert accepts(closed, ())


@pytest.mark.parametrize("n_r,n_theta", [(3, 3), (9, 13), (21, 9)])
def test_mission_loop_on_the_spec_product_matches_the_formation_grouping(n_r, n_theta):
    # build-models closes the mission loop on collision || joint plant, the
    # product it already composed as the spec
    models = build_models(PolarPartition(50.0, n_r, n_theta))
    joint_plant = parallel_compose(models.plant1, models.plant2)
    spec = parallel_compose(models.collision, joint_plant)
    regrouped = modular_supervisor(models.formation1, models.formation2, spec)
    grouped = modular_supervisor(
        parallel_compose(models.formation1, models.formation2), models.collision, joint_plant
    )
    assert is_bisimilar(regrouped, grouped)
    assert is_nonblocking(regrouped) == is_nonblocking(grouped)


def test_decentralized_pipeline_on_mission_models():
    models = build_models(SMALL)
    joint = parallel_compose(models.plant1, models.plant2)
    spec = parallel_compose(models.collision, joint)
    (local1, local2) = (models.local(1), models.local(2))
    assert verify_decentralized(models.plant1, models.plant2, local1, local2, spec)


def test_agent_loop_contains_mission_strings():
    models = build_models(SMALL)
    loop = models.agent_loop(1)
    assert loop.generates(("Cr-1", "d_1_1_1", "C0_1"))
    assert loop.generates(("Cr-1", "Ca12F", "Stop2", "d_2_2_1", "Cth+1", "d_2_1_1", "R21"))
    # plant alternation still enforced inside the composite
    assert not loop.generates(("Cr-1", "Cr-1"))


@pytest.mark.parametrize("n_r,n_theta", [(3, 3), (6, 9), (9, 13), (11, 10), (21, 9), (22, 10)])
def test_agent_loop_enables_at_most_one_actuation(monkeypatch, n_r, n_theta):
    # the simulator picks the first enabled actuation in alphabet order; with
    # never more than one enabled, the order decides nothing
    models = build_models(PolarPartition(50.0, n_r, n_theta))
    calls = []

    def counted(a1, a2):
        calls.append((a1, a2))
        return parallel_compose(a1, a2)

    monkeypatch.setattr(polaris.models, "parallel_compose", counted)
    for k in (1, 2):
        actuations = set(models.alphabet(k).actuation_ids)
        calls.clear()
        loop = models.agent_loop(k)
        assert len(calls) == 1
        pair = parallel_compose(models.plant(k), models.formation(k))
        assert loop == parallel_compose(pair, models.local(k))
        counts = [len(actuations.intersection(enabled(loop, q))) for q in loop.states]
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
            ("collision", models.collision), ("local", models.local(1)),
            ("joint plant", joint_plant), ("mission", mission),
        ]
    }
    assert counts == {
        "plant": 5, "formation": 10, "collision": 16, "local": 11, "joint plant": 8, "mission": 18,
    }


def test_plant_is_fully_accessible():
    plant = build_plant(agent_alphabet(1, P))
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
    af1, ac1, a1 = models.formation1, models.local(1), models.plant1
    left = set(
        marked_language_upto(parallel_compose(parallel_compose(af1, ac1), a1), 4)
    )
    k1 = set(marked_language_upto(parallel_compose(af1, a1), 4))
    k2 = set(marked_language_upto(parallel_compose(ac1, a1), 4))
    assert left == k1 & k2


def test_build_plant_rejects_bad_agent():
    with pytest.raises(ValueError):
        build_plant(agent_alphabet(3, P))


def test_closed_loop_helper_on_built_models():
    from polaris.supervision import closed_loop

    models = build_models(SMALL)
    loop = closed_loop(models.formation1, models.plant1)
    assert accepts(loop, ())
    assert loop.generates(("Cr-1", "d_1_1_1", "C0_1"))
    assert not loop.generates(("Cth+1",))
