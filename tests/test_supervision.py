import random
from itertools import combinations

import pytest

from conftest import (
    brute_language,
    dc3_by_sampling,
    dc3_pair_ok,
    first_shared,
    make_auto,
    per_event_bisim,
    per_event_compose,
    per_event_controllability,
    per_event_decomposability,
    per_event_project,
    random_automaton,
    random_automaton_with_twins,
    rerooted,
)

from polaris.automata import (
    Automaton,
    accessible,
    is_bisimilar,
    marked_language_upto,
    natural_project,
    parallel_compose,
)
from polaris.errors import (
    AlphabetMismatch,
    CoverageError,
    NondeterministicInput,
    NotControllable,
    NotDecomposable,
)
from polaris.models import build_models
from polaris.polar import PolarPartition
from polaris.supervision import (
    check_controllability,
    check_decomposability,
    closed_loop,
    decompose,
    is_nonblocking,
    modular_supervisor,
    verify_decentralized,
)


# -- controllability ---------------------------------------------------------


def test_spec_equal_to_plant_is_controllable():
    plant = make_auto([("q0", "c", "q1"), ("q1", "d", "q0")], controllable={"c"})
    assert check_controllability(plant, plant, {"d"}).controllable


def test_uncontrollable_event_disabled_by_spec():
    plant = make_auto([("p0", "c", "p1"), ("p1", "d", "p0")], initial="p0", controllable={"c"})
    spec = make_auto([("s0", "c", "s1")], initial="s0", controllable={"c"}, events={"d"})
    report = check_controllability(spec, plant, {"d"})
    assert not report.controllable
    assert report.witness_string == ("c",)
    assert report.witness_event == "d"
    # witness invariants: s in the spec language, s+e in the plant's, not in the spec's
    assert spec.generates(report.witness_string)
    assert plant.generates(report.witness_string + (report.witness_event,))
    assert not spec.generates(report.witness_string + (report.witness_event,))


def test_alphabet_mismatch_is_rejected():
    plant = make_auto([("p0", "c", "p0")], initial="p0", controllable={"c"})
    spec = make_auto([("s0", "x", "s0")], initial="s0", controllable={"x"})
    with pytest.raises(AlphabetMismatch):
        check_controllability(spec, plant, set())


def test_controllability_agrees_with_definition(rng):
    for _ in range(40):
        plant = random_automaton(rng, max_states=4, max_events=3, all_marked=True)
        spec = random_automaton(rng, max_states=4, max_events=3, all_marked=True)
        spec = make_auto(
            list(spec.transitions),
            initial=spec.initial,
            states=spec.states,
            controllable={e.id for e in spec.alphabet if e.controllable},
            events={e.id for e in plant.alphabet},
        )
        if spec.event_ids != plant.event_ids:
            continue
        e_uc = {e.id for e in plant.alphabet if not e.controllable}
        report = check_controllability(spec, plant, e_uc)
        if report.controllable:
            for s in brute_language(spec, 6, marked_only=False):
                for ev in sorted(e_uc):
                    if plant.generates(s + (ev,)):
                        assert spec.generates(s + (ev,))
        else:
            s = report.witness_string
            ev = report.witness_event
            assert spec.generates(s)
            assert plant.generates(s + (ev,))
            assert not spec.generates(s + (ev,))


# -- closed loop -------------------------------------------------------------


def test_unconstraining_supervisor_leaves_plant_alone():
    plant = make_auto(
        [("p0", "c", "p1"), ("p1", "d", "p0")], initial="p0", controllable={"c"}, marked={"p0"}
    )
    sup = make_auto([("s0", "c", "s0"), ("s0", "d", "s0")], initial="s0", controllable={"c"})
    assert is_bisimilar(closed_loop(sup, plant), plant)


def test_closed_loop_marked_language_is_spec_intersect_plant():
    # plant accepts a b^k plus a c-branch the spec prunes
    plant = make_auto(
        [("p0", "a", "p1"), ("p1", "b", "p1"), ("p1", "c", "p2"), ("p0", "c", "p3")],
        initial="p0",
        marked={"p1", "p2"},
        controllable={"a", "b", "c"},
    )
    sup = make_auto(
        [("s0", "a", "s1"), ("s1", "b", "s1")],
        initial="s0",
        controllable={"a", "b", "c"},
        events={"c"},
    )
    loop = closed_loop(sup, plant)
    got = marked_language_upto(loop, 4)
    assert got == [("a",), ("a", "b"), ("a", "b", "b"), ("a", "b", "b", "b")]
    want = set(marked_language_upto(sup, 4)) & set(marked_language_upto(plant, 4))
    assert set(got) == want


def test_closed_loop_rejects_uncontrollable_disabling():
    plant = make_auto([("p0", "c", "p1"), ("p1", "d", "p0")], initial="p0", controllable={"c"})
    sup = make_auto([("s0", "c", "s1")], initial="s0", controllable={"c"}, events={"d"})
    with pytest.raises(NotControllable):
        closed_loop(sup, plant)


def test_closed_loop_requires_all_marked_supervisor():
    plant = make_auto([("p0", "c", "p0")], initial="p0", controllable={"c"})
    sup = make_auto([("s0", "c", "s1")], initial="s0", marked={"s0"}, controllable={"c"})
    with pytest.raises(ValueError):
        closed_loop(sup, plant)


def test_closed_loop_never_enables_disabled_events():
    plant = make_auto(
        [("p0", "a", "p1"), ("p1", "b", "p1"), ("p1", "a", "p0")],
        initial="p0",
        controllable={"a", "b"},
    )
    sup = make_auto([("s0", "a", "s1"), ("s1", "a", "s0")],
                    initial="s0", controllable={"a", "b"}, events={"b"})
    loop = closed_loop(sup, plant)
    for (src, ev, _) in loop.transitions:
        s_component = src[1:-1].split(",")[0]
        assert ev in sup.enabled(s_component)


# -- modular supervision -----------------------------------------------------


def test_neutral_module_changes_nothing():
    plant = make_auto(
        [("p0", "a", "p1"), ("p1", "b", "p1")], initial="p0", marked={"p1"},
        controllable={"a", "b"},
    )
    s1 = make_auto([("s0", "a", "s1"), ("s1", "b", "s1")], initial="s0",
                   controllable={"a", "b"})
    s2 = make_auto([("u0", "a", "u0"), ("u0", "b", "u0")], initial="u0",
                   controllable={"a", "b"})
    assert is_bisimilar(modular_supervisor(s1, s2, plant), parallel_compose(s1, plant))


def test_modular_intersection_of_two_specs():
    plant = make_auto(
        [("p0", "a", "p1"), ("p1", "b", "p1")], initial="p0", marked={"p1"},
        controllable={"a", "b"},
    )
    s1 = make_auto([("s0", "a", "s1"), ("s1", "b", "s1")], initial="s0",
                   controllable={"a", "b"})
    s2 = make_auto(
        [("u0", "a", "u1"), ("u1", "b", "u2"), ("u2", "b", "u1")],
        initial="u0",
        marked={"u0", "u1"},
        controllable={"a", "b"},
    )
    loop = modular_supervisor(s1, s2, plant)
    got = marked_language_upto(loop, 5)
    assert got == [("a",), ("a", "b", "b"), ("a", "b", "b", "b", "b")]
    k1 = set(marked_language_upto(parallel_compose(s1, plant), 5))
    k2 = set(marked_language_upto(parallel_compose(s2, plant), 5))
    assert set(got) == k1 & k2


# -- decomposition -----------------------------------------------------------


def test_decompose_full_share_is_identity():
    a = make_auto([("q0", "a", "q1"), ("q1", "b", "q0")], marked={"q0"})
    (p1, p2) = decompose(a, a.event_ids, a.event_ids)
    assert is_bisimilar(p1, a)
    assert is_bisimilar(p2, a)


def test_decompose_shuffle_into_single_loops():
    a = make_auto([("p0", "a", "p1")], initial="p0", marked={"p1"})
    b = make_auto([("r0", "b", "r1")], initial="r0", marked={"r1"})
    shuffle = parallel_compose(a, b)
    (p1, p2) = decompose(shuffle, {"a"}, {"b"})
    assert is_bisimilar(p1, a)
    assert is_bisimilar(p2, b)


def test_decompose_coverage_error():
    a = make_auto([("q0", "a", "q1"), ("q1", "b", "q0")])
    with pytest.raises(CoverageError):
        decompose(a, {"a"}, {"a"})


def test_decomposability_trivial_when_all_shared():
    a = make_auto([("q0", "a", "q1"), ("q1", "b", "q0")], marked={"q0"})
    report = check_decomposability(a, a.event_ids, a.event_ids)
    assert report.decomposable
    assert report.dc1 and report.dc2 and report.dc3 and report.dc4


def test_v_shape_fails_dc1_and_oracle():
    a = make_auto([("q0", "e1", "q1"), ("q0", "e2", "q2")])
    report = check_decomposability(a, {"e1"}, {"e2"})
    assert not report.dc1
    assert report.dc1_witness == ("q0", "e1", "e2")
    assert not report.decomposable


def test_dc2_failure_on_noncommuting_diamond():
    # both orders defined but they reach states with different futures
    a = make_auto(
        [
            ("q0", "e1", "q1"),
            ("q0", "e2", "q2"),
            ("q1", "e2", "q3"),
            ("q2", "e1", "q4"),
            ("q3", "x", "q3"),
        ],
        events={"x"},
    )
    report = check_decomposability(a, {"e1", "x"}, {"e2", "x"})
    assert report.dc1
    assert not report.dc2
    assert not report.decomposable


def test_decomposability_rejects_nondeterministic_input():
    a = make_auto([("q0", "a", "q1"), ("q0", "a", "q2")])
    with pytest.raises(NondeterministicInput):
        check_decomposability(a, {"a"}, {"a"})


def test_dc1_failure_implies_oracle_failure(rng):
    seen_failures = 0
    for _ in range(60):
        a = random_automaton(rng, max_states=4, max_events=4, deterministic=True)
        ids = sorted(a.event_ids)
        if len(ids) < 2:
            continue
        half = max(1, len(ids) // 2)
        e1, e2 = set(ids[:half]), set(ids[half:])
        if not e2:
            continue
        report = check_decomposability(a, e1, e2)
        if not report.dc1:
            seen_failures += 1
            assert not report.decomposable
    assert seen_failures > 0


def test_oracle_pass_implies_language_equality(rng):
    seen_passes = 0
    for _ in range(60):
        a = random_automaton(rng, max_states=4, max_events=3, deterministic=True)
        ids = sorted(a.event_ids)
        half = max(1, len(ids) // 2)
        e1, e2 = set(ids[:half]), set(ids[half:]) | {ids[0]}
        report = check_decomposability(a, e1, e2)
        if report.decomposable:
            seen_passes += 1
            (p1, p2) = decompose(a, e1, e2)
            recomposed = parallel_compose(p1, p2)
            assert marked_language_upto(a, 6) == marked_language_upto(recomposed, 6)
    assert seen_passes > 0


# -- oracles for the projection and the dc2/dc4 diagnostics -----------------


def _random_cover(rng, a):
    """Two event sets covering the alphabet, each with a private event."""
    ids = sorted(a.event_ids)
    cut = rng.randint(1, len(ids) - 1)
    return set(ids[: cut + rng.randint(0, 1)]), set(ids[cut - rng.randint(0, 1) :])


def _hidden_closure(a, states, keep):
    out = set(states)
    while True:
        more = {
            d for q in out for ev in a.enabled(q) if ev not in keep for d in a.step(q, ev)
        } - out
        if not more:
            return out
        out |= more


def _dc2_oracle(a, e1, e2):
    """First (q, x, y) whose two interleavings reach non-bisimilar states."""
    for q in sorted(a.states):
        for x in sorted(e1 - e2):
            for y in sorted(e2 - e1):
                (qx, qy) = (a.step1(q, x), a.step1(q, y))
                if qx is None or qy is None:
                    continue
                (qxy, qyx) = (a.step1(qx, y), a.step1(qy, x))
                if qxy is None or qyx is None:
                    continue
                if not is_bisimilar(rerooted(a, qxy), rerooted(a, qyx)):
                    return (q, x, y)
    return None


def _dc4_oracle(a, e1, e2):
    """First projected step (q, ev) with successors t1 < t2 whose projected
    generated languages differ."""
    for keep in (e1, e2):

        def generated(t):
            r = rerooted(a, t)
            return natural_project(
                Automaton.build(r.states, t, r.alphabet, r.transitions, r.states), keep
            )

        for q in sorted(a.states):
            base = _hidden_closure(a, {q}, keep)
            for ev in sorted(keep):
                targets = _hidden_closure(a, {d for p in base for d in a.step(p, ev)}, keep)
                for (t1, t2) in combinations(sorted(targets), 2):
                    if not is_bisimilar(generated(t1), generated(t2)):
                        return (q, ev, t1, t2)
    return None


def test_dc2_and_dc4_match_per_pair_oracles(rng):
    failures = {"dc2": 0, "dc4": 0}
    for _ in range(300):
        a = random_automaton(
            rng, max_states=5, max_events=4, min_events=2, deterministic=True, density=0.7
        )
        (e1, e2) = _random_cover(rng, a)
        report = check_decomposability(a, e1, e2)
        a = accessible(a)
        dc2_wit = _dc2_oracle(a, e1, e2)
        dc4_wit = _dc4_oracle(a, e1, e2)
        assert (report.dc2, report.dc2_witness) == (dc2_wit is None, dc2_wit)
        assert (report.dc4, report.dc4_witness) == (dc4_wit is None, dc4_wit)
        failures["dc2"] += not report.dc2
        failures["dc4"] += not report.dc4
    assert failures["dc2"] > 0 and failures["dc4"] > 0


def _assert_dc3_witness(a, e1, e2, witness):
    """s and t are generated from a reachable q, agree on their first
    shared event and fail the pair check."""
    (q, s, t) = witness
    assert q in accessible(a).states
    assert rerooted(a, q).generates(s) and rerooted(a, q).generates(t)
    first = first_shared(s, e1 & e2)
    assert first is not None and first == first_shared(t, e1 & e2)
    assert not dc3_pair_ok(a, q, s, t, e1, e2)


def test_dc3_fails_on_chain_whose_private_events_do_not_commute():
    # y may only follow x, but the projections xa and ya let y go first;
    # the only pair of strings with a shared event is s = t = xya
    a = make_auto([("q0", "x", "q1"), ("q1", "y", "q2"), ("q2", "a", "q3")])
    (e1, e2) = ({"x", "a"}, {"y", "a"})
    report = check_decomposability(a, e1, e2)
    assert report.dc1 and report.dc2 and report.dc4
    assert not report.dc3
    _assert_dc3_witness(a, e1, e2, report.dc3_witness)
    assert not report.decomposable


def _random_shared_cover(rng, a):
    """Two event sets covering the alphabet with at least one shared event."""
    ids = sorted(a.event_ids)
    sides = [rng.choice((1, 2, 3)) for _ in ids]
    if 3 not in sides:
        sides[rng.randrange(len(ids))] = 3
    return (
        {ev for (ev, side) in zip(ids, sides) if side & 1},
        {ev for (ev, side) in zip(ids, sides) if side & 2},
    )


def test_dc3_agrees_with_bounded_sampling(rng):
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        a = random_automaton(rng, max_states=4, max_events=3, min_events=2, deterministic=True)
        (e1, e2) = _random_shared_cover(rng, a)
        report = check_decomposability(a, e1, e2)
        outcomes[report.dc3] += 1
        if report.dc3:
            assert dc3_by_sampling(a, e1, e2, 3) is None
        else:
            _assert_dc3_witness(a, e1, e2, report.dc3_witness)
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_report_projections_equal_natural_project(rng):
    # the report projects the accessible part; unreachable states change
    # nothing in a projection, so verify_decentralized may compose these
    trimmed = 0
    for _ in range(300):
        a = random_automaton(rng, max_states=5, max_events=4, min_events=2, deterministic=True)
        (e1, e2) = _random_cover(rng, a)
        report = check_decomposability(a, e1, e2)
        assert report.local1 == natural_project(a, e1)
        assert report.local2 == natural_project(a, e2)
        trimmed += accessible(a).states != a.states
    assert trimmed > 0


def test_class_algebra_matches_per_event_oracles():
    # twins put several events in one class, so a class-level result must
    # equal the per-event one, witnesses (smallest member first) included
    rng = random.Random(8088)
    seen = dict.fromkeys(
        ("merged", "bisimilar", "uncontrollable", "dc1", "dc2", "dc3", "dc4", "twin witness"), 0
    )
    twin_ids = {f(ev) for ev in "abc" for f in (str.upper, lambda ev: ev + "2")}

    def twins(witness):
        flat = [x for part in witness or () for x in (part if isinstance(part, tuple) else [part])]
        return not twin_ids.isdisjoint(flat)

    for i in range(3000):
        a = random_automaton_with_twins(
            rng, max_states=4, max_events=3, min_events=2, deterministic=i % 3 != 0
        )
        b = random_automaton_with_twins(rng, max_states=3, max_events=3)
        seen["merged"] += any(len(evs) > 1 for evs in a._members)

        assert parallel_compose(a, b) == per_event_compose(a, b)
        keep = rng.sample(sorted(a.event_ids), rng.randint(0, len(a.event_ids)))
        assert natural_project(a, keep) == per_event_project(a, keep)
        for other in (b, a.renamed({q: "r" + q for q in a.states}), per_event_compose(a, a)):
            verdict = is_bisimilar(a, other)
            assert verdict == per_event_bisim(a, other)
            seen["bisimilar"] += verdict.bisimilar

        spec = Automaton.build(
            a.states, a.initial, a.alphabet,
            [t for t in a.transitions if rng.random() < 0.7], a.states,
        )
        e_uc = {e.id for e in a.alphabet if not e.controllable}
        report = check_controllability(spec, a, e_uc)
        assert report == per_event_controllability(spec, a, e_uc)
        seen["uncontrollable"] += not report

        if a.deterministic:
            (e1, e2) = (_random_shared_cover if i % 2 else _random_cover)(rng, a)
            report = check_decomposability(a, e1, e2)
            want = per_event_decomposability(a, e1, e2)
            assert report == want
            assert (report.local1, report.local2) == (want.local1, want.local2)
            for dc in ("dc1", "dc2", "dc3", "dc4"):
                seen[dc] += not getattr(report, dc)
                seen["twin witness"] += twins(getattr(report, dc + "_witness"))
    assert all(seen.values()), seen


def test_natural_project_marked_language_is_projected_brute_language(rng):
    n = 2
    for _ in range(300):
        a = random_automaton(rng, max_states=3, max_events=3, deterministic=True)
        keep = set(rng.sample(sorted(a.event_ids), rng.randint(0, len(a.event_ids))))
        # a projected string of length n needs at most n + (n+1)(|Q|-1) events
        depth = n + (n + 1) * (len(a.states) - 1)
        want = {
            p
            for s in brute_language(a, depth)
            for p in [tuple(e for e in s if e in keep)]
            if len(p) <= n
        }
        assert brute_language(natural_project(a, keep), n) == want


# -- decentralized cooperation ----------------------------------------------


def _team():
    ap1 = make_auto(
        [("m0", "go", "m1"), ("m1", "go", "m1"), ("m1", "a", "m1")],
        initial="m0", controllable={"go", "a", "b"},
    )
    ap2 = make_auto(
        [("n0", "go", "n1"), ("n1", "go", "n1"), ("n1", "b", "n1")],
        initial="n0", controllable={"go", "a", "b"},
    )
    return ap1, ap2


def test_neutral_controller_satisfies_joint_plant():
    (ap1, ap2) = _team()
    ac = make_auto([("c0", "go", "c0")], initial="c0", controllable={"go"})
    spec = parallel_compose(ap1, ap2)
    verdict = verify_decentralized(ap1, ap2, ac, spec)
    assert verdict.satisfied and verdict.centralized_matches


def test_restrictive_controller_with_matching_spec():
    (ap1, ap2) = _team()
    ac = make_auto([("c0", "go", "c1")], initial="c0", controllable={"go"})
    spec = parallel_compose(ac, parallel_compose(ap1, ap2))
    verdict = verify_decentralized(ap1, ap2, ac, spec)
    assert verdict.satisfied and verdict.centralized_matches


def test_wrong_spec_detected():
    (ap1, ap2) = _team()
    ac = make_auto([("c0", "go", "c1")], initial="c0", controllable={"go"})
    wrong = parallel_compose(ap1, ap2)  # allows repeated go
    verdict = verify_decentralized(ap1, ap2, ac, wrong)
    assert not verdict.satisfied
    assert not verdict.centralized_matches


def test_unmarked_spec_detected():
    (ap1, ap2) = _team()
    ac = make_auto([("c0", "go", "c0")], initial="c0", controllable={"go"})
    joint = parallel_compose(ap1, ap2)
    unmarked = joint.__class__.build(
        joint.states, joint.initial, joint.alphabet, joint.transitions, set()
    )
    verdict = verify_decentralized(ap1, ap2, ac, unmarked)
    assert not verdict.satisfied


def test_verify_decentralized_on_built_models():
    models = build_models(PolarPartition(40.0, 3, 3))
    joint = parallel_compose(models.plant1, models.plant2)
    spec = parallel_compose(models.collision, joint)
    verdict = verify_decentralized(models.plant1, models.plant2, models.collision, spec)
    assert verdict.satisfied and verdict.centralized_matches


def test_undecomposable_controller_raises():
    (ap1, ap2) = _team()
    ac = make_auto([("c0", "a", "c1"), ("c0", "b", "c2")],
                   initial="c0", controllable={"a", "b"})
    with pytest.raises(NotDecomposable):
        verify_decentralized(ap1, ap2, ac, parallel_compose(ap1, ap2))


# -- nonblocking -------------------------------------------------------------


def test_nonblocking_simple_cases():
    good = make_auto([("q0", "a", "q1"), ("q1", "b", "q0")], marked={"q0"})
    assert is_nonblocking(good)
    bad = make_auto([("q0", "a", "q1")], marked={"q0"})
    assert not is_nonblocking(bad)
