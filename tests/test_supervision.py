import gc
import random
import weakref
from itertools import combinations

import pytest

from conftest import (
    GENERIC_E1,
    GENERIC_E2,
    brute_language,
    check_bisim_relation,
    dc3_by_sampling,
    dc3_pair_ok,
    enabled,
    first_shared,
    generic_automaton,
    make_auto,
    marked_language_upto,
    per_event_accessible,
    per_event_bisim,
    per_event_compose,
    per_event_controllability,
    per_event_decomposability,
    per_event_nonblocking,
    per_event_project,
    random_automaton,
    random_automaton_parts,
    random_automaton_with_twins,
    renamed,
    rerooted,
    team_plants,
    transitions,
    unfolded,
)

from polaris import automata, exchange, supervision
from polaris.automata import (
    Automaton,
    Event,
    accessible,
    is_bisimilar,
    natural_project,
    parallel_compose,
)
from polaris.errors import (
    AlphabetConflict,
    AlphabetMismatch,
    CoverageError,
    NondeterministicInput,
    NotControllable,
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
    assert check_controllability(plant, plant)


def test_uncontrollable_event_disabled_by_spec():
    plant = make_auto([("p0", "c", "p1"), ("p1", "d", "p0")], initial="p0", controllable={"c"})
    spec = make_auto([("s0", "c", "s1")], initial="s0", controllable={"c"}, events={"d"})
    report = check_controllability(spec, plant)
    assert not report
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
        check_controllability(spec, plant)


def test_controllability_agrees_with_definition(rng):
    # a nondeterministic spec enables after s what any state s reaches
    # enables: every automaton is controllable against itself, and a
    # failing witness s, e replays: s is generated by the spec, s+e by the
    # plant but not by the spec
    seen = dict.fromkeys(("nondeterministic", "controllable", "uncontrollable"), 0)
    for _ in range(1200):
        (spec, plant) = (
            random_automaton(rng, max_states=4, max_events=3, min_events=3) for _ in range(2)
        )
        seen["nondeterministic"] += not spec.deterministic
        assert check_controllability(spec, spec)
        report = check_controllability(spec, plant)
        e_uc = {e.id for e in plant.alphabet if not e.controllable}
        assert report == per_event_controllability(spec, plant, e_uc)
        assert check_controllability((spec, spec), plant) == report
        seen["controllable" if report else "uncontrollable"] += 1
        if report:
            for s in brute_language(spec, 6, marked_only=False):
                for ev in sorted(e_uc):
                    assert spec.generates(s + (ev,)) or not plant.generates(s + (ev,))
            continue
        (s, ev) = report
        assert spec.generates(s)
        assert plant.generates(s + (ev,))
        assert not spec.generates(s + (ev,))
    assert min(seen.values()) > 100, seen


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
    for (src, ev, _) in transitions(loop):
        s_component = src[1:-1].split(",")[0]
        assert ev in enabled(sup, s_component)


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
    with pytest.raises(CoverageError, match=r"unknown events: \['bogus'\]"):
        decompose(a, {"a"}, {"b", "bogus"})


def test_decomposability_trivial_when_all_shared():
    a = make_auto([("q0", "a", "q1"), ("q1", "b", "q0")], marked={"q0"})
    report = check_decomposability(a, a.event_ids, a.event_ids)
    assert report
    assert (report.dc1_witness, report.dc2_witness, report.dc3_witness,
            report.dc4_witness) == (None,) * 4


def test_v_shape_fails_dc1_and_oracle():
    a = make_auto([("q0", "e1", "q1"), ("q0", "e2", "q2")])
    report = check_decomposability(a, {"e1"}, {"e2"})
    assert report.dc1_witness == ("q0", "e1", "e2")
    assert not report


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
    assert report.dc1_witness is None
    assert report.dc2_witness is not None
    assert not report


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
        if report.dc1_witness is not None:
            seen_failures += 1
            assert not report
    assert seen_failures > 0


def test_oracle_pass_implies_language_equality(rng):
    seen_passes = 0
    for _ in range(60):
        a = random_automaton(rng, max_states=4, max_events=3, deterministic=True)
        ids = sorted(a.event_ids)
        half = max(1, len(ids) // 2)
        e1, e2 = set(ids[:half]), set(ids[half:]) | {ids[0]}
        report = check_decomposability(a, e1, e2)
        if report:
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
            d for q in out for ev in enabled(a, q) if ev not in keep for d in a.step(q, ev)
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
                Automaton.build(r.states, t, r.alphabet, transitions(r), r.states), keep
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
        assert (report.dc2_witness, report.dc4_witness) == (dc2_wit, dc4_wit)
        failures["dc2"] += dc2_wit is not None
        failures["dc4"] += dc4_wit is not None
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
    assert (report.dc1_witness, report.dc2_witness, report.dc4_witness) == (None,) * 3
    _assert_dc3_witness(a, e1, e2, report.dc3_witness)
    assert not report


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
        outcomes[report.dc3_witness is None] += 1
        if report.dc3_witness is None:
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


def _assert_same_bisim(a1, a2, verdict, oracle):
    """``verdict`` agrees with the maximal relation ``oracle``: the same
    truth, and a relation that is a bisimulation between the accessible
    parts, which is the oracle itself when an input is nondeterministic."""
    assert bool(verdict) == bool(oracle)
    if not verdict:
        return
    assert check_bisim_relation(a1, a2, verdict.relation)
    assert verdict.relation <= oracle.relation
    if not (accessible(a1).deterministic and accessible(a2).deterministic):
        assert verdict == oracle


def _made_witnesses(report) -> list:
    """The witnesses a report holds, read without computing any."""
    made = []
    for name in ("dc1_witness", "dc2_witness", "dc3_witness", "dc4_witness"):
        try:
            object.__getattribute__(report, name)
        except AttributeError:
            continue
        made.append(name)
    return made


def _spy_on_subset_constructions(monkeypatch) -> list:
    """A list that gets a weak reference to the row function of each
    subset construction that ``_shared_projection`` makes from now on."""
    made = []

    def spy(*args):
        projection = shared_projection(*args)
        made.append(weakref.ref(projection[0]))
        return projection

    shared_projection = supervision._shared_projection
    monkeypatch.setattr(supervision, "_shared_projection", spy)
    return made


def test_class_algebra_matches_per_event_oracles(monkeypatch):
    # twins put several events in one class, so a class-level result must
    # equal the per-event one, witnesses (smallest member first) included
    rng = random.Random(8088)
    constructions = _spy_on_subset_constructions(monkeypatch)
    seen = dict.fromkeys(
        ("merged", "bisimilar", "uncontrollable", "dc1", "dc2", "dc3", "dc4", "twin witness",
         "large product", "tuple bisimilar", "tuple not bisimilar", "tuple nondeterministic",
         "trimmed"), 0
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
        seen["merged"] += any(len(evs) > 1 for evs in a._members.values())

        assert parallel_compose(a, b) == per_event_compose(a, b)
        keep = rng.sample(sorted(a.event_ids), rng.randint(0, len(a.event_ids)))
        assert natural_project(a, keep) == per_event_project(a, keep)
        for other in (b, renamed(a, {q: "r" + q for q in a.states}), per_event_compose(a, a)):
            verdict = is_bisimilar(a, other)
            _assert_same_bisim(a, other, verdict, per_event_bisim(a, other))
            seen["bisimilar"] += bool(verdict)
        # on every other case, a tuple operand is walked as its composition
        # is, names included, nondeterministic members too
        ab = parallel_compose(a, b)
        others = (a, b, renamed(ab, {q: "r" + q for q in ab.states})) if i % 2 else ()
        for other in others:
            verdict = is_bisimilar((a, b), other)
            assert verdict == is_bisimilar(ab, other)
            assert is_bisimilar(other, (a, b)) == is_bisimilar(other, ab)
            seen["tuple bisimilar" if verdict else "tuple not bisimilar"] += 1
            seen["tuple nondeterministic"] += not (a.deterministic and b.deterministic)

        spec = Automaton.build(
            a.states, a.initial, a.alphabet,
            [t for t in transitions(a) if rng.random() < 0.7], a.states,
        )
        # the spec usually has states it no longer reaches
        for x in (a, spec):
            trimmed = accessible(x)
            assert trimmed == per_event_accessible(x)
            seen["trimmed"] += trimmed is not x
        # operands over one shared alphabet: the product keeps a's tuple
        for other in (spec, renamed(a, {q: "r" + q for q in a.states})):
            product = parallel_compose(a, other)
            assert product == per_event_compose(a, other)
            assert product.alphabet is a.alphabet

        e_uc = {e.id for e in a.alphabet if not e.controllable}
        report = check_controllability(spec, a)
        assert report == per_event_controllability(spec, a, e_uc)
        seen["uncontrollable"] += not report

        if a.deterministic:
            (e1, e2) = (_random_shared_cover if i % 2 else _random_cover)(rng, a)
            report = check_decomposability(a, e1, e2)
            want = per_event_decomposability(a, e1, e2)
            assert report._replace(bisim=want.bisim) == want
            # the witnesses are made when read, and that does not show:
            # the verdict reads none, they read alike in another order
            # (each read lets go of what only its condition read: once
            # dc4 is read, both subset constructions are gone), and a
            # report shown before any read equals the oracle's
            constructions.clear()
            late = check_decomposability(a, e1, e2)
            assert bool(late) == bool(want) and _made_witnesses(late) == []
            witnesses = ("dc4_witness", "dc2_witness", "dc1_witness")
            assert [getattr(late, w) for w in witnesses] == [getattr(want, w) for w in witnesses]
            assert [made() for made in constructions] == [None, None]
            assert list(late._pending) == ["dc3_witness"]
            assert late.dc3_witness == want.dc3_witness
            assert late._pending == {}
            shown = check_decomposability(a, e1, e2)
            assert repr(shown) == repr(report)
            assert shown._replace(bisim=want.bisim) == want
            assert hash(shown) == hash(late) == hash(report)
            _assert_same_bisim(
                accessible(a), parallel_compose(report.local1, report.local2),
                report.bisim, want.bisim,
            )
            for dc in ("dc1", "dc2", "dc3", "dc4"):
                witness = getattr(report, dc + "_witness")
                seen[dc] += witness is not None
                seen["twin witness"] += twins(witness)

    # every event of a generic automaton is its own class, and projections
    # onto two overlapping alphabets compose to hundreds of states
    for seed in range(4):
        for n in (18, 20):
            g = generic_automaton(random.Random(seed), n)
            (p1, p2) = (natural_project(g, GENERIC_E1), natural_project(g, GENERIC_E2))
            product = parallel_compose(p1, p2)
            assert product == per_event_compose(p1, p2)
            seen["large product"] += len(product.states) >= 200
    assert all(seen.values()) and seen["large product"] == 8, seen


def test_each_conditions_inputs_go_once_its_witness_is_read(monkeypatch):
    # build-models reads dc1, dc2 and dc4: only dc3's call is then left,
    # and neither subset construction outlives dc4's read
    constructions = _spy_on_subset_constructions(monkeypatch)
    report = build_models.__wrapped__(PolarPartition(50.0, 9, 13)).decomposition
    assert len(constructions) == 2
    for witness in ("dc1_witness", "dc2_witness", "dc4_witness"):
        assert getattr(report, witness) is None
    gc.collect()
    assert [made() for made in constructions] == [None, None]
    assert list(report._pending) == ["dc3_witness"]
    assert report.dc3_witness is None and report._pending == {}


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


def _locals(ap1, ap2, ac):
    """The controller's projections onto its events shared with each plant."""
    return decompose(ac, ac.event_ids & ap1.event_ids, ac.event_ids & ap2.event_ids)


def test_neutral_controller_satisfies_joint_plant():
    (ap1, ap2) = team_plants()
    ac = make_auto([("c0", "go", "c0")], initial="c0", controllable={"go"})
    spec = parallel_compose(ap1, ap2)
    assert verify_decentralized(ap1, ap2, *_locals(ap1, ap2, ac), spec)


def test_verify_decentralized_returns_the_bisimulation_of_the_team():
    (ap1, ap2) = team_plants()
    ac = make_auto([("c0", "go", "c1")], initial="c0", controllable={"go"})
    (local1, local2) = _locals(ap1, ap2, ac)
    spec = parallel_compose(ac, parallel_compose(ap1, ap2))
    verdict = verify_decentralized(ap1, ap2, local1, local2, spec)
    team = parallel_compose(parallel_compose(ap1, local1), parallel_compose(ap2, local2))
    assert verdict == is_bisimilar(team, spec)
    assert check_bisim_relation(team, spec, verdict.relation)


def test_restrictive_controller_with_matching_spec():
    (ap1, ap2) = team_plants()
    ac = make_auto([("c0", "go", "c1")], initial="c0", controllable={"go"})
    spec = parallel_compose(ac, parallel_compose(ap1, ap2))
    assert verify_decentralized(ap1, ap2, *_locals(ap1, ap2, ac), spec)


def test_wrong_spec_detected():
    (ap1, ap2) = team_plants()
    ac = make_auto([("c0", "go", "c1")], initial="c0", controllable={"go"})
    wrong = parallel_compose(ap1, ap2)  # allows repeated go
    assert not verify_decentralized(ap1, ap2, *_locals(ap1, ap2, ac), wrong)


def test_unmarked_spec_detected():
    (ap1, ap2) = team_plants()
    ac = make_auto([("c0", "go", "c0")], initial="c0", controllable={"go"})
    joint = parallel_compose(ap1, ap2)
    unmarked = joint.__class__.build(
        joint.states, joint.initial, joint.alphabet, transitions(joint), set()
    )
    assert not verify_decentralized(ap1, ap2, *_locals(ap1, ap2, ac), unmarked)


def test_verify_decentralized_on_built_models():
    models = build_models(PolarPartition(40.0, 3, 3))
    joint = parallel_compose(models.plant1, models.plant2)
    spec = parallel_compose(models.collision, joint)
    (local1, local2) = _locals(models.plant1, models.plant2, models.collision)
    assert (local1, local2) == (models.local(1), models.local(2))
    assert verify_decentralized(models.plant1, models.plant2, local1, local2, spec)


def test_controller_event_in_neither_plant_raises():
    (ap1, ap2) = team_plants()
    ac = make_auto([("c0", "go", "c0"), ("c0", "z", "c0")],
                   initial="c0", controllable={"go", "z"})
    with pytest.raises(CoverageError, match="'z'"):
        verify_decentralized(ap1, ap2, *_locals(ap1, ap2, ac), parallel_compose(ap1, ap2))


def test_undecomposable_controller_fails_verification():
    # each agent may take its private command, the controller only one
    (ap1, ap2) = team_plants()
    ac = make_auto([("c0", "a", "c1"), ("c0", "b", "c2"), ("c0", "go", "c0")],
                   initial="c0", controllable={"a", "b", "go"})
    assert not check_decomposability(ac, {"a", "go"}, {"b", "go"})
    spec = parallel_compose(ac, parallel_compose(ap1, ap2))
    verdict = verify_decentralized(ap1, ap2, *_locals(ap1, ap2, ac), spec)
    assert not verdict and verdict.relation is None


# the plant events of two agents that share ``go``
TEAM_EVENTS = (
    (Event("a1", True), Event("go", True), Event("u1", False)),
    (Event("a2", True), Event("go", True), Event("u2", False)),
)


def _random_over(rng, events, deterministic):
    (states, initial, letters, trans, marked) = random_automaton_parts(
        rng, max_states=3, max_events=len(events), min_events=len(events),
        deterministic=deterministic,
    )
    ids = {letter.id: ev.id for (letter, ev) in zip(letters, events)}
    return Automaton.build(
        states, initial, events, [(q, ids[ev], d) for (q, ev, d) in trans], marked
    )


def test_verify_decentralized_walks_the_team_as_composing_it_decides(monkeypatch):
    # the oracle composes the team and bisimulates it; the result, relation
    # included, must be the same, and no team is ever composed
    composed = []

    def counted(a1, a2):
        composed.append(1)
        return parallel_compose(a1, a2)

    for module in (supervision, automata):
        monkeypatch.setattr(module, "parallel_compose", counted)
    rng = random.Random(4242)
    every = tuple(sorted(set(TEAM_EVENTS[0] + TEAM_EVENTS[1])))
    seen = dict.fromkeys(("deterministic", "nondeterministic", "equivalent", "different"), 0)
    for i in range(500):
        deterministic = i % 4 != 0
        (ap1, ap2) = (_random_over(rng, evs, deterministic) for evs in TEAM_EVENTS)
        ac = _random_over(rng, every, rng.random() < 0.8)
        (local1, local2) = _locals(ap1, ap2, ac)
        team = parallel_compose(parallel_compose(ap1, local1), parallel_compose(ap2, local2))
        central = parallel_compose(ac, parallel_compose(ap1, ap2))
        for spec in (central, unfolded(rng, team), _random_over(rng, every, deterministic)):
            del composed[:]
            verdict = verify_decentralized(ap1, ap2, local1, local2, spec)
            assert verdict == is_bisimilar(team, spec)
            assert not composed
            inputs = (ap1, local1, ap2, local2, accessible(spec))
            all_deterministic = all(a.deterministic for a in inputs)
            seen["deterministic" if all_deterministic else "nondeterministic"] += 1
            seen["equivalent" if verdict else "different"] += 1
    assert min(seen.values()) > 100, seen


def test_controllability_of_a_product_plant_matches_the_composed_plant():
    # a product plant is walked, never composed: on deterministic inputs the
    # report equals the composed plant's; a nondeterministic plant may reach
    # its first failing node by another string, of the same length, that
    # still replays
    rng = random.Random(1917)
    every = tuple(sorted(set(TEAM_EVENTS[0] + TEAM_EVENTS[1])))
    seen = dict.fromkeys(("equal", "replayed", "controllable", "uncontrollable"), 0)
    for i in range(1200):
        (p1, p2) = (_random_over(rng, evs, i % 2 == 0) for evs in TEAM_EVENTS)
        spec = _random_over(rng, every, True)
        plant = parallel_compose(p1, p2)
        report = check_controllability(spec, (p1, p2))
        want = check_controllability(spec, plant)
        seen["controllable" if report else "uncontrollable"] += 1
        if p1.deterministic and p2.deterministic:
            assert report == want
            seen["equal"] += 1
            continue
        assert bool(report) == bool(want)
        if not report:
            (s, ev) = report
            assert len(s) == len(want.witness_string)
            assert spec.generates(s) and not spec.generates(s + (ev,))
            assert plant.generates(s + (ev,))
            seen["replayed"] += 1
    assert min(seen.values()) > 100, seen


# -- nonblocking -------------------------------------------------------------


def test_nonblocking_simple_cases():
    good = make_auto([("q0", "a", "q1"), ("q1", "b", "q0")], marked={"q0"})
    assert is_nonblocking(good)
    bad = make_auto([("q0", "a", "q1")], marked={"q0"})
    assert not is_nonblocking(bad)


def test_nonblocking_of_several_automata_matches_the_composed_loop():
    rng = random.Random(2718)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        # supervisors mark every state, as closed_loop requires
        (s1, s2, a) = (
            random_automaton(rng, max_states=4, max_events=rng.randint(1, 4), all_marked=k < 2)
            for k in range(3)
        )
        verdict = is_nonblocking(s1, s2, a)
        loop = modular_supervisor(s1, s2, a)
        assert loop == parallel_compose(parallel_compose(s1, s2), a)
        assert verdict == is_nonblocking(loop)
        # nested tuples stand for the same loop
        assert verdict == is_nonblocking((s1, s2), a) == is_nonblocking(s1, (s2, a))
        assert verdict == is_nonblocking(((s1,), (s2, (a,))))
        assert verdict == per_event_nonblocking(per_event_compose(per_event_compose(s1, s2), a))
        assert is_nonblocking(s1, a) == per_event_nonblocking(per_event_compose(s1, a))
        assert is_nonblocking(a) == per_event_nonblocking(a)
        outcomes[verdict] += 1
    assert min(outcomes.values()) > 100, outcomes
    # generic triples: nearly every event its own class
    for _ in range(300):
        (s1, s2, a) = (generic_automaton(rng, rng.randint(1, 5)) for _ in range(3))
        loop = modular_supervisor(s1, s2, a)
        assert loop == parallel_compose(parallel_compose(s1, s2), a)
        assert is_nonblocking(s1, s2, a) == is_nonblocking(loop)


def test_nonblocking_of_several_automata_checks_their_alphabets():
    a = make_auto([("q0", "x", "q0")], controllable={"x"})
    b = make_auto([("q0", "x", "q0")])
    with pytest.raises(AlphabetConflict, match="'x'"):
        is_nonblocking(a, b)
    with pytest.raises(AlphabetConflict, match="'x'"):
        is_nonblocking((a, (b,)))
    with pytest.raises(AlphabetConflict, match="'x'"):
        check_controllability(a, (a, b))


@pytest.mark.parametrize("n_r,n_theta", [(6, 9), (12, 18), (24, 36)])
def test_class_algebra_matches_per_event_oracles_on_the_models(n_r, n_theta):
    # the models share one universe of up to 1,628 events, so their masks
    # span many machine words; the per-event oracles read them one event
    # at a time
    m = build_models.__wrapped__(PolarPartition(50.0, n_r, n_theta))
    (p1, p2, f1, f2) = (m.plant1, m.plant2, m.formation1, m.formation2)
    (l1, l2) = (m.local(1), m.local(2))
    for (x, y) in ((p1, f1), (f2, p2), (l1, l2)):
        assert parallel_compose(x, y) == per_event_compose(x, y)
    for k in (1, 2):
        keep = m.alphabet(k).all_ids
        assert natural_project(m.collision, keep) == per_event_project(m.collision, keep)
        assert natural_project(m.formation(k), m.alphabet(k).detection_ids) == per_event_project(
            m.formation(k), m.alphabet(k).detection_ids
        )
    team = parallel_compose(l1, l2)
    for (x, y) in ((m.collision, team), (p1, p1), (f1, m.collision), (l1, f1)):
        assert is_bisimilar(x, y) == per_event_bisim(x, y)
    joint = parallel_compose(p1, p2)
    for (spec, plant) in ((f1, p1), (f2, p2), (m.collision, joint), (l1, p1), (p1, f1)):
        e_uc = {e.id for e in plant.alphabet if not e.controllable}
        assert check_controllability(spec, plant) == per_event_controllability(spec, plant, e_uc)


def test_algebra_takes_automata_over_two_universes():
    # a plant read back from its .aut text has a universe of its own
    # events; the models share one of both agents' events
    m = build_models(PolarPartition(50.0, 6, 9))
    (plant, formation) = (m.plant1, m.formation1)
    read = exchange.loads(exchange.dumps(plant))
    assert read == plant
    assert read._sigma.universe is not plant._sigma.universe
    assert parallel_compose(read, formation) == parallel_compose(plant, formation)
    assert parallel_compose(formation, read) == parallel_compose(formation, plant)
    loop = parallel_compose(plant, formation)
    for (x, y) in ((read, plant), (read, formation), ((read, formation), loop)):
        original = tuple(plant if a is read else a for a in x) if isinstance(x, tuple) else plant
        assert is_bisimilar(x, y) == is_bisimilar(original, y)
        assert is_bisimilar(y, x) == is_bisimilar(y, original)
    assert is_bisimilar(read, plant).relation == frozenset((q, q) for q in plant.states)
