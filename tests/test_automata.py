import random

import pytest

from conftest import (
    brute_language,
    check_bisim_relation,
    make_auto,
    project_by_merging,
    random_automaton,
    random_automaton_parts,
)

from polaris import exchange
from polaris.automata import (
    Automaton,
    Event,
    accessible,
    is_bisimilar,
    marked_language_upto,
    natural_project,
    parallel_compose,
)
from polaris.errors import AlphabetConflict, BoundTooLarge


def test_build_validates_endpoints():
    with pytest.raises(ValueError):
        Automaton.build(["q0"], "q0", [Event("a", True)], [("q0", "a", "nope")], [])
    with pytest.raises(ValueError):
        Automaton.build(["q0"], "missing", [Event("a", True)], [], [])
    with pytest.raises(ValueError):
        Automaton.build(["q0"], "q0", [Event("a", True)], [("q0", "b", "q0")], [])
    with pytest.raises(ValueError):
        Automaton.build(["q0"], "q0", [Event("a", True)], [], ["q0", "q1"])
    # a repeated event id is merged before the relation is checked, so the
    # alphabet never holds one id twice: equal controllability unites owners
    merged = Automaton.build(
        ["q0"], "q0", [Event("a", True, {1}), Event("a", True, {2})], [("q0", "a", "q0")], []
    )
    assert merged.alphabet == (Event("a", True, {1, 2}),)
    # ... and conflicting controllability is refused
    with pytest.raises(AlphabetConflict):
        Automaton.build(["q0"], "q0", [Event("a", True), Event("a", False)], [], [])


def test_index_round_trips_random_automata():
    rng = random.Random(7001)
    for i in range(600):
        states, initial, events, trans, marked = random_automaton_parts(
            rng, deterministic=i % 3 == 0
        )
        # repeat and shuffle the input: the index keeps each triple once
        triples = trans + rng.sample(trans, len(trans) // 2)
        rng.shuffle(triples)
        a = Automaton.build(states, initial, events, triples, marked)
        assert a.transitions == tuple(sorted(set(triples)))
        assert exchange.loads(exchange.dumps(a)) == a
        same = Automaton.build(reversed(states), initial, events, reversed(trans), marked)
        assert same == a and hash(same) == hash(a)
        if trans:
            assert Automaton.build(states, initial, events, trans[1:], marked) != a


def test_deterministic_flag():
    det = make_auto([("q0", "a", "q1")])
    assert det.deterministic
    nondet = make_auto([("q0", "a", "q1"), ("q0", "a", "q2")])
    assert not nondet.deterministic
    with pytest.raises(ValueError):
        nondet.step1("q0", "a")


def test_equal_target_sets_share_one_frozenset():
    a = make_auto([("q0", "a", "q1"), ("q0", "b", "q1"), ("q1", "a", "q1"),
                   ("q1", "b", "q0"), ("q1", "c", "q0")])
    assert a.step("q0", "a") == {"q1"}
    assert a.step("q0", "a") is a.step("q0", "b") is a.step("q1", "a")
    assert a.step("q1", "b") is a.step("q1", "c")
    # sets of two or more targets are shared too
    n = make_auto([("q0", "a", "q0"), ("q0", "a", "q1"), ("q1", "b", "q1"),
                   ("q1", "b", "q0"), ("q1", "c", "q1")])
    assert n.step("q0", "a") == {"q0", "q1"}
    assert n.step("q0", "a") is n.step("q1", "b")
    assert n.step("q1", "c") == {"q1"}


def test_classes_are_maximal_and_canonical():
    # a, b and z share relation, controllability and owners; y differs in
    # owners, c in controllability, x in one transition; w never moves
    trans = [("q0", ev, "q1") for ev in "abcxyz"] + [("q1", ev, "q0") for ev in "abcyz"]
    events = [Event(ev, ev != "c", {2} if ev == "y" else ()) for ev in "abcwxyz"]
    a = Automaton.build(["q0", "q1"], "q0", events, trans, ["q0"])
    assert a._members == (("a", "b", "z"), ("c",), ("w",), ("x",), ("y",))
    assert [a._class_of[ev] for ev in "abcwxyz"] == [0, 0, 1, 2, 3, 4, 0]
    assert a.enabled("q1") == ("a", "b", "c", "y", "z")
    # the same automaton reached through the algebra has the same index
    twin = a.renamed({"q0": "p0", "q1": "p1"})
    rebuilt = natural_project(parallel_compose(a, twin), a.event_ids)
    assert accessible(rebuilt).renamed({"{⟨q0,p0⟩}": "q0", "{⟨q1,p1⟩}": "q1"}) == a
    # rows list their classes in id order, which label-ordered scans rely on
    for auto in (a, twin, rebuilt):
        assert all(list(row) == sorted(row) for row in auto._succ.values())


def test_accessible_identity_for_single_state():
    a = make_auto([], initial="q0")
    assert accessible(a) is a


def test_accessible_trims_unreachable_chain():
    a = make_auto([("q0", "a", "q1"), ("q2", "a", "q1")], states=["q0", "q1", "q2"])
    trimmed = accessible(a)
    assert trimmed.states == frozenset({"q0", "q1"})
    assert len(trimmed.transitions) == 1
    assert marked_language_upto(trimmed, 3) == marked_language_upto(a, 3)


# -- parallel composition ---------------------------------------------------


def test_compose_with_self_is_bisimilar():
    a = make_auto([("q0", "a", "q1"), ("q1", "b", "q0"), ("q1", "c", "q1")],
                  marked={"q0"})
    assert is_bisimilar(parallel_compose(a, a), a)


def test_disjoint_shuffle_accepts_both_orders():
    a = make_auto([("p0", "a", "p1")], initial="p0", marked={"p1"})
    b = make_auto([("r0", "b", "r1")], initial="r0", marked={"r1"})
    shuffle = parallel_compose(a, b)
    assert len(shuffle.states) == 4
    assert set(marked_language_upto(shuffle, 3)) == {("a", "b"), ("b", "a")}


def test_shared_events_synchronize():
    a = make_auto([("p0", "s", "p1"), ("p0", "a", "p0")], initial="p0", marked={"p1"})
    b = make_auto([("r0", "s", "r1")], initial="r0", marked={"r1"})
    product = parallel_compose(a, b)
    assert product.accepts(["s"])
    assert product.accepts(["a", "s"])
    assert not product.generates(["s", "s"])


def test_compose_rejects_controllability_conflict():
    a = make_auto([("q0", "x", "q0")], controllable={"x"})
    b = make_auto([("q0", "x", "q0")])
    with pytest.raises(AlphabetConflict):
        parallel_compose(a, b)


def test_compose_commutative_associative_up_to_bisim(rng):
    for _ in range(15):
        a = random_automaton(rng, max_states=4, max_events=3)
        b = random_automaton(rng, max_states=3, max_events=3)
        c = random_automaton(rng, max_states=3, max_events=2)
        ab = parallel_compose(a, b)
        ba = parallel_compose(b, a)
        assert is_bisimilar(ab, ba)
        assert is_bisimilar(parallel_compose(ab, c), parallel_compose(a, parallel_compose(b, c)))


def test_disjoint_alphabet_product_bounds(rng):
    for _ in range(10):
        a = random_automaton(rng, max_states=4, max_events=2, all_marked=True)
        b = random_automaton(rng, max_states=3, max_events=2, all_marked=True)
        b = b.renamed({q: "B" + q for q in b.states})
        # disjoint alphabets: rename b's events
        b = Automaton.build(
            b.states,
            b.initial,
            [Event(e.id.upper(), e.controllable) for e in b.alphabet],
            [(s, e.upper(), t) for (s, e, t) in b.transitions],
            b.marked,
        )
        product = parallel_compose(a, b)
        assert len(product.states) <= len(a.states) * len(b.states)
        ids_a = a.event_ids
        restricted = {
            tuple(e for e in s if e in ids_a)
            for s in marked_language_upto(product, 6)
        }
        lang_a = set(marked_language_upto(a, 6))
        # every product string restricted to a's alphabet is a word of a
        assert restricted <= lang_a


# -- natural projection -----------------------------------------------------


def test_project_full_alphabet_is_identity_up_to_bisim():
    a = make_auto([("q0", "a", "q1"), ("q1", "b", "q0")], marked={"q0"})
    assert is_bisimilar(natural_project(a, a.event_ids), a)


def test_project_chain_merges_hidden_prefix():
    a = make_auto([("q0", "a", "q1"), ("q1", "b", "q2")], marked={"q2"})
    proj = natural_project(a, {"b"})
    assert proj.deterministic
    assert set(marked_language_upto(proj, 3)) == {("b",)}
    assert len([t for t in proj.transitions]) == 1


def test_project_marks_via_closure():
    a = make_auto([("q0", "h", "q1")], marked={"q1"})
    proj = natural_project(a, set())
    assert proj.accepts([])


def test_project_idempotent_and_deterministic(rng):
    for _ in range(15):
        a = random_automaton(rng, max_states=5, max_events=4)
        keep = {e.id for e in a.alphabet if rng.random() < 0.6}
        p1 = natural_project(a, keep)
        assert p1.deterministic
        p2 = natural_project(p1, keep)
        assert is_bisimilar(p1, p2)


def test_project_language_on_hidden_acyclic_example():
    a = make_auto(
        [("q0", "h", "q1"), ("q0", "a", "q2"), ("q1", "b", "q3"), ("q2", "b", "q0")],
        marked={"q0", "q3"},
    )
    proj = natural_project(a, {"a", "b"})
    want = {
        tuple(e for e in s if e != "h")
        for s in brute_language(a, 6)
    }
    got = {s for s in brute_language(proj, 6)}
    # hidden moves are acyclic here, so lengths only shrink
    assert got == want


def test_project_by_merging_matches_on_confluent_example():
    a = make_auto(
        [("q0", "a", "q1"), ("q1", "h", "q2"), ("q2", "c", "q2"), ("q1", "c", "q1")],
        marked={"q1", "q2"},
    )
    subset = natural_project(a, {"a", "c"})
    merged = project_by_merging(a, {"a", "c"})
    assert brute_language(subset, 5) == brute_language(merged, 5)


# -- bisimulation -----------------------------------------------------------


def test_bisim_reflexive_with_identity_relation(rng):
    a = make_auto([("q0", "a", "q1"), ("q1", "b", "q0")], marked={"q1"})
    res = is_bisimilar(a, a)
    assert res
    assert ("q0", "q0") in res.relation.pairs
    assert check_bisim_relation(a, a, res.relation)


def test_bisim_distinguishes_language_equal_pair():
    det = make_auto([("x0", "a", "x1"), ("x1", "b", "x2")], initial="x0", marked={"x2"})
    nondet = make_auto(
        [("y0", "a", "y1"), ("y0", "a", "y1d"), ("y1", "b", "y2")],
        initial="y0",
        marked={"y2"},
    )
    assert set(brute_language(det, 4)) == set(brute_language(nondet, 4))
    res = is_bisimilar(det, nondet)
    assert not res
    assert res.counterexample == ("x0", "y0")


def test_bisim_is_symmetric_and_transitive(rng):
    for _ in range(12):
        a = random_automaton(rng, max_states=4, max_events=3)
        renamed = a.renamed({q: "r_" + q for q in a.states})
        # duplicate a state reachable copy: still bisimilar
        dup_trans = list(a.transitions) + [
            ("dup", e, t) for (s, e, t) in a.transitions if s == a.initial
        ] + [(s, e, "dup") for (s, e, t) in a.transitions if t == a.initial]
        dup = Automaton.build(
            set(a.states) | {"dup"},
            a.initial,
            a.alphabet,
            dup_trans,
            set(a.marked) | ({"dup"} if a.initial in a.marked else set()),
        )
        assert is_bisimilar(a, renamed)
        assert is_bisimilar(renamed, a)
        assert is_bisimilar(renamed, dup)
        assert is_bisimilar(a, dup)


def test_bisim_respects_marking():
    a = make_auto([("q0", "a", "q1")], marked={"q1"})
    b = make_auto([("p0", "a", "p1")], initial="p0", marked=set())
    assert not is_bisimilar(a, b)


def test_bisimilar_implies_equal_bounded_languages(rng):
    for _ in range(10):
        a = random_automaton(rng, max_states=5, max_events=3)
        variant = a.renamed({q: q + "_v" for q in a.states})
        res = is_bisimilar(a, variant)
        assert res
        for n in range(7):
            assert marked_language_upto(a, n) == marked_language_upto(variant, n)


def test_bisim_relation_is_valid_on_randoms(rng):
    for _ in range(10):
        a = random_automaton(rng, max_states=4, max_events=3)
        b = random_automaton(rng, max_states=4, max_events=3)
        res = is_bisimilar(a, b)
        if res:
            assert check_bisim_relation(a, b, res.relation)


# -- bounded language enumeration -------------------------------------------


def test_language_empty_string_iff_initial_marked():
    marked = make_auto([], marked={"q0"})
    unmarked = make_auto([], marked=set())
    assert marked_language_upto(marked, 0) == [()]
    assert marked_language_upto(unmarked, 0) == []


def test_language_two_state_loop():
    a = make_auto([("q0", "a", "q1"), ("q1", "a", "q0")])
    assert marked_language_upto(a, 2) == [(), ("a",), ("a", "a")]


def test_language_nondeterministic_dedupes_strings():
    a = make_auto([("q0", "a", "q1"), ("q0", "a", "q2"), ("q1", "b", "q1")],
                  marked={"q1", "q2"})
    assert marked_language_upto(a, 2) == [("a",), ("a", "b")]


def test_language_matches_brute_force(rng):
    for _ in range(20):
        a = random_automaton(rng, max_states=5, max_events=3)
        assert set(marked_language_upto(a, 5)) == brute_language(a, 5)


def test_language_budget_error():
    a = make_auto([("q0", "a", "q0"), ("q0", "b", "q0")])
    with pytest.raises(BoundTooLarge):
        marked_language_upto(a, 20, max_nodes=100)
