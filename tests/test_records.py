"""The toolkit's records: immutable, equal and hashed by value, ordered by
field order where they are ordered, and shown as ``Name(field=value, ...)``;
and the annotations of every function the toolkit defines resolve."""

import importlib
import inspect
import math
import pkgutil
import typing

import pytest

from polaris.automata import Automaton, BisimResult, Event
from polaris.models import AgentAlphabet, FormationModels
from polaris.polar import Mode, PolarPartition, RegionIndex, ValidationResult, VertexControls
from polaris.scenario import FollowerConfig, ScenarioConfig
from polaris.sim import CSV_HEADER, AgentDiscrete, Episode, EventRecord, ScenarioResult, WorldState
from polaris.supervision import ControllabilityReport, DecomposabilityReport

EVENT = "Event(id='a', controllable=True, owners=frozenset({1}))"
AUTOMATON = (
    f"Automaton(states=frozenset({{'q'}}), initial='q', alphabet=({EVENT},), "
    "marked=frozenset({'q'}))"
)
BISIM = "BisimResult(relation=frozenset({('q', 'q')}))"
PARTITION = "PolarPartition(r_max=50.0, n_r=3, n_theta=3)"
FOLLOWER = "FollowerConfig(initial_position=(0.0, 0.0), offsets=((0.0, 0.0, 0.0),))"
DC_PASS = "dc1_witness=None, dc2_witness=None, dc3_witness=None, dc4_witness=None"


def automaton():
    return Automaton.build(["q"], "q", [Event("a", True, [1])], [("q", "a", "q")], ["q"])


def bisim():
    return BisimResult(frozenset({("q", "q")}))


def partition():
    return PolarPartition(50.0, 3, 3)


def world():
    return WorldState(0, 0.0, (0.0, 0.0), ((3.0, 4.0), (0.0, 0.0)), ((1.0, 1.0),) * 2, ())


# (factory, repr) for one instance of each immutable record; a factory
# builds a new, equal instance on every call
RECORDS = [
    (lambda: Event("a", True, [1]), EVENT),
    (automaton, AUTOMATON),
    (bisim, BISIM),
    (partition, PARTITION),
    (lambda: RegionIndex(2, 1), "RegionIndex(i=2, j=1)"),
    (
        lambda: VertexControls(Mode.INVARIANT, ((1.0, 0.0),) * 4),
        "VertexControls(mode=<Mode.INVARIANT: 'invariant'>, "
        "u=((1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0)))",
    ),
    (
        lambda: ValidationResult(("r+ (vertex v1)",)),
        "ValidationResult(violations=('r+ (vertex v1)',))",
    ),
    (
        lambda: AgentAlphabet(1, ("Cr+1",), "C0_1", (), (), (), (), (), (), ()),
        "AgentAlphabet(k=1, commands=('Cr+1',), hold='C0_1', modes=(), "
        "detection_ids=(), first_circle=(), outer_detections=(), actuation_ids=(), "
        "controllable_ids=(), all_ids=())",
    ),
    (
        lambda: FormationModels(
            partition(), None, None, *[automaton()] * 5, DecomposabilityReport(bisim())
        ),
        f"FormationModels(partition={PARTITION}, alphabet1=None, alphabet2=None, "
        f"plant1={AUTOMATON}, plant2={AUTOMATON}, formation1={AUTOMATON}, "
        f"formation2={AUTOMATON}, collision={AUTOMATON}, "
        f"decomposition=DecomposabilityReport(bisim={BISIM}, {DC_PASS}, local1=None, "
        "local2=None))",
    ),
    (FollowerConfig, FOLLOWER),
    (
        ScenarioConfig,
        "ScenarioConfig(partition=PolarPartition(r_max=50.0, n_r=6, n_theta=9), dt=0.02, "
        "t_end=150.0, u_max=5.0, speed=2.0, kappa=0.5, alarm_radius=8.0, "
        "release_radius=12.0, front_half_angle=1.0471975511965976, "
        f"leader_velocity=((0.0, 0.0, 0.0),), followers=({FOLLOWER}, {FOLLOWER}))",
    ),
    (
        lambda: EventRecord(1.5, "1", "Cr+1"),
        "EventRecord(t=1.5, agent='1', event='Cr+1', detail='')",
    ),
    (
        lambda: AgentDiscrete("R1", "F1", "L1", RegionIndex(2, 1)),
        "AgentDiscrete(plant='R1', formation='F1', local='L1', region=RegionIndex(i=2, j=1), "
        "command=None, stopped=False)",
    ),
    (lambda: Episode(1), "Episode(avoider=1, cleared=False)"),
    (
        world,
        "WorldState(step_index=0, t=0.0, leader_pos=(0.0, 0.0), "
        "follower_pos=((3.0, 4.0), (0.0, 0.0)), offsets=((1.0, 1.0), (1.0, 1.0)), "
        "discrete=(), episode=None)",
    ),
    (
        lambda: ControllabilityReport(("a",), "b"),
        "ControllabilityReport(witness_string=('a',), witness_event='b')",
    ),
    (
        lambda: DecomposabilityReport(bisim(), local1=automaton(), local2=automaton()),
        f"DecomposabilityReport(bisim={BISIM}, {DC_PASS}, local1={AUTOMATON}, "
        f"local2={AUTOMATON})",
    ),
]

IDS = [text.split("(", 1)[0] for (_, text) in RECORDS]


@pytest.mark.parametrize(("make", "text"), RECORDS, ids=IDS)
def test_record_repr_is_pinned(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize(("make", "text"), RECORDS, ids=IDS)
def test_equal_records_hash_equal(make, text):
    (a, b) = (make(), make())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize(("make", "text"), RECORDS, ids=IDS)
def test_record_fields_cannot_be_assigned(make, text):
    record = make()
    names = getattr(record, "_fields", None) or Automaton.__slots__
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, names[0])


def test_sorting_follows_field_order():
    regions = [RegionIndex(2, 1), RegionIndex(1, 3), RegionIndex(1, 2)]
    assert sorted(regions) == [RegionIndex(1, 2), RegionIndex(1, 3), RegionIndex(2, 1)]
    events = [Event("b", False), Event("a", True), Event("a", False), Event("a", False, {1})]
    assert sorted(events) == [
        Event("a", False), Event("a", False, {1}), Event("a", True), Event("b", False)
    ]


def test_records_of_one_class_differ_by_any_compared_field():
    assert RegionIndex(1, 2) != RegionIndex(2, 1)
    assert Event("a", True, {1}) != Event("a", True, {2})
    assert partition() != PolarPartition(50.0, 3, 4)
    other = Automaton.build(["q"], "q", [Event("a", True, [1])], [], ["q"])
    assert automaton() != other


def test_projections_take_part_in_report_equality():
    bare = DecomposabilityReport(bisim())
    full = bare._replace(local1=automaton(), local2=automaton())
    assert bare != full and repr(bare) != repr(full)
    assert full == full._replace(local1=automaton())
    other = Automaton.build(["q"], "q", [Event("a", True, [1])], [], ["q"])
    assert full != full._replace(local2=other)
    assert bare != bare._replace(dc2_witness=("q", "a", "b"))


def test_verdict_records_hold_only_their_evidence():
    # no stored bool: each verdict is the truth of its record, read from
    # the witness or relation that decides it
    verdicts = (BisimResult, ControllabilityReport, DecomposabilityReport, ValidationResult)
    fields = [
        (name, record.__annotations__[name]) for record in verdicts for name in record._fields
    ]
    assert len(fields) == 11
    assert not [name for (name, kind) in fields if kind in (bool, "bool")]
    assert not BisimResult(None) and BisimResult(frozenset())
    assert ControllabilityReport() and not ControllabilityReport((), "u")
    assert ValidationResult(()) and not ValidationResult(("r+ (absent)",))
    assert not DecomposabilityReport(BisimResult(None))
    # a failing condition explains a verdict; it does not decide it
    assert DecomposabilityReport(bisim(), dc4_witness=("q", "a", "q", "r"))


def test_removed_wrappers_are_not_exported():
    # a report is a verdict, a bisimulation relation a frozenset of pairs
    import polaris

    for name in ("NotDecomposable", "DecentralizedVerdict", "BisimRelation"):
        assert not hasattr(polaris, name)


def test_every_annotation_resolves():
    # get_type_hints evaluates each annotation in its function's module, so
    # an annotation naming what the module never imports raises NameError
    import polaris

    checked = []
    for info in pkgutil.iter_modules(polaris.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        module = importlib.import_module(f"polaris.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for f in vars(obj).values() if inspect.isclass(obj) else (obj,):
                f = getattr(f, "__func__", getattr(f, "fget", f))
                if callable(f):
                    f = inspect.unwrap(f)
                # a record's generated __new__ belongs to no module of ours
                if inspect.isfunction(f) and f.__module__ == module.__name__:
                    typing.get_type_hints(f)
                    checked.append(f"{module.__name__}.{f.__qualname__}")
    assert {"polaris.automata._walked", "polaris.automata.Automaton.build"} <= set(checked)


def test_constructors_normalize_and_validate_through_replace():
    event = Event("a", True, [1])
    assert event.owners == frozenset({1})
    assert event._replace(owners={1, 2}).owners == frozenset({1, 2})
    with pytest.raises(ValueError, match="n_r must be an integer of at least 2"):
        partition()._replace(n_r=1)
    with pytest.raises(ValueError, match="r_max must be positive and finite"):
        PolarPartition(math.nan, 3, 3)


def test_world_state_derives_relative_positions_and_separation():
    start = world()
    assert start.relative == ((2.0, 3.0), (-1.0, -1.0))
    assert start.separation == 5.0
    moved = start._replace(follower_pos=((0.0, 0.0), (0.0, 0.0)))
    assert moved.relative == ((-1.0, -1.0), (-1.0, -1.0))
    assert moved.separation == 0.0


def test_scenario_result_is_a_mutable_unhashable_record():
    result = ScenarioResult(rows=["r"], verdicts={"flags": "none"})
    assert repr(result) == (
        "ScenarioResult(rows=('r',), records=[], verdicts={'flags': 'none'}, controllers='')"
    )
    assert result.csv == CSV_HEADER + "\nr\n"
    assert result.csv_text() is result.csv
    assert result == ScenarioResult(rows=("r",), verdicts={"flags": "none"})
    assert ScenarioResult().rows == ()
    assert ScenarioResult().records is not ScenarioResult().records
    # the rows are a view of the text: appending to them fails loudly
    with pytest.raises(AttributeError):
        result.rows.append("s")
    with pytest.raises(AttributeError):
        result.rows = ["s"]
    result.controllers = "text"
    assert result != ScenarioResult(rows=["r"], verdicts={"flags": "none"})
    with pytest.raises(TypeError):
        hash(result)
