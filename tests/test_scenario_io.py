import math

import pytest

from polaris.errors import ParseError, ValidationError
from polaris.polar import PolarPartition
from polaris.scenario import (
    _READERS,
    FollowerConfig,
    ScenarioConfig,
    loads_scenario,
    parse_scenario,
    schedule_at,
)

BUNDLED = "src/polaris/data/paper_phase12.cfg"


def test_bundled_scenario_parses_with_mission_values():
    cfg = parse_scenario(BUNDLED)
    assert cfg.partition.r_max == 50.0
    assert (cfg.partition.n_r, cfg.partition.n_theta) == (21, 9)
    assert cfg.dt == 0.02
    assert cfg.t_end == 150.0
    assert cfg.followers[0].initial_position == (-29.9, 9.1)
    assert cfg.followers[0].offsets == ((0.0, 12.0, 10.0), (50.0, -30.0, -10.0))
    assert cfg.followers[1].initial_position == (-29.5, -9.5)
    assert cfg.followers[1].offsets == ((0.0, -12.0, -10.0), (50.0, 0.0, 10.0))
    assert cfg.front_half_angle == pytest.approx(math.radians(60))
    assert cfg.switch_times() == (50.0,)
    # initial positions embed the documented displacements from the offsets
    for follower, want in zip(cfg.followers, [(-41.9, -0.9), (-17.5, 0.5)]):
        (ox, oy) = follower.offsets[0][1:]
        (px, py) = follower.initial_position
        assert (px - ox, py - oy) == pytest.approx(want)


def test_defaults_applied():
    cfg = loads_scenario("sim.dt = 0.05\n")
    assert cfg.dt == 0.05
    assert cfg.partition.n_r == 6
    assert cfg.alarm_radius == 8.0
    assert cfg.release_radius == 12.0


# one line per key, each value unlike every default
ONE_KEY_CASES = [
    ("sim.dt = 0.05", {"dt": 0.05}),
    ("partition.n_r = 4", {"partition": PolarPartition(50.0, 4, 9)}),
    ("avoid.front_half_angle_deg = 45", {"front_half_angle": math.radians(45.0)}),
    ("leader.velocity = 0:1,2", {"leader_velocity": ((0.0, 1.0, 2.0),)}),
    (
        "follower2.initial_position = 3,4",
        {"followers": (FollowerConfig(), FollowerConfig(initial_position=(3.0, 4.0)))},
    ),
    ("partition.r_max = 40", {"partition": PolarPartition(40.0, 6, 9)}),
    ("partition.n_theta = 5", {"partition": PolarPartition(50.0, 6, 5)}),
    ("sim.t_end = 20", {"t_end": 20.0}),
    ("sim.u_max = 3", {"u_max": 3.0}),
    ("sim.speed = 1.5", {"speed": 1.5}),
    ("sim.kappa = 0.25", {"kappa": 0.25}),
    ("avoid.alarm_radius = 9", {"alarm_radius": 9.0}),
    ("avoid.release_radius = 15", {"release_radius": 15.0}),
    (
        "follower1.initial_position = 5,6",
        {"followers": (FollowerConfig(initial_position=(5.0, 6.0)), FollowerConfig())},
    ),
    (
        "follower1.offsets = 0:1,2 10:3,4",
        {"followers": (FollowerConfig(offsets=((0.0, 1.0, 2.0), (10.0, 3.0, 4.0))),
                       FollowerConfig())},
    ),
    (
        "follower2.offsets = 0:-1,-2",
        {"followers": (FollowerConfig(), FollowerConfig(offsets=((0.0, -1.0, -2.0),)))},
    ),
]


def test_one_key_cases_cover_every_key():
    assert {line.split(" =")[0] for (line, _) in ONE_KEY_CASES} == set(_READERS)


@pytest.mark.parametrize(("line", "changed"), ONE_KEY_CASES)
def test_one_key_scenario_keeps_every_other_default(line, changed):
    assert loads_scenario(line + "\n") == ScenarioConfig()._replace(**changed)


def test_empty_file_is_parse_error():
    with pytest.raises(ParseError):
        loads_scenario("")
    with pytest.raises(ParseError):
        loads_scenario("# only a comment\n")


def test_unknown_key_rejected():
    with pytest.raises(ValidationError, match="unknown key"):
        loads_scenario("sim.dtt = 0.02\n")


def test_hysteresis_invariant():
    with pytest.raises(ValidationError, match="hysteresis"):
        loads_scenario("avoid.alarm_radius = 10\navoid.release_radius = 9\n")


def test_duplicate_key_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        loads_scenario("sim.dt = 0.02\nsim.dt = 0.01\n")


def test_bad_tuple_and_schedule():
    with pytest.raises(ParseError):
        loads_scenario("follower1.initial_position = 1\n")
    with pytest.raises(ParseError):
        loads_scenario("follower1.offsets = 0;1,2\n")
    with pytest.raises(ValidationError, match="strictly increasing"):
        loads_scenario("follower1.offsets = 0:1,2 0:3,4\n")
    with pytest.raises(ValidationError, match="start at time 0"):
        loads_scenario("follower1.offsets = 5:1,2\n")
    with pytest.raises(ParseError, match="bad number"):
        loads_scenario("follower1.initial_position = 1,x\n")
    with pytest.raises(ParseError, match="bad time"):
        loads_scenario("leader.velocity = x:1,2\n")
    with pytest.raises(ParseError, match="must not be empty"):
        loads_scenario("leader.velocity =\n")
    with pytest.raises(ValidationError, match="at least one entry"):
        ScenarioConfig()._replace(leader_velocity=()).validate()
    with pytest.raises(ValidationError, match="exactly two followers"):
        ScenarioConfig()._replace(followers=(FollowerConfig(),)).validate()
    with pytest.raises(ValidationError, match="^partition.n_theta "):
        ScenarioConfig()._replace(partition=PolarPartition(50.0, 6, 2)).validate()


def test_schedule_lookup():
    sched = ((0.0, 1.0, 2.0), (10.0, 3.0, 4.0))
    assert schedule_at(sched, 0.0) == (1.0, 2.0)
    assert schedule_at(sched, 9.99) == (1.0, 2.0)
    assert schedule_at(sched, 10.0) == (3.0, 4.0)
    assert schedule_at(sched, 1e9) == (3.0, 4.0)


def test_partition_validation_wrapped():
    with pytest.raises(ValidationError):
        loads_scenario("partition.n_r = 1\n")


def test_dt_must_be_positive():
    with pytest.raises(ValidationError):
        loads_scenario("sim.dt = 0\n")


@pytest.mark.parametrize(
    "line",
    [
        "sim.dt = nan",
        "sim.t_end = inf",
        "sim.u_max = inf",
        "sim.speed = inf",
        "sim.kappa = nan",
        "avoid.alarm_radius = nan",
        "avoid.release_radius = inf",
        "avoid.front_half_angle_deg = nan",
        "partition.r_max = inf",
        "partition.r_max = nan",
        "leader.velocity = 0:inf,0",
        "follower1.initial_position = nan,1",
        "follower2.offsets = 0:1,2 inf:3,4",
    ],
)
def test_non_finite_values_rejected(line):
    with pytest.raises(ValidationError, match="finite"):
        loads_scenario(line + "\n")


@pytest.mark.parametrize(
    ("line", "error", "fragment"),
    [
        ("sim.t_end = -1", ValidationError, "sim.t_end must be nonnegative"),
        ("sim.speed = 0", ValidationError, "sim.speed must be positive"),
        ("sim.u_max = -1", ValidationError, "sim.u_max must be nonnegative"),
        ("sim.kappa = 2", ValidationError, "sim.kappa must be in (0, 1]"),
        ("avoid.alarm_radius = 0", ValidationError, "avoid.alarm_radius must be positive"),
        ("avoid.front_half_angle_deg = 0", ValidationError, "must be in (0, 180]"),
        ("sim.dt 0.02", ParseError, "expected 'key = value'"),
        ("sim.dt = abc", ParseError, "sim.dt: bad number 'abc'"),
        ("partition.n_r = 2.5", ParseError, "partition.n_r: bad integer '2.5'"),
        # of two faulty keys, the partition's is reported
        ("follower1.initial_position = 1\npartition.n_r = 1", ValidationError,
         "line 2: partition.n_r must be an integer of at least 2"),
        # the sector rule is validate's first check, ahead of sim.dt's
        ("sim.dt = 0\npartition.n_theta = 2", ValidationError, "line 2: partition.n_theta"),
    ],
)
def test_out_of_range_or_malformed_values_rejected(line, error, fragment):
    with pytest.raises(error) as err:
        loads_scenario(line + "\n")
    assert fragment in str(err.value)


@pytest.mark.parametrize("t_end, dt", [("20", "5e-324"), ("1e308", "1e-10")])
def test_step_count_that_overflows_rejected(t_end, dt):
    # both settings are finite, but t_end / dt is not
    with pytest.raises(ValidationError, match=r"sim\.t_end / sim\.dt must be finite"):
        loads_scenario(f"sim.t_end = {t_end}\nsim.dt = {dt}\n")
