import gc
import hashlib
import math
import random
import struct
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    CROSSING_CFG,
    csv_row_by_fstring,
    euler_step,
    one_state_supervisor,
    relative_velocity_of,
    run_scenario_reacting_every_step,
    run_scenario_under_the_global_supervisor,
    run_scenario_with_locals,
    scan_command_choice,
    uncontrollable_ids,
)

from polaris import kernels, polar, sim
from polaris.cli import main
from polaris.errors import HorizonViolation, OutOfHorizon, SupervisorBlocked, ValidationError
from polaris.models import COORDINATION_COMMANDS
from polaris.polar import TWO_PI, PolarPartition, RegionIndex, locate
from polaris.scenario import (
    FollowerConfig,
    ScenarioConfig,
    loads_scenario,
    parse_scenario,
    schedule_at,
)
from polaris.sim import (
    FAILURE_RECORDS,
    EventRecord,
    Episode,
    Mission,
    detect_events,
    initial_world,
    run_scenario,
    step,
    supervisor_react,
)


def small_cfg(**overrides):
    base = dict(
        partition=PolarPartition(40.0, 5, 9),
        dt=0.02,
        t_end=30.0,
        u_max=5.0,
        speed=2.0,
        alarm_radius=8.0,
        release_radius=12.0,
        leader_velocity=((0.0, 0.0, 0.0),),
        followers=(
            FollowerConfig((30.0, 10.0), ((0.0, 10.0, 10.0),)),
            FollowerConfig((-30.0, -10.0), ((0.0, -10.0, -10.0),)),
        ),
    )
    base.update(overrides)
    return ScenarioConfig(**base).validate()


def started_world(cfg):
    mission = Mission(cfg)
    world = initial_world(mission)
    world, _ = supervisor_react(world, [], mission)
    return world, mission


def test_initial_commands_push_inward():
    cfg = small_cfg()
    world, _ = started_world(cfg)
    assert world.discrete[0].command == "Cr-1"
    assert world.discrete[1].command == "Cr-2"
    assert world.discrete[0].plant == "O1"


def test_fire_records_only_an_event_that_every_automaton_takes():
    (world, mission) = started_world(small_cfg())
    autos = sim._Automata(world, mission)
    # agent 1's command is in flight, so its plant cannot take it again
    with pytest.raises(SupervisorBlocked, match="event Cr-1 undefined in agent 1 plant"):
        autos.fire(1, "Cr-1", "region=(2,1)")
    assert autos.records == []
    autos.fire(1, "d_1_1_1", "region=(1,1)")
    assert autos.records == [EventRecord(world.t, "1", "d_1_1_1", "region=(1,1)")]
    assert autos.plant_state(1) == "R1"


def test_a_phase_starts_as_the_run_does_whatever_the_discrete_layer_held():
    (world, mission) = started_world(small_cfg())
    stopped = tuple(d._replace(stopped=True) for d in world.discrete)
    busy = world._replace(discrete=stopped, episode=Episode(1, cleared=True))
    assert sim._start_phase(busy, mission) == initial_world(mission)


def test_stopped_follower_holds_relative_position_under_moving_leader():
    cfg = small_cfg(leader_velocity=((0.0, 1.0, 0.5),))
    world, mission = started_world(cfg)
    stopped = world._replace(
        discrete=(world.discrete[0]._replace(stopped=True), world.discrete[1]),
    )
    after = step(stopped, mission)
    assert after.relative[0] == stopped.relative[0]
    assert after.follower_pos[0] == stopped.follower_pos[0]
    # the absolute position tracks the leader
    abs_before = (
        stopped.leader_pos[0] + stopped.follower_pos[0][0],
        stopped.leader_pos[1] + stopped.follower_pos[0][1],
    )
    abs_after = (
        after.leader_pos[0] + after.follower_pos[0][0],
        after.leader_pos[1] + after.follower_pos[0][1],
    )
    assert abs_after[0] - abs_before[0] == pytest.approx(1.0 * cfg.dt)
    assert abs_after[1] - abs_before[1] == pytest.approx(0.5 * cfg.dt)


def test_euler_step_bound():
    cfg = small_cfg(leader_velocity=((0.0, 2.0, -1.0),))
    world, mission = started_world(cfg)
    after = step(world, mission)
    for k in (1, 2):
        (x0, y0) = world.follower_pos[k - 1]
        (x1, y1) = after.follower_pos[k - 1]
        lead_dx = 2.0 * cfg.dt
        lead_dy = -1.0 * cfg.dt
        moved = math.hypot((x1 - x0) + lead_dx, (y1 - y0) + lead_dy)
        assert moved <= cfg.u_max * cfg.dt + 1e-12


def test_invariant_hold_for_ten_thousand_steps():
    cfg = small_cfg()
    world, mission = started_world(cfg)
    # park follower 1 in its current region under the hold controller
    region = world.discrete[0].region
    held = world._replace(
        discrete=(
            world.discrete[0]._replace(command="C0_1", plant="R1"),
            world.discrete[1]._replace(stopped=True),
        ),
    )
    for _ in range(10_000):
        held = step(held, mission)
    (rx, ry) = held.relative[0]
    assert locate(cfg.partition, rx, ry) == region


def test_detect_no_events_on_quiet_step():
    cfg = small_cfg()
    world, mission = started_world(cfg)
    after = step(world, mission)
    assert detect_events(world, after, mission) == []


def test_detect_region_crossing_emits_detection():
    cfg = small_cfg()
    world, mission = started_world(cfg)
    moved = world._replace(
        follower_pos=((15.0, 10.0), world.follower_pos[1]),  # rel (5, 0): ring 1
    )
    events = detect_events(world, moved, mission)
    assert events == [("detection", 1, RegionIndex(1, 1))]


def test_detect_alarm_front_vs_not_front():
    cfg = small_cfg()
    world, mission = started_world(cfg)
    # place follower 2 just inside follower 1's alarm radius, ahead of its
    # inward track (follower 1 heads toward -x in its relative frame)
    prev = world._replace(
        follower_pos=((30.0, 10.0), (21.0, 10.0)),
    )
    nxt = world._replace(
        follower_pos=((30.0, 10.0), (22.5, 10.0)),
    )
    events = detect_events(prev, nxt, mission)
    assert events[-1] == ("alarm", 1, "Ca12F")
    # off to the side instead: bearing ~65 degrees off the heading
    prev = world._replace(follower_pos=((30.0, 10.0), (25.5, 1.5)))
    nxt = world._replace(follower_pos=((30.0, 10.0), (27.0, 3.5)))
    events = detect_events(prev, nxt, mission)
    assert events[-1] == ("alarm", 1, "Ca12N")
    # holding at its desired position (offset (10, 10)), follower 1 has no
    # heading, so an alarm is never in front
    (d1, d2) = world.discrete
    holding = (d1._replace(region=RegionIndex(1, 1), command="C0_1"), d2)
    prev = world._replace(follower_pos=((10.0, 10.0), (19.0, 10.0)), discrete=holding)
    nxt = world._replace(follower_pos=((10.0, 10.0), (17.5, 10.0)), discrete=holding)
    assert sim._follower(nxt, mission, 1)[-2:] == (0.0, 0.0)
    assert detect_events(prev, nxt, mission)[-1] == ("alarm", 1, "Ca12N")
    # with no command and away from the centre, follower 1 heads toward its
    # goal: here at -pi + 0.1, so the bearing pi to follower 2 is 0.1 rad
    # off the heading once the difference is wrapped
    (rx, ry) = (5.0 * math.cos(0.1), 5.0 * math.sin(0.1))
    (fx, fy) = (10.0 + rx, 10.0 + ry)
    idle = (d1._replace(region=locate(cfg.partition, rx, ry), command=None), d2)
    prev = world._replace(follower_pos=((fx, fy), (fx - 8.5, fy)), discrete=idle)
    nxt = world._replace(follower_pos=((fx, fy), (fx - 7.5, fy)), discrete=idle)
    assert detect_events(prev, nxt, mission)[-1] == ("alarm", 1, "Ca12F")
    # and follower 2 straight behind it is not in front
    prev = world._replace(follower_pos=((fx, fy), (fx + 8.5, fy)), discrete=idle)
    nxt = world._replace(follower_pos=((fx, fy), (fx + 7.5, fy)), discrete=idle)
    assert detect_events(prev, nxt, mission)[-1] == ("alarm", 1, "Ca12N")
    assert sim._wrap_angle(math.pi - (-math.pi + 0.1)) == pytest.approx(-0.1)


def test_detect_second_agent_alarm_when_first_unavailable():
    cfg = small_cfg()
    world, mission = started_world(cfg)
    prev = world._replace(
        follower_pos=((30.0, 10.0), (21.0, 10.0)),
        discrete=(world.discrete[0]._replace(stopped=True), world.discrete[1]),
    )
    nxt = prev._replace(follower_pos=((30.0, 10.0), (22.5, 10.0)))
    events = detect_events(prev, nxt, mission)
    assert events[-1][0] == "alarm" and events[-1][1] == 2
    assert events[-1][2].startswith("Ca21")


def test_detect_cleared_after_release_radius():
    cfg = small_cfg()
    world, mission = started_world(cfg)
    episode = Episode(1)
    prev = world._replace(follower_pos=((30.0, 10.0), (25.0, 10.0)), episode=episode)
    nxt = prev._replace(follower_pos=((30.0, 10.0), (17.0, 10.0)))
    events = detect_events(prev, nxt, mission)
    assert events[-1] == ("cleared", 1, None)


def test_supervisor_reacts_to_first_circle_detection_with_hold():
    cfg = small_cfg()
    world, mission = started_world(cfg)
    events = [("detection", 1, RegionIndex(1, 1))]
    after, records = supervisor_react(world, events, mission)
    assert after.discrete[0].command == "C0_1"
    assert [r.event for r in records] == ["d_1_1_1", "C0_1"]


def test_supervisor_reacts_to_alarm_with_stop_then_turn():
    cfg = small_cfg()
    world, mission = started_world(cfg)
    # region crossing and alarm in the same step: the finished transit lets
    # the turn be commanded immediately after the stop
    events = [("detection", 1, RegionIndex(2, 1)), ("alarm", 1, "Ca12F")]
    after, records = supervisor_react(world, events, mission)
    names = [r.event for r in records]
    assert names[:3] == ["d_2_1_1", "Ca12F", "Stop2"]
    assert "Cth+1" in names
    assert after.discrete[0].command == "Cth+1"
    assert after.discrete[1].stopped
    assert after.episode is not None and after.episode.avoider == 1


def test_alarm_mid_flight_defers_turn_to_next_detection():
    cfg = small_cfg()
    world, mission = started_world(cfg)
    world, _ = supervisor_react(world, [("detection", 1, RegionIndex(2, 1))], mission)
    # the re-armed inward command is in flight: only the stop goes out now
    after, records = supervisor_react(world, [("alarm", 1, "Ca12F")], mission)
    assert [r.event for r in records] == ["Ca12F", "Stop2"]
    assert after.discrete[0].command == "Cr-1"
    # the next boundary crossing hands control to the turn
    deferred, records = supervisor_react(after, [("detection", 1, RegionIndex(2, 2))], mission)
    assert [r.event for r in records] == ["d_2_2_1", "Cth+1"]
    # a first-circle crossing parks the agent in formation instead
    parked, records = supervisor_react(after, [("detection", 1, RegionIndex(1, 1))], mission)
    assert [r.event for r in records] == ["d_1_1_1", "C0_1"]


def test_release_resumes_both_agents():
    cfg = small_cfg()
    world, mission = started_world(cfg)
    world, _ = supervisor_react(world, [("detection", 1, RegionIndex(2, 1))], mission)
    world, _ = supervisor_react(world, [("alarm", 1, "Ca12F")], mission)
    world, records = supervisor_react(world, [("cleared", 1, None)], mission)
    names = [r.event for r in records]
    assert "alarm_cleared" in names and "R21" in names
    assert world.episode is None
    assert not world.discrete[1].stopped


def test_release_reissues_command_consumed_by_stop_step_detection():
    cfg = small_cfg()
    world, mission = started_world(cfg)
    # agent 2's detection ends its command in the step that stops it
    events = [("detection", 2, RegionIndex(2, 4)), ("alarm", 1, "Ca12F")]
    world, records = supervisor_react(world, events, mission)
    assert [r.event for r in records] == ["d_2_4_2", "Ca12F", "Stop2"]
    assert world.discrete[1].plant == "R2"
    world, records = supervisor_react(world, [("cleared", 1, None)], mission)
    assert [r.event for r in records] == ["alarm_cleared", "R21", "Cr-2"]
    assert world.discrete[1].plant != "R2"


def test_zero_velocity_bound_flags_unreached_formation():
    cfg = small_cfg(u_max=0.0, t_end=2.0)
    result = run_scenario(cfg)
    assert result.verdicts["t_reach_1"] == "none"
    assert "never reached" in result.verdicts["flags"]
    first = result.rows[1].split(",")
    last = result.rows[-1].split(",")
    assert first[3:7] == last[3:7]  # absolute positions frozen


def test_start_inside_first_ring_rejected():
    cfg = small_cfg(
        followers=(
            FollowerConfig((12.0, 10.0), ((0.0, 10.0, 10.0),)),
            FollowerConfig((-30.0, -10.0), ((0.0, -10.0, -10.0),)),
        )
    )
    with pytest.raises(ValidationError):
        run_scenario(cfg)
    # a single sector has no angular facet for the bundled mission's first
    # avoidance turn: validate refuses it before the run starts
    cfg = parse_scenario(BUNDLED)._replace(partition=PolarPartition(50.0, 21, 2))
    with pytest.raises(ValidationError, match="^partition.n_theta "):
        run_scenario(cfg)


def test_switch_into_first_ring_rejected(tmp_path, capsys):
    # the switch at t = 1 moves follower 1's desired offset onto the spot
    # it has moved at most 2 m away from, well inside the 10 m first ring
    text = """\
partition.r_max = 40
partition.n_r = 5
partition.n_theta = 9
sim.t_end = 2
follower1.initial_position = 30,10
follower1.offsets = 0:10,10 1:30,10
follower2.initial_position = -30,-10
follower2.offsets = 0:-10,-10
"""
    with pytest.raises(ValidationError, match="follower 1 starts inside the innermost ring"):
        run_scenario(loads_scenario(text))
    scenario = tmp_path / "switch.cfg"
    scenario.write_text(text, encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario), "-o", str(tmp_path / "out")]) == 2
    assert "innermost ring" in capsys.readouterr().err


def test_start_beyond_horizon_wins_over_start_in_first_ring():
    # follower 1 starts in ring 1 and follower 2 beyond the 40 m horizon:
    # both agents' horizons are checked before either's ring
    cfg = small_cfg(
        followers=(
            FollowerConfig((12.0, 10.0), ((0.0, 10.0, 10.0),)),
            FollowerConfig((-30.0, -10.0), ((0.0, 30.0, -10.0),)),
        )
    )
    with pytest.raises(HorizonViolation, match="follower 2"):
        run_scenario(cfg)


def test_switch_beyond_horizon_raises():
    cfg = small_cfg(
        t_end=2.0,
        followers=(
            FollowerConfig((30.0, 10.0), ((0.0, 10.0, 10.0), (1.0, 200.0, 0.0))),
            FollowerConfig((-30.0, -10.0), ((0.0, -10.0, -10.0),)),
        ),
    )
    with pytest.raises(HorizonViolation):
        run_scenario(cfg)


def test_horizon_violation_carries_last_world_and_recent_records():
    # without velocity authority the followers trail a fast leader out of
    # the horizon: follower 2 starts 20 m behind and reaches r_max = 40 m
    # at t = 2, so the last world reached is one step earlier
    cfg = small_cfg(u_max=0.0, leader_velocity=((0.0, 10.0, 0.0),), t_end=10.0)
    with pytest.raises(HorizonViolation) as info:
        run_scenario(cfg)
    world = info.value.world
    assert world.t == pytest.approx(2.0 - cfg.dt)
    for k in (1, 2):
        assert math.hypot(*world.relative[k - 1]) <= cfg.partition.r_max
    recent = info.value.recent
    assert 0 < len(recent) <= FAILURE_RECORDS
    assert all(isinstance(rec, EventRecord) for rec in recent)
    # follower 2's entry into the outermost ring is among them
    assert "d_4_4_2" in [rec.event for rec in recent]
    assert recent[-1].t <= world.t


def trailing_past_horizon():
    # both followers stopped at relative (-39.9, 0) with no velocity
    # authority: a 10 m/s leader drags them to -40.1, past r_max = 40
    cfg = small_cfg(u_max=0.0, leader_velocity=((0.0, 10.0, 0.0),))
    world, mission = started_world(cfg)
    edge = world._replace(
        follower_pos=((-29.9, 10.0), (-49.9, -10.0)),
        discrete=tuple(d._replace(stopped=True) for d in world.discrete),
    )
    return edge, step(edge, mission), mission


def test_step_into_a_world_beyond_the_horizon_does_not_raise():
    (edge, after, mission) = trailing_past_horizon()
    r_max = mission.cfg.partition.r_max
    assert all(math.hypot(*rel) <= r_max for rel in edge.relative)
    assert all(math.hypot(*rel) > r_max for rel in after.relative)


def test_detect_events_beyond_the_horizon_names_the_first_follower():
    (edge, after, mission) = trailing_past_horizon()
    with pytest.raises(HorizonViolation) as info:
        detect_events(edge, after, mission)
    assert not isinstance(info.value, OutOfHorizon)
    assert str(info.value) == "follower 1 at relative radius 40.1 beyond horizon 40"


def test_detect_events_treats_a_nan_position_as_beyond_the_horizon():
    world, mission = started_world(small_cfg())
    lost = world._replace(follower_pos=(world.follower_pos[0], (math.nan, 10.0)))
    with pytest.raises(HorizonViolation) as info:
        detect_events(world, lost, mission)
    assert str(info.value) == "follower 2 at relative radius nan beyond horizon 40"


def test_follower_exactly_at_the_horizon_is_inside():
    cfg = small_cfg(
        followers=(
            FollowerConfig((50.0, 10.0), ((0.0, 10.0, 10.0),)),  # relative (40, 0)
            FollowerConfig((-30.0, -10.0), ((0.0, -10.0, -10.0),)),
        )
    )
    world, mission = started_world(cfg)
    assert world.discrete[0].region == RegionIndex(4, 1)
    # relative (24, -32): hypot is exactly 40
    at_edge = world._replace(follower_pos=(world.follower_pos[0], (14.0, -42.0)))
    events = detect_events(world, at_edge, mission)
    assert events == [("detection", 2, RegionIndex(4, 7))]


def test_failure_context_keeps_the_last_records():
    # a formation switch that puts follower 1 far beyond the horizon
    cfg = loads_scenario(CROSSING_CFG.replace("40:31.257,17.497", "40:200,0"))
    with pytest.raises(HorizonViolation) as info:
        run_scenario(cfg)
    assert info.value.world.t == pytest.approx(40.0)
    recent = info.value.recent
    assert len(recent) == FAILURE_RECORDS
    times = [rec.t for rec in recent]
    assert times == sorted(times) and times[-1] < 40.0


# Every command choice of a run must equal the reference scan over the six
# automata, in its own fixed order.
@pytest.mark.parametrize("source", ["bundled", "crossing"])
def test_command_choice_matches_the_reference_scan(source, monkeypatch):
    if source == "bundled":
        cfg = parse_scenario("src/polaris/data/paper_phase12.cfg")
    else:
        cfg = loads_scenario(CROSSING_CFG)
    choices = []
    choose = Mission.choose_command

    def recording(mission, autos, k):
        states = tuple(autos.state)
        choice = choose(mission, autos, k)
        choices.append((mission.models, k, states, choice))
        return choice

    monkeypatch.setattr(Mission, "choose_command", recording)
    run_scenario(cfg)
    # the run held, pushed inward and turned away from an alarm
    assert {"C0_1", "Cr-1", "Cth+1"} <= {choice for (*_, choice) in choices}
    # every call found an enabled actuation
    assert None not in {choice for (*_, choice) in choices}
    for (models, k, states, choice) in choices:
        assert scan_command_choice(models, k, states) == choice


def run_with_local1(cfg, loops):
    """``run_scenario(cfg)`` with agent 1's local supervisor one state
    with a self-loop on each of ``loops``, and agent 2's one state with a
    self-loop on each of its events."""
    models = sim.build_models(cfg.partition)
    return run_scenario_with_locals(
        cfg,
        one_state_supervisor(models, 1, loops),
        one_state_supervisor(models, 2, models.alphabet(2).all_ids),
    )


def test_a_local_supervisor_that_enables_no_controllable_event_blocks_the_start():
    cfg = parse_scenario(BUNDLED)
    al1 = sim.build_models(cfg.partition).alphabet(1)
    with pytest.raises(SupervisorBlocked) as info:
        run_with_local1(cfg, uncontrollable_ids(al1))
    assert str(info.value) == "agent 1: no controllable event enabled at plant=R1"
    assert info.value.world.step_index == 0
    assert info.value.recent == ()


def test_a_follower_with_only_coordination_commands_enabled_holds(monkeypatch):
    cfg = parse_scenario(BUNDLED)
    al1 = sim.build_models(cfg.partition).alphabet(1)
    held = []
    follower = sim._follower

    def recording(world, mission, k):
        record = follower(world, mission, k)
        if k == 1:
            held.append((world.discrete[0].command, record[2], record[-2:]))
        return record

    monkeypatch.setattr(sim, "_follower", recording)
    result = run_with_local1(cfg, uncontrollable_ids(al1) + COORDINATION_COMMANDS)
    # every reaction records no command for agent 1, and every stretch
    # holds it: its relative position changes only at the formation switch
    assert held and set(held) == {(None, True, (0.0, 0.0))}
    assert not [rec for rec in result.records if rec.agent == "1"]
    relative = {tuple(row.split(",")[7:9]) for row in result.rows}
    assert relative == {("-41.900000", "-0.900000"), ("0.100000", "19.100000")}
    assert result.verdicts["t_reach_1"] == "none none"
    assert result.verdicts["t_reach_2"] == "7.52 60.42"


def test_region_tracking_matches_locate_every_step():
    cfg = small_cfg(t_end=20.0)
    mission = Mission(cfg)
    world = initial_world(mission)
    world, _ = supervisor_react(world, [], mission)
    for _ in range(1000):
        nxt = step(world, mission)
        events = detect_events(world, nxt, mission)
        world, _ = supervisor_react(nxt, events, mission)
        for k in (1, 2):
            (rx, ry) = world.relative[k - 1]
            assert locate(cfg.partition, rx, ry) == world.discrete[k - 1].region


def test_two_runs_are_identical():
    cfg = small_cfg(t_end=15.0)
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    assert r1.csv_text() == r2.csv_text()
    assert r1.log_text() == r2.log_text()
    assert r1.verdicts_text() == r2.verdicts_text()


def test_event_log_segments_are_in_the_agent_language():
    cfg = small_cfg(t_end=20.0)
    result = run_scenario(cfg)
    mission = Mission(cfg)
    for k in (1, 2):
        loop = mission.models.agent_loop(k)
        for segment in result.agent_event_segments(k, mission.alphabet(k)):
            assert loop.generates(segment)


def test_output_formats():
    cfg = small_cfg(t_end=5.0)
    result = run_scenario(cfg)
    header = result.csv_text().splitlines()[0]
    assert header == (
        "t,leader_x,leader_y,f1_x,f1_y,f2_x,f2_y,"
        "f1_rel_x,f1_rel_y,f2_rel_x,f2_rel_y,"
        "f1_region_i,f1_region_j,f2_region_i,f2_region_j"
    )
    body = result.csv_text().splitlines()[1:]
    assert len(body) == int(round(cfg.t_end / cfg.dt)) + 1
    assert all(len(line.split(",")) == 15 for line in body)
    for line in result.log_text().splitlines():
        assert line.startswith("t=")
        fields = dict(part.split("=", 1) for part in line.split(" ", 3))
        assert fields["agent"] in ("1", "2", "world")
    times = [rec.t for rec in result.records]
    assert times == sorted(times)
    for key in ("t_reach_1", "t_reach_2", "min_separation", "alarm_episodes"):
        assert key in result.verdicts


def test_reach_and_hold_in_simple_mission():
    cfg = small_cfg(t_end=20.0)
    result = run_scenario(cfg)
    assert result.verdicts["t_reach_1"] != "none"
    assert result.verdicts["t_reach_2"] != "none"
    assert result.verdicts["final_region_1"].startswith("(1,")
    assert result.verdicts["final_region_2"].startswith("(1,")
    assert result.verdicts["alarm_episodes"] == "0"


def test_piecewise_leader_schedule():
    cfg = small_cfg(t_end=2.0, leader_velocity=((0.0, 1.0, 0.0), (1.0, 0.0, 2.0)))
    result = run_scenario(cfg)
    rows = [r.split(",") for r in result.rows]
    at = {float(c[0]): (float(c[1]), float(c[2])) for c in rows}
    assert at[1.0] == (pytest.approx(1.0), pytest.approx(0.0))
    assert at[2.0] == (pytest.approx(1.0), pytest.approx(2.0))


SEEDED_HEADER = """\
partition.r_max = 50
partition.n_r = 21
partition.n_theta = 9
sim.t_end = 60
avoid.alarm_radius = 8
avoid.release_radius = 12
"""


def seeded_mission(seed: int, crossing: bool) -> str:
    """A two-phase mission on 21x9 with a formation switch at t = 30.

    Crossing missions start the followers at nearly equal distances before
    a common point of their approach paths, which cross at 100 to 150
    degrees, so the two meet within the alarm radius.  The others start
    anywhere 6 to 40 m from offsets on opposite sides of the leader.
    """
    rng = random.Random(seed)

    def polar_point(r, angle, at=(0.0, 0.0)):
        return (at[0] + r * math.cos(angle), at[1] + r * math.sin(angle))

    if crossing:
        meet = (rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0))
        a1 = rng.uniform(0.0, 2.0 * math.pi)
        a2 = a1 + rng.choice((-1.0, 1.0)) * math.radians(rng.uniform(100.0, 150.0))
        d1 = rng.uniform(18.0, 26.0)
        d2 = d1 + rng.uniform(-1.5, 1.5)
        offsets = [polar_point(rng.uniform(11.0, 16.0), a, meet) for a in (a1, a2)]
        starts = [polar_point(-d, a, meet) for (a, d) in ((a1, d1), (a2, d2))]
    else:
        b = rng.uniform(0.0, 2.0 * math.pi)
        offsets = [
            polar_point(rng.uniform(10.0, 16.0), b),
            polar_point(rng.uniform(10.0, 16.0), b + math.pi + rng.uniform(-0.5, 0.5)),
        ]
        starts = [
            polar_point(rng.uniform(6.0, 40.0), rng.uniform(0.0, 2.0 * math.pi), off)
            for off in offsets
        ]
    moved = [polar_point(rng.uniform(8.0, 25.0), rng.uniform(0.0, 2.0 * math.pi), off)
             for off in offsets]
    lines = [SEEDED_HEADER.rstrip()]
    lines.append(
        f"leader.velocity = 0:{rng.uniform(0.5, 1.5):.3f},{rng.uniform(-0.5, 0.5):.3f} "
        f"20:{rng.uniform(0.5, 1.5):.3f},{rng.uniform(-0.5, 0.5):.3f}"
    )
    for k in (1, 2):
        ((sx, sy), (ox, oy), (mx, my)) = (starts[k - 1], offsets[k - 1], moved[k - 1])
        lines.append(f"follower{k}.initial_position = {sx:.3f},{sy:.3f}")
        lines.append(f"follower{k}.offsets = 0:{ox:.3f},{oy:.3f} 30:{mx:.3f},{my:.3f}")
    return "\n".join(lines) + "\n"


def outcome(run, cfg):
    """Every output of a run, or the failure and its context."""
    try:
        result = run(cfg)
    except (HorizonViolation, SupervisorBlocked) as exc:
        return (type(exc), str(exc), exc.world, exc.recent)
    except ValidationError as exc:
        return (type(exc), str(exc))
    return (result.csv_text(), result.log_text(), result.verdicts_text(), result.controllers)


# the seeded sweep: seeded_mission 0-59, both kinds, at each setting.  A
# simulator change that keeps every output must keep its outcome counts,
# its event steps (sim.step calls) per setting and one sha256 over every
# output, or failure with its world, recent and reacted records
SWEEP_SETTINGS = {
    "": ({"completed": 120}, 4588),
    "sim.dt = 0.05": ({"SupervisorBlocked": 117, "completed": 3}, 3894),
    "sim.u_max = 1.25": ({"completed": 82, "SupervisorBlocked": 32,
                          "HorizonViolation": 4, "ValidationError": 2}, 3001),
}
SWEEP_SHA256 = "3bc878d43c1464c3efb4e6481e88a28010ab9e4198f1392d03f37043adc67a81"


def test_the_seeded_sweep_is_pinned(monkeypatch):
    counted = step
    steps = [0]

    def counting(world, mission):
        steps[0] += 1
        return counted(world, mission)

    monkeypatch.setattr(sim, "step", counting)
    digest = hashlib.sha256()
    for (extra, (kinds, event_steps)) in SWEEP_SETTINGS.items():
        seen = Counter()
        steps[0] = 0
        for seed in range(60):
            for crossing in (False, True):
                cfg = loads_scenario(seeded_mission(seed, crossing) + extra + "\n")
                try:
                    result = run_scenario(cfg)
                except (HorizonViolation, SupervisorBlocked, ValidationError) as exc:
                    kind = type(exc).__name__
                    record = (kind, str(exc), getattr(exc, "world", None),
                              getattr(exc, "recent", None), getattr(exc, "reacted", None))
                else:
                    kind = "completed"
                    record = (result.csv_text(), result.log_text(), result.verdicts_text(),
                              result.controllers)
                seen[kind] += 1
                digest.update(repr(record).encode())
        assert (seen, steps[0]) == (kinds, event_steps), extra
    assert digest.hexdigest() == SWEEP_SHA256


# run_scenario reacts only on steps with events; the reference reacts on
# every step.  The two must agree on every output and failure.
@pytest.mark.parametrize("source", ["bundled", "crossing", "trailing", "switch-beyond"])
def test_skipping_settled_reactions_changes_no_output(source):
    if source == "bundled":
        cfg = parse_scenario("src/polaris/data/paper_phase12.cfg")
    elif source == "crossing":
        cfg = loads_scenario(CROSSING_CFG)
    elif source == "trailing":
        # fails while stepping, as in the horizon test above
        cfg = small_cfg(u_max=0.0, leader_velocity=((0.0, 10.0, 0.0),), t_end=10.0)
    else:
        cfg = loads_scenario(CROSSING_CFG.replace("40:31.257,17.497", "40:200,0"))
    expected = outcome(run_scenario_reacting_every_step, cfg)
    assert outcome(run_scenario, cfg) == expected
    if source == "crossing":
        assert "release=R21" in expected[2]
    elif source != "bundled":
        assert expected[0] is HorizonViolation


def test_skipping_settled_reactions_matches_on_seeded_missions():
    releases = 0
    for seed in range(20):
        cfg = loads_scenario(seeded_mission(seed, crossing=seed % 2 == 0))
        expected = outcome(run_scenario_reacting_every_step, cfg)
        assert outcome(run_scenario, cfg) == expected, seed
        releases += expected[2].count("release=R")
    # the crossing missions raise alarms that end in a stop and a release
    assert releases >= 10


def test_reaction_reaches_its_fixpoint(monkeypatch):
    # the property that lets run_scenario react only on steps with events:
    # reacting again without events leaves a reaction's world as it is
    react = sim.supervisor_react
    repeated = []

    def react_then_repeat(world, events, mission):
        (nxt, records) = react(world, events, mission)
        (again, more) = react(nxt, [], mission)
        assert again == nxt and more == [], (world.t, events, more)
        repeated.append([kind for (kind, _, _) in events])
        return (nxt, records)

    monkeypatch.setattr(sim, "supervisor_react", react_then_repeat)
    sources = [parse_scenario("src/polaris/data/paper_phase12.cfg"), loads_scenario(CROSSING_CFG)]
    sources += [loads_scenario(seeded_mission(seed, crossing=seed % 2 == 0)) for seed in range(20)]
    for cfg in sources:
        outcome(run_scenario, cfg)
    kinds = [kind for events in repeated for kind in events]
    # the repeats cover reactions that open and clear alarm episodes
    assert kinds.count("alarm") >= 15 and kinds.count("cleared") >= 15
    assert kinds.count("detection") >= 500


# run_scenario advances the steps without events in one float loop and
# runs step and detect_events only where an event may occur.  The cases
# below reach parts of that loop that the missions above do not.
BUNDLED = "src/polaris/data/paper_phase12.cfg"


@pytest.mark.parametrize("k", [1, 2])
def test_quiet_loop_matches_a_horizon_violation_by_one_follower(k):
    # without velocity authority both followers trail a 10 m/s leader on
    # the relative x axis: follower k from relative (-30.1, 0) leaves the
    # 40 m horizon at the step to t = 1, while the other, from (35, 0), is
    # still inside.  Beyond r_max the ring index clamps to the outermost ring and
    # the angle does not change, so only the horizon test sees that step.
    (trailing, ahead) = ((-30.1, 0.0), (35.0, 0.0))
    rel = (trailing, ahead) if k == 1 else (ahead, trailing)
    offsets = ((10.0, 10.0), (-10.0, -10.0))
    followers = tuple(
        FollowerConfig((ox + rx, oy + ry), ((0.0, ox, oy),))
        for ((ox, oy), (rx, ry)) in zip(offsets, rel)
    )
    cfg = small_cfg(
        u_max=0.0, leader_velocity=((0.0, 10.0, 0.0),), t_end=5.0, followers=followers
    )
    expected = outcome(run_scenario_reacting_every_step, cfg)
    assert outcome(run_scenario, cfg) == expected
    assert expected[0] is HorizonViolation
    assert expected[1].startswith(f"follower {k} at relative radius 40.")
    assert expected[2].t == pytest.approx(1.0 - cfg.dt)


def clamped_steps(result, u_max, dt) -> int:
    """Follower-steps whose absolute displacement is ``u_max * dt``, to the
    rounding of the CSV's six decimals."""
    rows = [[float(v) for v in row.split(",")] for row in result.rows]
    return sum(
        1
        for (before, after) in zip(rows, rows[1:])
        for col in (3, 5)
        if abs(math.hypot(after[col] - before[col], after[col + 1] - before[col + 1])
               - u_max * dt) < 1e-5
    )


def test_quiet_loop_matches_under_a_partial_velocity_clamp():
    # a 2.5 m/s bound below the 2 m/s command plus the 1.1 m/s leader
    # scales the followers' velocities on many steps without stopping them
    text = Path(BUNDLED).read_text(encoding="utf-8").replace("sim.u_max = 5", "sim.u_max = 2.5")
    cfg = loads_scenario(text)
    assert 0.0 < cfg.u_max < cfg.speed + math.hypot(*cfg.leader_velocity[0][1:])
    expected = outcome(run_scenario_reacting_every_step, cfg)
    assert outcome(run_scenario, cfg) == expected
    assert clamped_steps(run_scenario(cfg), cfg.u_max, cfg.dt) >= 1000
    assert "release=R21" in expected[2]


def off_grid(text: str) -> str:
    """A seeded mission with its switch at 30.01 s and its leader-velocity
    breakpoint at 20.005 s, both between two steps of 0.02 s."""
    return text.replace(" 30:", " 30.01:").replace(" 20:", " 20.005:")


def test_quiet_loop_matches_with_breakpoints_off_the_step_grid():
    for seed in range(6):
        cfg = loads_scenario(off_grid(seeded_mission(seed, crossing=seed % 2 == 0)))
        assert cfg.switch_times() == (30.01,) and cfg.leader_velocity[1][0] == 20.005
        expected = outcome(run_scenario_reacting_every_step, cfg)
        assert outcome(run_scenario, cfg) == expected, seed
        assert "formation_switch" in expected[1], seed


def test_quiet_loop_matches_a_seeded_supervisor_block():
    # a 1.25 m/s bound leaves too little authority against the leader:
    # follower 2, holding in the first ring, drifts into the next region
    # of the ring, and its plant has no detection in its ready state
    cfg = loads_scenario(seeded_mission(3, crossing=False) + "sim.u_max = 1.25\n")
    expected = outcome(run_scenario_reacting_every_step, cfg)
    assert outcome(run_scenario, cfg) == expected
    (kind, message, world, recent) = expected
    assert kind is SupervisorBlocked
    assert message == "event d_1_6_2 undefined in agent 2 plant automaton at state 'R2'"
    # it has held region (1,7) since t = 2.54; the world is the step that
    # crossed into (1,6), its discrete state as before the reaction
    assert world.t == pytest.approx(7.10)
    assert (world.discrete[1].region, world.discrete[1].command) == (RegionIndex(1, 7), "C0_2")
    assert ("d_1_7_2", "C0_2") == tuple(rec.event for rec in recent[2:4])


def test_supervisor_block_names_the_step_and_the_records_of_its_reaction():
    # at a 0.05 s step, seed 0's detection of (1,3) comes on step 462, in
    # a ready plant; the world before that step is 461
    cfg = loads_scenario(seeded_mission(0, crossing=False) + "sim.dt = 0.05\n")
    with pytest.raises(SupervisorBlocked, match="event d_1_3_1 undefined") as info:
        run_scenario(cfg)
    assert info.value.world.step_index == 462
    assert info.value.world.discrete[0].region != RegionIndex(1, 3)
    # seed 40's reaction fires d_2_6_1, then blocks on d_1_2_2: the fired
    # detection ends the recent records, and the blocked one is not there
    cfg = loads_scenario(seeded_mission(40, crossing=False) + "sim.dt = 0.05\n")
    with pytest.raises(SupervisorBlocked, match="event d_1_2_2 undefined") as info:
        run_scenario(cfg)
    (world, recent) = (info.value.world, info.value.recent)
    assert recent[-1] == EventRecord(world.t, "1", "d_2_6_1", "region=(2,6)")
    assert "d_1_2_2" not in [rec.event for rec in recent]
    assert info.value.reacted == recent[-1:]


def test_quiet_loop_matches_off_the_default_step_and_bound():
    # the seeded missions at a 0.05 s step and at a 1.25 m/s bound, which
    # leaves many followers too little authority against the leader.  Most
    # end in SupervisorBlocked; a failure compares by type, message, last
    # world and recent records.
    kinds = Counter()
    configs = [(extra, seed, crossing) for extra in ("sim.dt = 0.05", "sim.u_max = 1.25")
               for seed in range(10) for crossing in (False, True)]
    configs += [("sim.dt = 0.05", seed, crossing) for seed in range(10, 30)
                for crossing in (False, True)]
    configs += [("sim.u_max = 1.25", seed, False) for seed in range(10, 22)]
    for (extra, seed, crossing) in configs:
        cfg = loads_scenario(seeded_mission(seed, crossing) + extra + "\n")
        expected = outcome(run_scenario_reacting_every_step, cfg)
        assert outcome(run_scenario, cfg) == expected, (extra, seed, crossing)
        kinds[expected[0] if isinstance(expected[0], type) else "completed"] += 1
    assert kinds == {SupervisorBlocked: 69, ValidationError: 1, "completed": 22}, kinds


def supervised_outcome(run, cfg):
    """The outputs of a run, or the failure and where it left the
    followers; the failure's message and discrete states are left out,
    since they name the supervisors' own states."""
    try:
        result = run(cfg)
    except (HorizonViolation, SupervisorBlocked) as exc:
        world = exc.world
        return (type(exc), world.t, world.step_index, world.follower_pos, exc.recent)
    return (result.csv_text(), result.records, result.verdicts, result.controllers)


def test_local_supervisors_drive_the_runs_of_the_global_one():
    # Theorem 1 in the hybrid loop: the local supervisors, each on its own
    # agent's events, make the same runs as the collision supervisor over
    # both, at the defaults and where the abstraction breaks
    kinds = Counter()
    alarmed = 0
    for extra in ("", "sim.dt = 0.05\n", "sim.u_max = 1.25\n"):
        for seed in range(0, 60, 6):
            for crossing in (False, True):
                cfg = loads_scenario(seeded_mission(seed, crossing) + extra)
                expected = supervised_outcome(run_scenario_under_the_global_supervisor, cfg)
                assert supervised_outcome(run_scenario, cfg) == expected, (extra, seed, crossing)
                if isinstance(expected[0], type):
                    kinds[expected[0]] += 1
                else:
                    kinds["completed"] += 1
                    alarmed += expected[2]["alarm_episodes"] != "0"
    assert kinds == {"completed": 35, SupervisorBlocked: 25}, kinds
    # 16 of the completed runs raise an alarm for the collision module
    assert alarmed == 16


def test_quiet_step_matches_step_at_an_angle_just_below_th_lo():
    # the quiet loop's field must clamp a wrapped angle to the nearer
    # facet as eval_cell does; held in region (3,1), the field there
    # pushes follower 1 back across th_lo, so the loop takes the step.
    # Follower 2 sits at relative (-15, 5), off the grid lines of its
    # region (2,4), where the loop's margin test would stop.
    cfg = small_cfg()
    world, mission = started_world(cfg)
    (d1, d2) = world.discrete
    assert d2.region == RegionIndex(2, 4)
    th = -1e-12
    world = world._replace(
        follower_pos=((10.0 + 25.0 * math.cos(th), 10.0 + 25.0 * math.sin(th)), (-25.0, -5.0)),
        discrete=(d1._replace(region=RegionIndex(3, 1), command="C0_1"), d2),
    )
    (rx, ry) = world.relative[0]
    assert ry < 0.0
    (moved, _, _) = sim._coast(world, mission, [], 1, math.inf, math.inf, 0.0)
    inside = moved is not world
    assert moved == step(world, mission)
    ((x, y), (rx, ry)) = (moved.follower_pos[0], moved.relative[0])
    assert (x, y) == euler_step(world, mission).follower_pos[0]
    assert ry > 0.0 and inside


def test_step_matches_the_reference_euler_step_bit_for_bit():
    # step moves each follower through _coast's loop; conftest's
    # euler_step writes the same Euler step out.  Seeded worlds put held,
    # stopped and commanded followers anywhere in the grid, under no
    # velocity authority, a partial clamp and a loose bound, with the
    # leader velocity read on both sides of its breakpoint at t = 4.
    rng = random.Random(22)
    seen = Counter()
    leader = ((0.0, 3.0, 1.0), (4.0, -1.0, 2.5))
    for u_max in (0.0, 2.5, 50.0):
        cfg = small_cfg(dt=0.5, u_max=u_max, leader_velocity=leader)
        (start, mission) = started_world(cfg)
        p = cfg.partition
        for _ in range(200):
            discrete = []
            follower_pos = []
            for (k, d, (ox, oy)) in zip((1, 2), start.discrete, start.offsets):
                region = RegionIndex(rng.randint(1, p.n_r - 1), rng.randint(1, p.n_theta - 1))
                (r_lo, r_hi, th_lo, th_hi) = polar.region_bounds(p, region)
                (r, th) = (rng.uniform(r_lo, r_hi), rng.uniform(th_lo, th_hi))
                follower_pos.append((ox + r * math.cos(th), oy + r * math.sin(th)))
                commands = [f"Cth+{k}", f"Cth-{k}", f"C0_{k}"]
                commands += [f"Cr-{k}"] * (region.i > 1) + [f"Cr+{k}"] * (region.i < p.n_r - 1)
                kind = rng.choice(("held", "stopped", "commanded"))
                command = None if kind == "held" else rng.choice(commands)
                discrete.append(d._replace(region=region, command=command,
                                           stopped=kind == "stopped"))
                seen[kind] += 1
            t = rng.choice((4.0 - cfg.dt, 4.0))
            world = start._replace(step_index=round(t / cfg.dt), t=t,
                                   follower_pos=tuple(follower_pos), discrete=tuple(discrete))
            expected = euler_step(world, mission)
            assert step(world, mission) == expected
            seen[f"t={t}"] += 1
            (lvx, lvy) = schedule_at(leader, t)
            for k in (1, 2):
                (vx, vy) = relative_velocity_of(world, mission, k)
                speed = math.hypot(lvx + vx, lvy + vy)
                seen["u_max=0" if u_max == 0.0 else "clamped" if speed > u_max else "loose"] += 1
                (rx, ry) = expected.relative[k - 1]
                if math.hypot(rx, ry) > p.r_max:
                    seen["beyond the horizon"] += 1
                elif locate(p, rx, ry) != world.discrete[k - 1].region:
                    seen["left its region"] += 1
    assert min(seen.values()) >= 5 and len(seen) == 10, seen


def near_grid_lines(p: PolarPartition, rng) -> list:
    """Relative positions on and 1e-15 to 1e-6 (relative) to either side
    of every ring line, the horizon and every sector ray of ``p``, at and
    near the origin down to radii whose square underflows, and inside
    each region."""

    def at(r, th):
        return (r * math.cos(th), r * math.sin(th))

    ulp = 2.0 ** -52
    gaps = [0.0] * 4 + [sign * k * ulp for k in (1, 2, 3) for sign in (-1.0, 1.0)]
    gaps += [sign * rng.uniform(1.0, 10.0) * 10.0 ** e
             for e in range(-15, -6) for sign in (-1.0, 1.0)]
    points = []
    for i in range(2, p.n_r + 1):  # ring lines, the horizon last
        for gap in gaps:
            points.append(at(p.radius(i) * (1.0 + gap), rng.uniform(0.0, TWO_PI)))
    for j in range(1, p.n_theta):  # sector rays
        for gap in gaps:
            points.append(at(rng.uniform(0.0, p.r_max), p.angle(j) + gap))
    for r in (0.0, 5e-324, 1e-320, 1e-200, 1e-160, sim._R_MIN, 1e-154, 1e-100, 1e-12):
        for _ in range(3 * (r < 0.5 * p.r_max)):
            points.append(at(r * rng.uniform(0.5, 2.0), rng.uniform(0.0, TWO_PI)))
    points += [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (5e-324, -5e-324)]
    for region in p.regions():
        (r_lo, r_hi, th_lo, th_hi) = polar.region_bounds(p, region)
        points.append(at(rng.uniform(r_lo, r_hi), rng.uniform(th_lo, th_hi)))
    return points


def near_sector_margins(p: PolarPartition) -> list:
    """Relative positions at 0.5, 1 and 2 times the quiet loop's angular
    margin, ``sim._MARGIN`` of a sector, to either side of every sector
    ray of ``p``, θ = 0 and 2π included, at the middle radius of every
    ring."""
    margin = sim._MARGIN * p.delta_theta
    return [
        (r * math.cos(th), r * math.sin(th))
        for j in range(1, p.n_theta + 1)
        for gap in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
        for th in [p.angle(j) + gap * margin]
        for r in [(p.radius(i) + p.radius(i + 1)) * 0.5 for i in range(1, p.n_r)]
    ]


def test_quiet_loop_region_test_is_conservative():
    # _coast's region test skips hypot and ceil: it passes a point only
    # when its radius and angular cell coordinate lie a margin inside the
    # follower's region.  Held followers under a leader within the bound
    # do not move, so each seeded point is the new position of the step.
    # Each is tried in the region that locate gives it and in the
    # neighbours across each line; wherever the loop takes the step,
    # locate must agree.  The points at the angular margin both stop
    # the loop and pass it.
    rng = random.Random(30)
    seen = Counter()
    partitions = (PolarPartition(37.0, 7, 3), PolarPartition(37.0, 7, 9),
                  PolarPartition(1e-150, 4, 9), PolarPartition(1e-159, 4, 9))
    for p in partitions:
        mission = Mission(small_cfg(partition=p, leader_velocity=((0.0, 1.0, 0.5),)))
        m = mission.models
        inner = RegionIndex(1, 1)
        held = [sim.AgentDiscrete(m.plant(k).initial, m.formation(k).initial,
                                  m.local(k).initial, inner) for k in (1, 2)]
        (r_lo, r_hi, th_lo, th_hi) = polar.region_bounds(p, inner)
        safe = ((r_lo + r_hi) / 2 * math.cos((th_lo + th_hi) / 2),
                (r_lo + r_hi) / 2 * math.sin((th_lo + th_hi) / 2))
        # a cleared episode turns both separation tests off
        world = sim.WorldState(0, 0.0, (0.0, 0.0), (safe, safe), ((0.0, 0.0), (0.0, 0.0)),
                               tuple(held), Episode(1, cleared=True))
        margins = near_sector_margins(p)
        for point in near_grid_lines(p, rng) + margins:
            at_margin = point in margins
            try:
                found = locate(p, *point)
            except OutOfHorizon:
                found = locate(p, *(v * (1.0 - 1e-6) for v in point))
            regions = {found}
            for (di, dj) in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                (i, j) = (found.i + di, (found.j - 1 + dj) % (p.n_theta - 1) + 1)
                if 1 <= i < p.n_r:
                    regions.add(RegionIndex(i, j))
            for region in regions:
                for k in (1, 2):
                    discrete = list(held)
                    discrete[k - 1] = discrete[k - 1]._replace(region=region)
                    follower_pos = [safe, safe]
                    follower_pos[k - 1] = point
                    moving = world._replace(follower_pos=tuple(follower_pos),
                                            discrete=tuple(discrete))
                    (moved, _, _) = sim._coast(moving, mission, [], 1, math.inf, math.inf, 0.0)
                    if moved is moving:
                        seen["stop at the margin" if at_margin else "stop"] += 1
                        continue
                    for ((rx, ry), d) in zip(moved.relative, moved.discrete):
                        assert locate(p, rx, ry) == d.region, (p, point, region, k)
                    seen[f"step on {p.r_max:g},{p.n_theta}"] += 1
                    seen["step at the margin"] += at_margin
    # every partition but the one whose squares underflow takes steps
    assert min(seen.values()) >= 100 and len(seen) == 6, seen


def test_step_matches_the_reference_at_the_edges_of_the_clamp_pre_test():
    # the loop skips hypot when the squared total speed is at most
    # (u_max * (1 - 1e-9))**2, a bound it uses only when it is a normal
    # float.  Follower 2, held at its slot, moves by the clamped leader
    # velocity alone; follower 1's command adds its field, and in half of
    # the cases the leader velocity is chosen so that the sum hits the
    # target.  step must equal euler_step, which always takes hypot.
    rng = random.Random(30)
    seen = Counter()
    (start, mission) = started_world(small_cfg(dt=0.5))
    world = start._replace(follower_pos=(start.follower_pos[0], (0.0, 0.0)),
                           offsets=(start.offsets[0], (0.0, 0.0)))
    (fx, fy) = relative_velocity_of(world, mission, 1)
    assert world.discrete[0].command is not None and (fx, fy) != (0.0, 0.0)
    world = world._replace(discrete=(world.discrete[0], world.discrete[1]._replace(command=None)))
    nan = math.nan
    inf = math.inf
    for u_max in (0.0, 5e-324, 1e-160, 1e-150, 3.0, 5.0, 1e150, 1e160, 1e308):
        speeds = (u_max * (1.0 - 1e-12), u_max * (1.0 + 1e-12), u_max,
                  math.nextafter(u_max, inf), u_max * (1.0 - 2e-9), 1e-200, 1e200)
        targets = [(v * math.cos(a), v * math.sin(a)) for v in speeds for a in (0.3, 2.0, -2.8)]
        targets += [(nan, 0.0), (0.0, nan), (inf, 0.0), (-inf, inf), (inf, nan), (0.0, -inf)]
        # one ulp beyond u_max, where the sum of squares may round to at
        # most u_max**2: only the margin keeps hypot on these
        normal = sys.float_info.min <= u_max * u_max <= sys.float_info.max
        for a in (rng.uniform(-math.pi, math.pi) for _ in range(2000 * normal)):
            (tx, ty) = (math.nextafter(u_max, inf) * math.cos(a),
                        math.nextafter(u_max, inf) * math.sin(a))
            if tx * tx + ty * ty <= u_max * u_max and math.hypot(tx, ty) > u_max:
                targets.append((tx, ty))
                seen["rounds to u_max"] += 1
        cap = (u_max * (1.0 - 1e-9)) ** 2 if normal else 0.0
        for (tx, ty) in targets:
            for leader in ((tx, ty), (tx - fx, ty - fy)):
                cfg = mission.cfg._replace(u_max=u_max, leader_velocity=((0.0, *leader),))
                moving = Mission(cfg)
                expected = euler_step(world, moving)
                assert repr(step(world, moving)) == repr(expected), (u_max, leader)
            if not math.isfinite(tx * tx + ty * ty):
                seen["nan or inf"] += 1
            elif cap >= sys.float_info.min and tx * tx + ty * ty <= cap:
                seen["below the bound"] += 1
            else:
                seen["clamped" if math.hypot(tx, ty) > u_max else "not clamped"] += 1
    assert min(seen.values()) >= 10 and len(seen) == 5, seen


def field_branches(world, mission, k) -> list:
    """The clamp branches of ``eval_cell`` that follower ``k``'s field
    takes in ``world``; none for a held or stopped follower."""
    disc = world.discrete[k - 1]
    if disc.stopped or disc.command is None:
        return ["stopped" if disc.stopped else "held"]
    (r_lo, r_hi, th_lo, span, _, r_eps, _, _) = mission.cell(k, disc.region, disc.command)
    (rx, ry) = world.relative[k - 1]
    r = math.hypot(rx, ry)
    rel = (math.atan2(ry, rx) - th_lo) % (2.0 * math.pi)
    branches = ["a < 0"] * (r < r_lo) + ["a > 1"] * (r > r_hi) + ["r < r_eps"] * (r < r_eps)
    if rel > span:
        branches.append("b > 1 toward th_hi" if rel - span <= (2.0 * math.pi - span) * 0.5
                        else "b > 1 toward th_lo")
    return branches


def decoded(rows) -> list:
    """The ASCII rows that ``sim._coast`` formats, as str."""
    return [row.decode("ascii") for row in rows]


def awkward_floats(rng, n: int) -> list:
    """``n`` floats for the six-decimal row format: signed zeros and
    infinities, NaN, the least subnormal, huge values, exact ties at the
    seventh decimal (odd multiples of 1/128) and values within 1e-9 of a
    tie, then random bit patterns."""
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, -1e300]
    values = []
    for _ in range(n):
        kind = rng.randrange(5)
        if kind == 0:
            values.append(rng.choice(special))
        elif kind == 1:
            values.append((2 * rng.randrange(-10**6, 10**6) + 1) / 128)
        elif kind == 2:
            tie = (rng.randrange(-10**9, 10**9) + 0.5) * 1e-6
            values.append(tie + rng.uniform(-1e-9, 1e-9))
        elif kind == 3:
            values.append(rng.uniform(-1e3, 1e3))
        else:
            bits = rng.getrandbits(64).to_bytes(8, "little")
            values.append(struct.unpack("<d", bits)[0])
    return values


def test_bytes_rows_match_the_reference_format_on_awkward_floats():
    # _coast formats its rows with bytes %, which must write what a format
    # spec per field writes for every float: the start row of a _coast
    # with no step to take, on worlds whose every float field is awkward,
    # and the rows of a quiet step from such a leader position, which a
    # leader at rest, or moving at -0.0, keeps
    rng = random.Random(42)
    (start, mission) = started_world(small_cfg())
    for _ in range(2000):
        f = awkward_floats(rng, 11)
        world = start._replace(
            t=f[0], leader_pos=(f[1], f[2]), follower_pos=((f[3], f[4]), (f[5], f[6])),
            offsets=((f[7], f[8]), (f[9], f[10])),
        )
        rows = []
        (same, _, _) = sim._coast(world, mission, rows, world.step_index, math.inf, math.inf, 0.0)
        assert same is world
        assert decoded(rows) == [csv_row_by_fstring(world)]
    quiet = Counter()
    for velocity in (0.0, -0.0):
        # followers off the grid lines, so that their first step is quiet
        followers = (
            FollowerConfig((30.0, 15.0), ((0.0, 10.0, 10.0),)),
            FollowerConfig((-30.0, -15.0), ((0.0, -10.0, -10.0),)),
        )
        cfg = small_cfg(leader_velocity=((0.0, velocity, velocity),), followers=followers)
        (start, mission) = started_world(cfg)
        start = start._replace(episode=Episode(1, cleared=True))
        for _ in range(200):
            world = start._replace(leader_pos=tuple(awkward_floats(rng, 2)))
            rows = []
            (moved, _, _) = sim._coast(world, mission, rows, 1, math.inf, math.inf, 0.0)
            assert moved is not world
            assert decoded(rows) == [csv_row_by_fstring(world), csv_row_by_fstring(moved)]
            quiet.update(map(repr, moved.leader_pos))
    assert {"0.0", "-0.0", "inf", "-inf", "nan", "5e-324", "1e+300"} <= set(quiet), quiet


def test_a_coast_with_no_step_to_take_writes_its_start_row_and_separation(monkeypatch):
    # _coast is the trajectory's one writer: on entry it appends its start
    # world's row and takes that world's separation into the minimum, from
    # the world's regions and offsets, so with no step to take (the last
    # step done, or a formation switch due) it fetches no cell
    (start, mission) = started_world(small_cfg())
    world = start._replace(step_index=7, t=0.14)
    sep = world.separation
    cells = []
    monkeypatch.setattr(Mission, "cell", lambda *args: cells.append(args))
    for (n_steps, t_switch) in ((7, math.inf), (3, math.inf), (8, 0.14), (8, 0.0)):
        for (min_sep, min_sep_t, expected) in ((math.inf, 0.0, (sep, 0.14)),
                                               (2.0 * sep, 0.02, (sep, 0.14)),
                                               (sep, 0.02, (sep, 0.02)),
                                               (0.5 * sep, 0.02, (0.5 * sep, 0.02))):
            rows = []
            (same, *kept) = sim._coast(world, mission, rows, n_steps, t_switch, min_sep, min_sep_t)
            assert same is world and tuple(kept) == expected
            assert decoded(rows) == [csv_row_by_fstring(world)]
    assert cells == []


def test_quiet_loop_field_matches_the_reference_on_every_clamp_branch():
    # _coast's loop takes each start field from eval_cell and writes the
    # field out, with no clamp, at every point that passes its region
    # test; step takes its one step through that loop.  Seeded followers
    # sit just past one facet of their region or within r_eps of the
    # origin, held, stopped or commanded, under no velocity authority, a
    # partial clamp and a loose bound.  step must equal conftest's
    # euler_step, which calls eval_cell, and a one- or two-step quiet
    # advance must equal as many euler_steps or stop where a follower
    # leaves its region or the horizon.  Only a second step runs the
    # unclamped field, from a point that may lie just past a facet.  Every
    # advance appends its start world's row first.
    rng = random.Random(26)
    seen = Counter()
    two_steps = 0
    places = ("inside", "below r_lo", "beyond r_hi", "below th_lo", "beyond th_hi", "near 0")
    for u_max in (0.0, 2.5, 50.0):
        cfg = small_cfg(dt=0.5, u_max=u_max, leader_velocity=((0.0, 3.0, 1.0),))
        (start, mission) = started_world(cfg)
        # a cleared episode turns both separation tests off
        start = start._replace(episode=Episode(1, cleared=True))
        p = cfg.partition

        def in_regions(moved):
            return all(math.hypot(*rel) <= p.r_max and locate(p, *rel) == d.region
                       for (rel, d) in zip(moved.relative, moved.discrete))

        for _ in range(250):
            discrete = []
            follower_pos = []
            for (k, d, (ox, oy)) in zip((1, 2), start.discrete, start.offsets):
                place = rng.choice(places)
                i = 1 if place == "near 0" else rng.randint(1 + (place == "below r_lo"), p.n_r - 1)
                region = RegionIndex(i, rng.randint(1, p.n_theta - 1))
                (r_lo, r_hi, th_lo, th_hi) = polar.region_bounds(p, region)
                (r, th) = (rng.uniform(r_lo, r_hi), rng.uniform(th_lo, th_hi))
                past = 10.0 ** rng.uniform(-9.0, -1.0)
                if place == "below r_lo":
                    r = r_lo - past
                elif place == "beyond r_hi":
                    r = r_hi + past
                elif place == "below th_lo":
                    th = th_lo - past
                elif place == "beyond th_hi":
                    th = th_hi + past
                elif place == "near 0":
                    r = rng.uniform(0.0, p.r_eps)
                follower_pos.append((ox + r * math.cos(th), oy + r * math.sin(th)))
                commands = [f"Cth+{k}", f"Cth-{k}", f"C0_{k}"]
                commands += [f"Cr-{k}"] * (region.i > 1) + [f"Cr+{k}"] * (region.i < p.n_r - 1)
                kind = rng.choice(("held", "stopped", "commanded", "commanded"))
                command = None if kind == "held" else rng.choice(commands)
                discrete.append(d._replace(region=region, command=command,
                                           stopped=kind == "stopped"))
            world = start._replace(follower_pos=tuple(follower_pos), discrete=tuple(discrete))
            expected = euler_step(world, mission)
            assert step(world, mission) == expected
            first = csv_row_by_fstring(world)
            rows = []
            (quiet, _, _) = sim._coast(world, mission, rows, 1, math.inf, math.inf, 0.0)
            if in_regions(expected):
                assert (quiet, decoded(rows)) == (expected, [first, csv_row_by_fstring(expected)])
                seen["quiet step"] += 1
                second = euler_step(expected, mission)
                rows = []
                (quiet, _, _) = sim._coast(world, mission, rows, 2, math.inf, math.inf, 0.0)
                if in_regions(second):
                    assert (quiet, decoded(rows)) == (
                        second, [first, csv_row_by_fstring(expected), csv_row_by_fstring(second)]
                    )
                    two_steps += any(d.command is not None and not d.stopped for d in discrete)
                else:
                    assert (quiet, decoded(rows)) == (
                        expected, [first, csv_row_by_fstring(expected)]
                    )
            else:
                assert quiet is world and decoded(rows) == [first]
                seen["quiet stop"] += 1
            for k in (1, 2):
                seen.update(field_branches(world, mission, k))
                (vx, vy) = relative_velocity_of(world, mission, k)
                speed = math.hypot(3.0 + vx, 1.0 + vy)
                seen["u_max = 0" if u_max == 0.0 else "clamped" if speed > u_max else "loose"] += 1
    assert min(seen.values()) >= 5 and len(seen) == 12, seen
    assert two_steps >= 5, two_steps


def traced_calls(monkeypatch, cfg) -> tuple:
    """``run_scenario(cfg)`` and the calls it makes of each function that
    perfbench's mission trace wraps."""
    calls = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    for (module, name) in ((sim, "step"), (sim, "detect_events"), (sim, "supervisor_react")):
        monkeypatch.setattr(module, name, counting(f"sim.{name}", getattr(module, name)))
    monkeypatch.setattr(kernels, "eval_cell", counting("kernels.eval_cell", kernels.eval_cell))
    located = counting("polar.locate", polar.locate)
    monkeypatch.setattr(polar, "locate", located)
    monkeypatch.setattr(sim, "locate", located)
    return (run_scenario(cfg), calls)


def test_run_scenario_calls_every_function_the_benchmark_traces(monkeypatch):
    # perfbench's mission trace wraps these names, and rejects a traced run
    # in which one of them is never called
    (_, calls) = traced_calls(monkeypatch, parse_scenario(BUNDLED))
    assert sorted(calls) == [
        "kernels.eval_cell", "polar.locate", "sim.detect_events", "sim.step",
        "sim.supervisor_react",
    ]
    assert all(count >= 1 for count in calls.values()), calls
    # eval_cell gives each commanded follower its start field: once per
    # quiet stretch (108 calls) and once per step (106), plus the run's
    # one alarm classification
    assert calls["kernels.eval_cell"] == 215
    # the quiet loop hands only 54 steps to step and detect_events; a
    # region test margin that cost event steps would show here
    assert calls["sim.step"] == calls["sim.detect_events"] == 54


def test_a_bundled_run_reads_each_follower_record_once_per_stretch(monkeypatch):
    # _follower is the one reader of Mission.cell between events: twice per
    # quiet stretch (109 stretches) and once for the run's one alarm
    # classification.  A second reader of the same record would show here
    cells = []
    cell = Mission.cell

    def counted(mission, k, region, command):
        cells.append((k, region, command))
        return cell(mission, k, region, command)

    monkeypatch.setattr(Mission, "cell", counted)
    (_, calls) = traced_calls(monkeypatch, parse_scenario(BUNDLED))
    assert len(cells) == 219
    assert calls["kernels.eval_cell"] == 215
    assert calls["sim.step"] == 54


# the steps that the quiet loop hands to step and detect_events in
# seeded_mission(seed, crossing) at the defaults
SEEDED_EVENT_STEPS = {
    (0, False): 38, (0, True): 44, (1, False): 32, (1, True): 44,
    (2, False): 39, (2, True): 44, (3, False): 24, (3, True): 39,
    (4, False): 32, (4, True): 37, (5, False): 33, (5, True): 45,
}


@pytest.mark.parametrize(("seed", "crossing"), sorted(SEEDED_EVENT_STEPS))
def test_seeded_missions_hand_as_few_steps_to_the_event_path(monkeypatch, seed, crossing):
    # beside the bundled run's 54: a region test margin that cost event
    # steps would show on more than one input
    (_, calls) = traced_calls(monkeypatch, loads_scenario(seeded_mission(seed, crossing)))
    expected = SEEDED_EVENT_STEPS[(seed, crossing)]
    assert calls["sim.step"] == calls["sim.detect_events"] == expected


def test_a_run_with_no_alarm_calls_eval_cell(monkeypatch):
    # the start fields call eval_cell whether or not an alarm is classified
    (result, calls) = traced_calls(monkeypatch, small_cfg(t_end=1.0))
    assert result.verdicts["alarm_episodes"] == "0"
    assert calls["kernels.eval_cell"] >= 1


def test_controllers_text_lists_only_the_controllers_a_step_used():
    # both followers reach the first ring on the last step, at t = 5.02,
    # and get hold commands that no step runs
    cfg = small_cfg(t_end=5.02)
    expected = outcome(run_scenario_reacting_every_step, cfg)
    assert outcome(run_scenario, cfg) == expected
    assert "C0_1" in expected[1] and "C0_2" in expected[1]
    assert "mode=invariant" not in expected[3]


# bytes a bundled run's result may hold beyond its trajectory text: about
# 31 KB of event records, verdicts and controller text
RESULT_ALLOWANCE = 64 * 1024


def test_a_result_holds_its_trajectory_once_as_the_csv_text():
    cfg = parse_scenario(BUNDLED)
    run_scenario(cfg)  # fills the model and controller caches, which outlive a run
    gc.collect()
    tracemalloc.start()
    try:
        result = run_scenario(cfg)
        text = result.csv_text()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.csv_text() is text
    assert text.startswith(sim.CSV_HEADER + "\n") and text.endswith("\n")
    assert "\n".join(result.rows) == text[len(sim.CSV_HEADER) + 1:-1]
    # a list of row strings beside the text would hold about 2.5 times it
    assert retained <= 1.15 * len(text) + RESULT_ALLOWANCE, (retained, len(text))
