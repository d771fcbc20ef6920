"""Deterministic fixed-step hybrid closed-loop simulator.

Each follower moves in a relative frame centered on its desired offset from
the leader; the active region controller gives its relative velocity, the
composed discrete supervisors (plant, formation module, local collision
module) choose commands, and the environment feeds back region-crossing
detections and collision alarms.  One step is: advance the continuous
state, detect events, feed the uncontrollable ones through the automata,
then emit the controllable events they enable (stop/release first, then
one actuation command per agent).

Everything is deterministic: identical configs produce identical
trajectories, logs and verdicts byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional

from . import kernels
from .errors import HorizonViolation, SupervisorBlocked, ValidationError
from .models import (
    ALARM_EVENTS,
    FormationModels,
    RELEASE_OF_EPISODE,
    STOP_OF_EPISODE,
    build_models,
)
from .polar import Mode, RegionIndex, cached_controller, locate, region_bounds
from .scenario import ScenarioConfig, schedule_at

__all__ = [
    "EventRecord",
    "AgentDiscrete",
    "Episode",
    "WorldState",
    "Mission",
    "initial_world",
    "step",
    "detect_events",
    "supervisor_react",
    "run_scenario",
    "ScenarioResult",
    "CSV_HEADER",
]

CSV_HEADER = (
    "t,leader_x,leader_y,f1_x,f1_y,f2_x,f2_y,"
    "f1_rel_x,f1_rel_y,f2_rel_x,f2_rel_y,"
    "f1_region_i,f1_region_j,f2_region_i,f2_region_j"
)


@dataclass(frozen=True)
class EventRecord:
    t: float
    agent: str  # "1", "2" or "world"
    event: str
    detail: str = ""

    def line(self) -> str:
        return f"t={self.t:.6f} agent={self.agent} event={self.event} detail={self.detail}"


@dataclass(frozen=True)
class AgentDiscrete:
    plant: str
    formation: str
    local: str
    region: RegionIndex
    command: Optional[str] = None
    stopped: bool = False


@dataclass(frozen=True)
class Episode:
    alarm: str  # the alarm event that opened the episode
    avoider: int  # agent index that keeps moving and turns
    t_alarm: float
    cleared: bool = False


@dataclass(frozen=True)
class WorldState:
    step_index: int
    t: float
    leader_pos: tuple
    follower_pos: tuple  # two leader-frame positions
    offsets: tuple  # two current desired offsets
    discrete: tuple  # two AgentDiscrete
    episode: Optional[Episode] = None

    def relative(self, k: int) -> tuple:
        (px, py) = self.follower_pos[k - 1]
        (ox, oy) = self.offsets[k - 1]
        return (px - ox, py - oy)


class Mission:
    """Prebuilt models and controller cache for one scenario config."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.models: FormationModels = build_models(cfg.partition)
        self.used_controllers: dict = {}

    def alphabet(self, k: int):
        return self.models.alphabet(k)

    def automata(self, k: int):
        m = self.models
        return (m.plant(k), m.formation(k), m.local(k))

    def controller(self, region: RegionIndex, mode: Mode):
        vc = cached_controller(
            self.cfg.partition, region, mode, self.cfg.speed, self.cfg.kappa
        )
        self.used_controllers[(region.i, region.j, mode.value)] = vc
        return vc

    def controllers_text(self) -> str:
        """Every controller the run instantiated, one vertex vector per line."""
        lines = []
        for (i, j, mode) in sorted(self.used_controllers):
            vc = self.used_controllers[(i, j, mode)]
            lines.append(f"region=({i},{j}) mode={mode}")
            for v, (ur, ut) in enumerate(vc.u):
                lines.append(f"  v{v}: {ur:.9g} {ut:.9g}")
        return "\n".join(lines) + "\n" if lines else ""


@lru_cache(maxsize=4)
def _mission(cfg: ScenarioConfig) -> Mission:
    return Mission(cfg)


def _locate_or_raise(cfg: ScenarioConfig, k: int, x: float, y: float) -> RegionIndex:
    r = math.hypot(x, y)
    if r > cfg.partition.r_max:
        raise HorizonViolation(
            f"follower {k} at relative radius {r:.3f} beyond horizon "
            f"{cfg.partition.r_max:.3f}"
        )
    return locate(cfg.partition, x, y)


def initial_world(cfg: ScenarioConfig, mission: Optional[Mission] = None) -> WorldState:
    """World at t = 0, before the first command selection."""
    mission = mission or _mission(cfg)
    offsets = tuple(schedule_at(f.offsets, 0.0) for f in cfg.followers)
    follower_pos = tuple(f.initial_position for f in cfg.followers)
    discretes = []
    for k in (1, 2):
        (px, py) = follower_pos[k - 1]
        (ox, oy) = offsets[k - 1]
        region = _locate_or_raise(cfg, k, px - ox, py - oy)
        (plant, formation, local) = mission.automata(k)
        discretes.append(
            AgentDiscrete(plant.initial, formation.initial, local.initial, region)
        )
    return WorldState(
        step_index=0,
        t=0.0,
        leader_pos=(0.0, 0.0),
        follower_pos=follower_pos,
        offsets=offsets,
        discrete=tuple(discretes),
    )


def _relative_velocity(world: WorldState, cfg: ScenarioConfig, mission: Mission, k: int):
    disc = world.discrete[k - 1]
    if disc.stopped or disc.command is None:
        return (0.0, 0.0)
    mode = mission.alphabet(k).command_mode(disc.command)
    vc = mission.controller(disc.region, mode)
    (r_lo, r_hi, th_lo, th_hi) = region_bounds(cfg.partition, disc.region)
    (x, y) = world.relative(k)
    return kernels.eval_cell(
        r_lo, r_hi, th_lo, th_hi - th_lo, vc.flat(), x, y, cfg.partition.r_eps, True
    )


def step(world: WorldState, cfg: ScenarioConfig, mission: Optional[Mission] = None) -> WorldState:
    """Advance the continuous state by one Euler step of length dt.

    Stopped followers keep their relative position; every follower's total
    velocity (leader plus relative) is clamped to the velocity bound.
    """
    mission = mission or _mission(cfg)
    (lvx, lvy) = schedule_at(cfg.leader_velocity, world.t)
    new_followers = []
    for k in (1, 2):
        (vx, vy) = _relative_velocity(world, cfg, mission, k)
        tvx = lvx + vx
        tvy = lvy + vy
        speed = math.hypot(tvx, tvy)
        if speed > cfg.u_max:
            if cfg.u_max == 0.0:
                tvx = 0.0
                tvy = 0.0
            else:
                scale = cfg.u_max / speed
                tvx *= scale
                tvy *= scale
        (px, py) = world.follower_pos[k - 1]
        new_followers.append((px + (tvx - lvx) * cfg.dt, py + (tvy - lvy) * cfg.dt))
    new_index = world.step_index + 1
    new = replace(
        world,
        step_index=new_index,
        t=new_index * cfg.dt,
        leader_pos=(
            world.leader_pos[0] + lvx * cfg.dt,
            world.leader_pos[1] + lvy * cfg.dt,
        ),
        follower_pos=tuple(new_followers),
    )
    for k in (1, 2):
        (rx, ry) = new.relative(k)
        _locate_or_raise(cfg, k, rx, ry)
    return new


def _separation(world: WorldState) -> float:
    (x1, y1) = world.follower_pos[0]
    (x2, y2) = world.follower_pos[1]
    return math.hypot(x1 - x2, y1 - y2)


def _wrap_angle(a: float) -> float:
    a = math.fmod(a, 2.0 * math.pi)
    if a >= math.pi:
        a -= 2.0 * math.pi
    elif a < -math.pi:
        a += 2.0 * math.pi
    return a


def _classify_alarm(world: WorldState, cfg: ScenarioConfig, mission: Mission, owner: int) -> str:
    """Front when the other agent's bearing is within the half-angle of the
    owner's commanded velocity direction; toward-goal fallback when the
    owner is holding or unommanded."""
    other = 2 if owner == 1 else 1
    (ox, oy) = world.follower_pos[owner - 1]
    (tx, ty) = world.follower_pos[other - 1]
    (vx, vy) = _relative_velocity(world, cfg, mission, owner)
    if math.hypot(vx, vy) < 1e-9:
        (rx, ry) = world.relative(owner)
        if math.hypot(rx, ry) < cfg.partition.r_eps:
            return f"Ca{owner}{other}N"
        (vx, vy) = (-rx, -ry)
    bearing = math.atan2(ty - oy, tx - ox)
    heading = math.atan2(vy, vx)
    if abs(_wrap_angle(bearing - heading)) <= cfg.front_half_angle:
        return f"Ca{owner}{other}F"
    return f"Ca{owner}{other}N"


def detect_events(
    world_prev: WorldState,
    world_next: WorldState,
    cfg: ScenarioConfig,
    mission: Optional[Mission] = None,
):
    """Uncontrollable and internal events between two consecutive states.

    In priority order: region-crossing detections (agent 1 before agent 2),
    at most one new collision alarm, then the internal alarm-cleared signal
    once the separation exceeds the release radius during an episode.
    """
    mission = mission or _mission(cfg)
    events = []
    for k in (1, 2):
        disc = world_prev.discrete[k - 1]
        (rx, ry) = world_next.relative(k)
        region = locate(cfg.partition, rx, ry)
        if region != disc.region:
            events.append(("detection", k, region))
    sep_prev = _separation(world_prev)
    sep_next = _separation(world_next)
    episode = world_prev.episode
    if episode is None and sep_prev >= cfg.alarm_radius > sep_next:
        owner = None
        for k in (1, 2):
            if not world_prev.discrete[k - 1].stopped:
                owner = k
                break
        if owner is not None:
            events.append(("alarm", owner, _classify_alarm(world_next, cfg, mission, owner)))
    elif episode is not None and not episode.cleared and sep_next > cfg.release_radius:
        events.append(("cleared", episode.avoider, None))
    return events


# priority of actuation commands when several are enabled: hold first, then
# the anticlockwise turn, then the inward push, then the rest alphabetically
def _command_priority(al) -> tuple:
    k = al.k
    rest = sorted(set(al.commands) - {f"Cth+{k}", f"Cr-{k}"})
    return (al.hold, f"Cth+{k}", f"Cr-{k}", *rest)


class _Automata:
    """Mutable view of the six automaton states during one reaction."""

    def __init__(self, world: WorldState, mission: Mission):
        self.mission = mission
        self.machines = []  # (agent k, automaton, role)
        self.state = {}
        for k in (1, 2):
            (plant, formation, local) = mission.automata(k)
            disc = world.discrete[k - 1]
            for auto, role, current in (
                (plant, "plant", disc.plant),
                (formation, "formation", disc.formation),
                (local, "local", disc.local),
            ):
                self.machines.append((k, auto, role))
                self.state[(k, role)] = current

    def enabled(self, event: str) -> bool:
        """Enabled in every automaton whose alphabet contains the event."""
        for (k, auto, role) in self.machines:
            if event in auto.event_ids:
                if not auto.step(self.state[(k, role)], event):
                    return False
        return True

    def feed(self, event: str) -> None:
        for (k, auto, role) in self.machines:
            if event in auto.event_ids:
                dst = auto.step1(self.state[(k, role)], event)
                if dst is None:
                    raise SupervisorBlocked(
                        f"event {event} undefined in agent {k} {role} automaton "
                        f"at state {self.state[(k, role)]!r}"
                    )
                self.state[(k, role)] = dst

    def plant_state(self, k: int) -> str:
        return self.state[(k, "plant")]


def supervisor_react(
    world: WorldState,
    events,
    cfg: ScenarioConfig,
    mission: Optional[Mission] = None,
):
    """Feed detected events through the supervisors and emit their reaction.

    Uncontrollable events advance the six automata; then, among enabled
    controllable events, stop/release requests are issued first and exactly
    one actuation command is kept active per agent (re-issued after each
    detection and release, replaced when the supervisors change the
    enabled set).
    Returns the new world state plus the event records of this reaction.
    """
    mission = mission or _mission(cfg)
    autos = _Automata(world, mission)
    records = []
    t = world.t
    episode = world.episode
    regions = [world.discrete[0].region, world.discrete[1].region]
    commands = [world.discrete[0].command, world.discrete[1].command]
    stopped = [world.discrete[0].stopped, world.discrete[1].stopped]
    detected = [False, False]

    for item in events:
        (kind, k, payload) = item
        if kind == "detection":
            region = payload
            event = mission.alphabet(k).detection(region.i, region.j)
            autos.feed(event)
            regions[k - 1] = region
            detected[k - 1] = True
            records.append(EventRecord(t, str(k), event, f"region=({region.i},{region.j})"))
        elif kind == "alarm":
            event = payload
            autos.feed(event)
            episode = Episode(event, k, t)
            records.append(
                EventRecord(t, str(k), event, f"separation<{cfg.alarm_radius:g}")
            )
        elif kind == "cleared":
            episode = replace(episode, cleared=True)
            records.append(
                EventRecord(t, "world", "alarm_cleared", f"separation>{cfg.release_radius:g}")
            )

    # stop / release requests of the active episode
    if episode is not None:
        stop_event = STOP_OF_EPISODE[episode.avoider]
        target = 2 if episode.avoider == 1 else 1
        if not stopped[target - 1] and autos.enabled(stop_event):
            autos.feed(stop_event)
            stopped[target - 1] = True
            records.append(
                EventRecord(t, str(episode.avoider), stop_event, f"stops agent {target}")
            )
        release_event = RELEASE_OF_EPISODE[episode.avoider]
        if episode.cleared and autos.enabled(release_event):
            autos.feed(release_event)
            stopped[target - 1] = False
            # its command may have ended with a detection while it was stopped
            detected[target - 1] = True
            records.append(
                EventRecord(t, str(episode.avoider), release_event, f"releases agent {target}")
            )
            episode = None

    # one actuation command per agent
    for k in (1, 2):
        al = mission.alphabet(k)
        if stopped[k - 1]:
            continue
        if autos.plant_state(k) != f"R{k}":
            continue  # a command is in flight; wait for its detection
        desired = None
        for candidate in _command_priority(al):
            if autos.enabled(candidate):
                desired = candidate
                break
        if desired is None:
            # no actuation available: hold position unless nothing at all is
            # enabled or pending, which signals a modeling bug
            if not any(autos.enabled(ev) for ev in al.controllable_ids):
                raise SupervisorBlocked(
                    f"agent {k}: no controllable event enabled at "
                    f"plant={autos.plant_state(k)}"
                )
            commands[k - 1] = None
            continue
        if desired != commands[k - 1] or detected[k - 1]:
            autos.feed(desired)
            commands[k - 1] = desired
            records.append(
                EventRecord(t, str(k), desired, f"region=({regions[k-1].i},{regions[k-1].j})")
            )

    discretes = []
    for k in (1, 2):
        discretes.append(
            AgentDiscrete(
                plant=autos.state[(k, "plant")],
                formation=autos.state[(k, "formation")],
                local=autos.state[(k, "local")],
                region=regions[k - 1],
                command=commands[k - 1],
                stopped=stopped[k - 1],
            )
        )
    return replace(world, discrete=tuple(discretes), episode=episode), records


def _apply_offset_switch(
    world: WorldState, cfg: ScenarioConfig, mission: Mission
) -> WorldState:
    """Re-center the relative frames and restart the discrete layer."""
    offsets = tuple(schedule_at(f.offsets, world.t) for f in cfg.followers)
    discretes = []
    for k in (1, 2):
        (px, py) = world.follower_pos[k - 1]
        (ox, oy) = offsets[k - 1]
        region = _locate_or_raise(cfg, k, px - ox, py - oy)
        (plant, formation, local) = mission.automata(k)
        discretes.append(
            AgentDiscrete(plant.initial, formation.initial, local.initial, region)
        )
    return replace(world, offsets=offsets, discrete=tuple(discretes), episode=None)


def _check_start_region(world: WorldState, cfg: ScenarioConfig) -> None:
    for k in (1, 2):
        if world.discrete[k - 1].region.i == 1:
            raise ValidationError(
                f"follower {k} starts inside the innermost ring; the reach "
                "policy needs a start outside it"
            )


@dataclass
class _EpisodeLog:
    alarm: str
    t_alarm: float
    stop: Optional[str] = None
    t_stop: Optional[float] = None
    release: Optional[str] = None
    t_release: Optional[float] = None


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    rows: list = field(default_factory=list)
    records: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    controllers: str = ""

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(self.rows)
        return "\n".join(lines) + "\n"

    def log_text(self) -> str:
        return "".join(rec.line() + "\n" for rec in self.records)

    def verdicts_text(self) -> str:
        lines = [f"{key} = {value}" for (key, value) in self.verdicts.items()]
        return "\n".join(lines) + "\n"

    def agent_event_string(self, k: int, alphabet) -> tuple:
        keep = frozenset(alphabet.all_ids)
        return tuple(rec.event for rec in self.records if rec.event in keep)

    def agent_event_segments(self, k: int, alphabet) -> tuple:
        """Per-phase event strings of one agent.

        A formation switch restarts the discrete layer, so language
        membership of the log holds per phase segment; segments are split
        at the formation_switch records.
        """
        keep = frozenset(alphabet.all_ids)
        segments = [[]]
        for rec in self.records:
            if rec.event == "formation_switch":
                segments.append([])
            elif rec.event in keep:
                segments[-1].append(rec.event)
        return tuple(tuple(seg) for seg in segments)


def _row(world: WorldState) -> str:
    (lx, ly) = world.leader_pos
    cells = [f"{world.t:.6f}", f"{lx:.6f}", f"{ly:.6f}"]
    for k in (1, 2):
        (px, py) = world.follower_pos[k - 1]
        cells.append(f"{lx + px:.6f}")
        cells.append(f"{ly + py:.6f}")
    for k in (1, 2):
        (rx, ry) = world.relative(k)
        cells.append(f"{rx:.6f}")
        cells.append(f"{ry:.6f}")
    for k in (1, 2):
        region = world.discrete[k - 1].region
        cells.append(str(region.i))
        cells.append(str(region.j))
    return ",".join(cells)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run the closed loop to t_end and summarize what happened."""
    cfg.validate()
    mission = _mission(cfg)
    world = initial_world(cfg, mission)
    _check_start_region(world, cfg)
    result = ScenarioResult(cfg)

    switch_times = list(cfg.switch_times())
    n_steps = int(round(cfg.t_end / cfg.dt))
    phase = 0
    t_reach = {1: [None], 2: [None]}
    episodes: list = []
    min_sep = _separation(world)
    min_sep_t = 0.0

    world, records = supervisor_react(world, [], cfg, mission)
    result.records.extend(records)
    result.rows.append(_row(world))

    first_circle = {
        k: frozenset(mission.alphabet(k).first_circle) for k in (1, 2)
    }

    for _ in range(n_steps):
        if switch_times and world.t >= switch_times[0]:
            switch_times.pop(0)
            world = _apply_offset_switch(world, cfg, mission)
            _check_start_region(world, cfg)
            phase += 1
            for k in (1, 2):
                t_reach[k].append(None)
            result.records.append(
                EventRecord(world.t, "world", "formation_switch", f"phase={phase + 1}")
            )
            world, records = supervisor_react(world, [], cfg, mission)
            result.records.extend(records)

        new_world = step(world, cfg, mission)
        events = detect_events(world, new_world, cfg, mission)
        world, records = supervisor_react(new_world, events, cfg, mission)
        result.records.extend(records)
        result.rows.append(_row(world))

        sep = _separation(world)
        if sep < min_sep:
            min_sep = sep
            min_sep_t = world.t
        for rec in records:
            if rec.agent in ("1", "2"):
                k = int(rec.agent)
                if rec.event in first_circle[k] and t_reach[k][phase] is None:
                    t_reach[k][phase] = rec.t
            if rec.event in ALARM_EVENTS:
                episodes.append(_EpisodeLog(rec.event, rec.t))
            elif rec.event in ("Stop1", "Stop2") and episodes:
                if episodes[-1].stop is None:
                    episodes[-1].stop = rec.event
                    episodes[-1].t_stop = rec.t
            elif rec.event in ("R12", "R21") and episodes:
                if episodes[-1].release is None:
                    episodes[-1].release = rec.event
                    episodes[-1].t_release = rec.t

    flags = []
    for k in (1, 2):
        for ph, value in enumerate(t_reach[k], start=1):
            if value is None:
                flags.append(f"follower {k} never reached the formation in phase {ph}")
    for idx, ep in enumerate(episodes, start=1):
        if ep.t_release is None:
            flags.append(f"episode {idx} never released")

    verdicts = result.verdicts
    for k in (1, 2):
        verdicts[f"t_reach_{k}"] = " ".join(
            "none" if v is None else f"{v:.2f}" for v in t_reach[k]
        )
    verdicts["min_separation"] = f"{min_sep:.6f} (t={min_sep_t:.2f})"
    verdicts["alarm_episodes"] = str(len(episodes))
    for idx, ep in enumerate(episodes, start=1):
        verdicts[f"episode_{idx}"] = (
            f"alarm={ep.alarm} t_alarm={ep.t_alarm:.2f} "
            f"stop={ep.stop} t_stop={_fmt_t(ep.t_stop)} "
            f"release={ep.release} t_release={_fmt_t(ep.t_release)}"
        )
    for k in (1, 2):
        region = world.discrete[k - 1].region
        verdicts[f"final_region_{k}"] = f"({region.i},{region.j})"
    verdicts["flags"] = "; ".join(flags) if flags else "none"
    result.controllers = mission.controllers_text()
    return result


def _fmt_t(value) -> str:
    return "none" if value is None else f"{value:.2f}"
