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


_ROLES = ("plant", "formation", "local")
_READY = {1: "R1", 2: "R2"}  # plant state of agent k with no command in flight
_NO_MOVES: dict = {}
_UNSET = object()


class Mission:
    """Prebuilt models and per-step lookup tables for one scenario config.

    ``slots`` lists the six supervisor automata as ``(k, role, automaton)``,
    agent 1's plant, formation and local supervisor before agent 2's; a
    reaction keeps their states in a list in the same order.  ``by_event``
    maps each event id to the ``(slot, class id, successor rows)`` of the
    automata whose alphabet contains it.  Region cells and command choices
    are filled on first use and reused by later steps.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.models: FormationModels = build_models(cfg.partition)
        self.used_controllers: dict = {}
        m = self.models
        self.slots = tuple(
            (k, role, getattr(m, role)(k)) for k in (1, 2) for role in _ROLES
        )
        self.by_event: dict = {}
        for (slot, (_, _, auto)) in enumerate(self.slots):
            for ev in auto.event_ids:
                self.by_event.setdefault(ev, []).append((slot, auto._class_of[ev], auto._succ))
        self._cells: dict = {}  # (command, i, j) -> eval_cell geometry and gains
        self._choices: dict = {}  # (k, six states) -> command or None

    def alphabet(self, k: int):
        return self.models.alphabet(k)

    def controller(self, region: RegionIndex, mode: Mode):
        vc = cached_controller(
            self.cfg.partition, region, mode, self.cfg.speed, self.cfg.kappa
        )
        self.used_controllers[(region.i, region.j, mode.value)] = vc
        return vc

    def cell(self, k: int, region: RegionIndex, command: str) -> tuple:
        """``(r_lo, r_hi, th_lo, span, gains)`` of agent ``k``'s command in a
        region.

        Command ids name their agent, so the command and region index are a
        complete key.
        """
        key = (command, region.i, region.j)
        cell = self._cells.get(key)
        if cell is None:
            vc = self.controller(region, self.alphabet(k).command_mode(command))
            (r_lo, r_hi, th_lo, th_hi) = region_bounds(self.cfg.partition, region)
            cell = (r_lo, r_hi, th_lo, th_hi - th_lo, vc.flat())
            self._cells[key] = cell
        return cell

    def choose_command(self, autos: "_Automata", k: int) -> Optional[str]:
        """The enabled actuation command of agent ``k``.

        The supervisors enable at most one actuation (a command or hold) at a
        time, so the order of the scan decides nothing.  The scan depends
        only on the six automaton states, so its result is memoized on them.
        None means no actuation is enabled but some controllable event is;
        with none at all the supervisors are blocked.
        """
        key = (k, *autos.state)
        choice = self._choices.get(key, _UNSET)
        if choice is _UNSET:
            al = self.alphabet(k)
            choice = next((ev for ev in al.actuation_ids if autos.enabled(ev)), None)
            if choice is None and not any(autos.enabled(ev) for ev in al.controllable_ids):
                raise SupervisorBlocked(
                    f"agent {k}: no controllable event enabled at "
                    f"plant={autos.plant_state(k)}"
                )
            self._choices[key] = choice
        return choice

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


def _check_horizon(cfg: ScenarioConfig, k: int, x: float, y: float) -> None:
    r = math.hypot(x, y)
    if r > cfg.partition.r_max:
        raise HorizonViolation(
            f"follower {k} at relative radius {r:.3f} beyond horizon "
            f"{cfg.partition.r_max:.3f}"
        )


def _locate_or_raise(cfg: ScenarioConfig, k: int, x: float, y: float) -> RegionIndex:
    _check_horizon(cfg, k, x, y)
    return locate(cfg.partition, x, y)


def _initial_discretes(
    follower_pos: tuple, offsets: tuple, cfg: ScenarioConfig, mission: Mission
) -> tuple:
    """Both agents' discrete states at the start of a phase."""
    discretes = []
    for k in (1, 2):
        (px, py) = follower_pos[k - 1]
        (ox, oy) = offsets[k - 1]
        region = _locate_or_raise(cfg, k, px - ox, py - oy)
        m = mission.models
        discretes.append(
            AgentDiscrete(m.plant(k).initial, m.formation(k).initial, m.local(k).initial, region)
        )
    return tuple(discretes)


def initial_world(cfg: ScenarioConfig, mission: Mission) -> WorldState:
    """World at t = 0, before the first command selection."""
    offsets = tuple(schedule_at(f.offsets, 0.0) for f in cfg.followers)
    follower_pos = tuple(f.initial_position for f in cfg.followers)
    return WorldState(
        step_index=0,
        t=0.0,
        leader_pos=(0.0, 0.0),
        follower_pos=follower_pos,
        offsets=offsets,
        discrete=_initial_discretes(follower_pos, offsets, cfg, mission),
    )


def _relative_velocity(world: WorldState, cfg: ScenarioConfig, mission: Mission, k: int):
    disc = world.discrete[k - 1]
    if disc.stopped or disc.command is None:
        return (0.0, 0.0)
    (r_lo, r_hi, th_lo, span, gains) = mission.cell(k, disc.region, disc.command)
    (x, y) = world.relative(k)
    return kernels.eval_cell(r_lo, r_hi, th_lo, span, gains, x, y, cfg.partition.r_eps, True)


def step(world: WorldState, cfg: ScenarioConfig, mission: Mission) -> WorldState:
    """Advance the continuous state by one Euler step of length dt.

    Stopped followers keep their relative position; every follower's total
    velocity (leader plus relative) is clamped to the velocity bound.
    """
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
    new = WorldState(
        new_index,
        new_index * cfg.dt,
        (world.leader_pos[0] + lvx * cfg.dt, world.leader_pos[1] + lvy * cfg.dt),
        tuple(new_followers),
        world.offsets,
        world.discrete,
        world.episode,
    )
    for k in (1, 2):
        (rx, ry) = new.relative(k)
        _check_horizon(cfg, k, rx, ry)
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
    owner is holding or uncommanded."""
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
    mission: Mission,
):
    """Uncontrollable and internal events between two consecutive states.

    In priority order: region-crossing detections (agent 1 before agent 2),
    at most one new collision alarm, then the internal alarm-cleared signal
    once the separation exceeds the release radius during an episode.
    """
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


class _Automata:
    """Mutable view of the six automaton states during one reaction, in
    ``Mission.slots`` order."""

    __slots__ = ("by_event", "slots", "state")

    def __init__(self, world: WorldState, mission: Mission):
        self.by_event = mission.by_event
        self.slots = mission.slots
        (d1, d2) = world.discrete
        self.state = [d1.plant, d1.formation, d1.local, d2.plant, d2.formation, d2.local]

    def enabled(self, event: str) -> bool:
        """Enabled in every automaton whose alphabet contains the event."""
        state = self.state
        for (slot, c, succ) in self.by_event.get(event, ()):
            if c not in succ.get(state[slot], _NO_MOVES):
                return False
        return True

    def feed(self, event: str) -> None:
        for (slot, _, _) in self.by_event.get(event, ()):
            (k, role, auto) = self.slots[slot]
            dst = auto.step1(self.state[slot], event)
            if dst is None:
                raise SupervisorBlocked(
                    f"event {event} undefined in agent {k} {role} automaton "
                    f"at state {self.state[slot]!r}"
                )
            self.state[slot] = dst

    def plant_state(self, k: int) -> str:
        return self.state[3 * (k - 1)]

    def discrete(self, k: int, region, command, stopped) -> AgentDiscrete:
        (plant, formation, local) = self.state[3 * (k - 1) : 3 * k]
        return AgentDiscrete(plant, formation, local, region, command, stopped)


def supervisor_react(
    world: WorldState,
    events,
    cfg: ScenarioConfig,
    mission: Mission,
):
    """Feed detected events through the supervisors and emit their reaction.

    Uncontrollable events advance the six automata; then, among enabled
    controllable events, stop/release requests are issued first and exactly
    one actuation command is kept active per agent (re-issued after each
    detection and release, replaced when the supervisors change the
    enabled set).
    Returns the new world state plus the event records of this reaction;
    when nothing changed, the world state passed in is returned.
    """
    autos = _Automata(world, mission)
    records = []
    t = world.t
    episode = world.episode
    (d1, d2) = world.discrete
    regions = [d1.region, d2.region]
    commands = [d1.command, d2.command]
    stopped = [d1.stopped, d2.stopped]
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
        if stopped[k - 1]:
            continue
        if autos.plant_state(k) != _READY[k]:
            continue  # a command is in flight; wait for its detection
        desired = mission.choose_command(autos, k)
        if desired is None:
            # no actuation available: hold position
            commands[k - 1] = None
            continue
        if desired != commands[k - 1] or detected[k - 1]:
            autos.feed(desired)
            commands[k - 1] = desired
            records.append(
                EventRecord(t, str(k), desired, f"region=({regions[k-1].i},{regions[k-1].j})")
            )

    # every automaton move, region, stop and episode change leaves a record
    if not records and commands[0] == d1.command and commands[1] == d2.command:
        return world, records
    discretes = tuple(
        autos.discrete(k, regions[k - 1], commands[k - 1], stopped[k - 1]) for k in (1, 2)
    )
    return replace(world, discrete=discretes, episode=episode), records


def _apply_offset_switch(
    world: WorldState, cfg: ScenarioConfig, mission: Mission
) -> WorldState:
    """Re-center the relative frames and restart the discrete layer."""
    offsets = tuple(schedule_at(f.offsets, world.t) for f in cfg.followers)
    discretes = _initial_discretes(world.follower_pos, offsets, cfg, mission)
    return replace(world, offsets=offsets, discrete=discretes, episode=None)


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
    ((x1, y1), (x2, y2)) = world.follower_pos
    ((ox1, oy1), (ox2, oy2)) = world.offsets
    (d1, d2) = world.discrete
    return (
        f"{world.t:.6f},{lx:.6f},{ly:.6f},"
        f"{lx + x1:.6f},{ly + y1:.6f},{lx + x2:.6f},{ly + y2:.6f},"
        f"{x1 - ox1:.6f},{y1 - oy1:.6f},{x2 - ox2:.6f},{y2 - oy2:.6f},"
        f"{d1.region.i},{d1.region.j},{d2.region.i},{d2.region.j}"
    )


#: Event records attached to a simulator failure as ``recent``.
FAILURE_RECORDS = 10


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run the closed loop to t_end and summarize what happened.

    A :class:`SupervisorBlocked` or :class:`HorizonViolation` raised during
    the run carries ``world``, the last world state reached, and
    ``recent``, the last :data:`FAILURE_RECORDS` event records.
    """
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
    first_circle = {
        k: frozenset(mission.alphabet(k).first_circle) for k in (1, 2)
    }

    try:
        world, records = supervisor_react(world, [], cfg, mission)
        result.records.extend(records)
        result.rows.append(_row(world))

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

            prev = world
            world = step(prev, cfg, mission)
            events = detect_events(prev, world, cfg, mission)
            world, records = supervisor_react(world, events, cfg, mission)
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
    except (SupervisorBlocked, HorizonViolation) as exc:
        exc.world = world
        exc.recent = tuple(result.records[-FAILURE_RECORDS:])
        raise

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
