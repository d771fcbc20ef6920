"""Deterministic fixed-step hybrid closed-loop simulator.

Each follower moves in a relative frame centered on its desired offset from
the leader; the active region controller gives its relative velocity, the
composed discrete supervisors (plant, formation module, local collision
module) choose commands, and the environment feeds back region-crossing
detections and collision alarms.  One step is: advance the continuous
state and detect events; on a step with events, feed the uncontrollable
ones through the automata, then emit the controllable events they enable
(stop/release first, then one actuation command per agent).

Between two events nothing discrete changes, so :func:`run_scenario`
advances each quiet stretch in one loop over plain floats (``_coast``).
That loop is the only integrator: it moves both followers inline, with
``kernels.eval_cell``'s float operations for the field, and :func:`step`
is one pass of it with its stop tests off.  Besides moving, the loop
makes only a conservative form of :func:`detect_events`'s region test
and formats the rows.  It stops before the first step that may have an
event: a follower may leave its region or the horizon, the followers may
close within the alarm radius or part beyond the release radius, or a
formation switch is due.  That step runs through :func:`step`,
:func:`detect_events` and :func:`supervisor_react`, so every event and
failure comes from them.

Everything is deterministic: identical configs produce identical
trajectories, logs and verdicts byte for byte.
"""

from __future__ import annotations

import math
from math import atan2, cos, fmod, hypot, sin, sqrt
from sys import float_info
from typing import NamedTuple, Optional

from . import kernels
from .errors import HorizonViolation, OutOfHorizon, SupervisorBlocked, ValidationError
from .models import (
    ALARM_EVENTS,
    ALARMS_OF_EPISODE,
    FormationModels,
    RELEASE_OF_EPISODE,
    STOP_OF_EPISODE,
    build_models,
)
from .polar import (
    TWO_PI,
    PolarPartition,
    RegionIndex,
    cached_controller,
    locate,
    region_bounds,
)
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


class EventRecord(NamedTuple):
    t: float
    agent: str  # "1", "2" or "world"
    event: str
    detail: str = ""

    def line(self) -> str:
        return f"t={self.t:.6f} agent={self.agent} event={self.event} detail={self.detail}"


class AgentDiscrete(NamedTuple):
    plant: str
    formation: str
    local: str
    region: RegionIndex
    command: Optional[str] = None
    stopped: bool = False


class Episode(NamedTuple):
    avoider: int  # agent index that keeps moving and turns
    cleared: bool = False


class WorldState(NamedTuple):
    step_index: int
    t: float
    leader_pos: tuple
    follower_pos: tuple  # two leader-frame positions
    offsets: tuple  # two current desired offsets
    discrete: tuple  # two AgentDiscrete
    episode: Optional[Episode] = None

    @property
    def relative(self) -> tuple:
        """The two positions minus their offsets."""
        ((x1, y1), (x2, y2)) = self.follower_pos
        ((ox1, oy1), (ox2, oy2)) = self.offsets
        return ((x1 - ox1, y1 - oy1), (x2 - ox2, y2 - oy2))

    @property
    def separation(self) -> float:
        """The distance between the followers."""
        ((x1, y1), (x2, y2)) = self.follower_pos
        return math.hypot(x1 - x2, y1 - y2)


_ROLES = ("plant", "formation", "local")

# relative margin of _coast's region test and of its clamp pre-test
_MARGIN = 1e-9
# the least radius whose square is a normal float, 2**-511
_R_MIN = sqrt(float_info.min)


class Mission:
    """Prebuilt models and per-step lookup tables for one scenario config.

    ``cfg`` is that config; the step functions read their settings from it.
    ``slots`` lists the six supervisor automata as ``(k, role, automaton,
    event ids)``, agent 1's plant, formation and local supervisor before
    agent 2's; a reaction keeps their states in a list in the same order.
    Region cells are filled on first use and reused by later steps.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.models: FormationModels = build_models(cfg.partition)
        self.used_controllers: dict = {}
        m = self.models
        autos = [(k, role, getattr(m, role)(k)) for k in (1, 2) for role in _ROLES]
        self.slots = tuple((k, role, auto, auto.event_ids) for (k, role, auto) in autos)
        self._cells: dict = {}  # (command, i, j) -> eval_cell geometry and gains
        self._bounds: dict = {}  # (i, j) -> _coast's region test

    def alphabet(self, k: int):
        return self.models.alphabet(k)

    def cell(self, k: int, region: RegionIndex, command: str) -> tuple:
        """``(r_lo, r_hi, th_lo, span, gains, r_eps)`` of agent ``k``'s
        command in a region: the ``eval_cell`` arguments that do not depend
        on the point.

        Command ids name their agent, so the command and region index are a
        complete key.
        """
        key = (command, region.i, region.j)
        cell = self._cells.get(key)
        if cell is None:
            cfg = self.cfg
            mode = self.alphabet(k).command_mode(command)
            vc = cached_controller(cfg.partition, region, mode, cfg.speed, cfg.kappa)
            self.used_controllers[(region.i, region.j, mode.value)] = vc
            (r_lo, r_hi, th_lo, th_hi) = region_bounds(cfg.partition, region)
            cell = (r_lo, r_hi, th_lo, th_hi - th_lo, vc.flat(), cfg.partition.r_eps)
            self._cells[key] = cell
        return cell

    def bounds(self, region: RegionIndex) -> tuple:
        """``(lo, hi, ax, ay, bx, by)``: the constants of ``_coast``'s
        region test, a conservative stand-in for :func:`locate`.

        A point (x, y) at radius ``r = sqrt(x*x + y*y)`` passes when
        ``lo < r < hi`` and, with more than one sector, when both ``ax*y -
        ay*x`` and ``x*by - y*bx`` exceed ``_MARGIN * r``, (ax, ay) and
        (bx, by) being the unit vectors along the sector's two rays.  The
        ring bounds lie ``_MARGIN`` inside the ring lines, relatively, and
        no ``lo`` is below ``_R_MIN``: a point nearer the origin has an
        ``x*x + y*y`` that rounds as a subnormal, or to 0, and fails.  A
        span is at most π once there are two sectors, so the two cross
        products bound the sector's wedge.  These margins exceed the
        rounding of ``sqrt`` against ``hypot`` and of the cross products
        against ``atan2`` by about six orders of magnitude, so a passing
        point is one that ``locate`` puts in this region.
        """
        key = (region.i, region.j)
        bounds = self._bounds.get(key)
        if bounds is None:
            p = self.cfg.partition
            (r_lo, r_hi, th_lo, th_hi) = region_bounds(p, region)
            bounds = (max(r_lo * (1.0 + _MARGIN), _R_MIN), r_hi * (1.0 - _MARGIN),
                      cos(th_lo), sin(th_lo), cos(th_hi), sin(th_hi))
            self._bounds[key] = bounds
        return bounds

    def choose_command(self, autos: "_Automata", k: int) -> Optional[str]:
        """The enabled actuation command of agent ``k``.

        The supervisors enable at most one actuation (a command or hold) at a
        time, so the order of the scan decides nothing.  None means no
        actuation is enabled but some controllable event is; with none at
        all the supervisors are blocked.
        """
        al = self.alphabet(k)
        choice = next((ev for ev in al.actuation_ids if autos.allows(ev)), None)
        if choice is None and not any(autos.allows(ev) for ev in al.controllable_ids):
            raise SupervisorBlocked(
                f"agent {k}: no controllable event enabled at plant={autos.plant_state(k)}"
            )
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


def _locate(p: PolarPartition, k: int, x: float, y: float) -> RegionIndex:
    """Follower ``k``'s region; :class:`HorizonViolation` beyond the horizon."""
    try:
        return locate(p, x, y)
    except OutOfHorizon:
        raise HorizonViolation(
            f"follower {k} at relative radius {math.hypot(x, y):.6g} "
            f"beyond horizon {p.r_max:.6g}"
        ) from None


def _initial_discretes(follower_pos: tuple, offsets: tuple, mission: Mission) -> tuple:
    """Both agents' discrete states at the start of a phase.

    Both followers must be within the horizon (:class:`HorizonViolation`
    otherwise) and then outside the innermost ring, because the reach
    policy needs a start outside it (:class:`ValidationError` otherwise).
    """
    p = mission.cfg.partition
    m = mission.models
    regions = [
        _locate(p, k, px - ox, py - oy)
        for (k, (px, py), (ox, oy)) in zip((1, 2), follower_pos, offsets)
    ]
    for (k, region) in enumerate(regions, start=1):
        if region.i == 1:
            raise ValidationError(
                f"follower {k} starts inside the innermost ring; the reach "
                "policy needs a start outside it"
            )
    return tuple(
        AgentDiscrete(m.plant(k).initial, m.formation(k).initial, m.local(k).initial, region)
        for (k, region) in enumerate(regions, start=1)
    )


def initial_world(mission: Mission) -> WorldState:
    """World at t = 0, before the first command selection.

    Raises :class:`HorizonViolation` or :class:`ValidationError` for a
    follower that starts beyond the horizon or inside the innermost ring.
    """
    cfg = mission.cfg
    offsets = tuple(schedule_at(f.offsets, 0.0) for f in cfg.followers)
    follower_pos = tuple(f.initial_position for f in cfg.followers)
    return WorldState(
        step_index=0,
        t=0.0,
        leader_pos=(0.0, 0.0),
        follower_pos=follower_pos,
        offsets=offsets,
        discrete=_initial_discretes(follower_pos, offsets, mission),
    )


def _relative_velocity(world: WorldState, mission: Mission, k: int):
    disc = world.discrete[k - 1]
    if disc.stopped or disc.command is None:
        return (0.0, 0.0)
    (r_lo, r_hi, th_lo, span, gains, r_eps) = mission.cell(k, disc.region, disc.command)
    (x, y) = world.relative[k - 1]
    return kernels.eval_cell(r_lo, r_hi, th_lo, span, gains, x, y, r_eps)


def step(world: WorldState, mission: Mission) -> WorldState:
    """Advance the continuous state by one Euler step of length dt.

    The step is one pass of :func:`_coast`'s loop with its stop tests off.
    The new state is not located here: :func:`detect_events` does that, so
    a step beyond the horizon does not raise.
    """
    return _coast(world, mission, None, world.step_index + 1, math.inf, 0.0, 0.0)[0]


def _wrap_angle(a: float) -> float:
    """``a`` less the nearest multiple of 2π, exactly: in [-π, π]."""
    return math.remainder(a, TWO_PI)


def _classify_alarm(world: WorldState, mission: Mission, owner: int) -> str:
    """Front when the other agent's bearing is within the half-angle of the
    owner's commanded velocity direction; toward-goal fallback when the
    owner is holding or uncommanded."""
    cfg = mission.cfg
    other = 2 if owner == 1 else 1
    (front, not_front) = ALARMS_OF_EPISODE[owner]
    (ox, oy) = world.follower_pos[owner - 1]
    (tx, ty) = world.follower_pos[other - 1]
    (vx, vy) = _relative_velocity(world, mission, owner)
    if math.hypot(vx, vy) < 1e-9:
        (rx, ry) = world.relative[owner - 1]
        if math.hypot(rx, ry) < cfg.partition.r_eps:
            return not_front
        (vx, vy) = (-rx, -ry)
    bearing = math.atan2(ty - oy, tx - ox)
    heading = math.atan2(vy, vx)
    if abs(_wrap_angle(bearing - heading)) <= cfg.front_half_angle:
        return front
    return not_front


def detect_events(world_prev: WorldState, world_next: WorldState, mission: Mission):
    """Uncontrollable and internal events between two consecutive states.

    In priority order: region-crossing detections (agent 1 before agent 2),
    at most one new collision alarm, then the internal alarm-cleared signal
    once the separation exceeds the release radius during an episode.
    Locating the followers in ``world_next`` raises
    :class:`HorizonViolation` for the first one beyond the horizon.
    """
    cfg = mission.cfg
    events = []
    for (k, (rx, ry), disc) in zip((1, 2), world_next.relative, world_prev.discrete):
        region = _locate(cfg.partition, k, rx, ry)
        if region != disc.region:
            events.append(("detection", k, region))
    sep_next = world_next.separation
    episode = world_prev.episode
    if episode is None and world_prev.separation >= cfg.alarm_radius > sep_next:
        owner = None
        for k in (1, 2):
            if not world_prev.discrete[k - 1].stopped:
                owner = k
                break
        if owner is not None:
            events.append(("alarm", owner, _classify_alarm(world_next, mission, owner)))
    elif episode is not None and not episode.cleared and sep_next > cfg.release_radius:
        events.append(("cleared", episode.avoider, None))
    return events


class _Automata:
    """Mutable view of the six automaton states during one reaction, in
    ``Mission.slots`` order."""

    __slots__ = ("slots", "state")

    def __init__(self, world: WorldState, mission: Mission):
        self.slots = mission.slots
        (d1, d2) = world.discrete
        self.state = [d1.plant, d1.formation, d1.local, d2.plant, d2.formation, d2.local]

    def allows(self, event: str) -> bool:
        """Enabled in every automaton whose alphabet contains the event."""
        state = self.state
        return all(
            auto.step(state[s], event)
            for (s, (_, _, auto, events)) in enumerate(self.slots)
            if event in events
        )

    def feed(self, event: str) -> None:
        """Advance every automaton whose alphabet contains the event, in
        slot order; :class:`SupervisorBlocked` at the first that cannot."""
        for (slot, (k, role, auto, events)) in enumerate(self.slots):
            if event not in events:
                continue
            dst = auto.step1(self.state[slot], event)
            if dst is None:
                raise SupervisorBlocked(
                    f"event {event} undefined in agent {k} {role} automaton "
                    f"at state {self.state[slot]!r}"
                )
            self.state[slot] = dst

    def plant_state(self, k: int) -> str:
        return self.state[3 * (k - 1)]

    def plant_ready(self, k: int) -> bool:
        """Agent ``k``'s plant is in its initial state: no command in flight."""
        slot = 3 * (k - 1)
        return self.state[slot] == self.slots[slot][2].initial

    def discrete(self, k: int, region, command, stopped) -> AgentDiscrete:
        (plant, formation, local) = self.state[3 * (k - 1) : 3 * k]
        return AgentDiscrete(plant, formation, local, region, command, stopped)


def supervisor_react(world: WorldState, events, mission: Mission):
    """Feed detected events through the supervisors and emit their reaction.

    Uncontrollable events advance the six automata; then, among enabled
    controllable events, stop/release requests are issued first and exactly
    one actuation command is kept active per agent (re-issued after each
    detection and release, replaced when the supervisors change the
    enabled set).
    Returns the new world state plus the event records of this reaction.

    A second reaction without events would change nothing, so the loop
    reacts only on steps with events.  Each section is switched off by its
    own action: a stop marks the agent stopped, and a release ends the
    episode.  An issued command either takes the plant out of its initial
    state or becomes the agent's recorded command, and a ``None`` choice
    records ``None``.  Apart from its events, a reaction reads only the
    discrete state and episode, and :func:`step` carries both over unchanged.
    """
    cfg = mission.cfg
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
            episode = Episode(k)
            records.append(
                EventRecord(t, str(k), event, f"separation<{cfg.alarm_radius:g}")
            )
        elif kind == "cleared":
            episode = episode._replace(cleared=True)
            records.append(
                EventRecord(t, "world", "alarm_cleared", f"separation>{cfg.release_radius:g}")
            )

    # stop / release requests of the active episode
    if episode is not None:
        stop_event = STOP_OF_EPISODE[episode.avoider]
        target = 2 if episode.avoider == 1 else 1
        if not stopped[target - 1] and autos.allows(stop_event):
            autos.feed(stop_event)
            stopped[target - 1] = True
            records.append(
                EventRecord(t, str(episode.avoider), stop_event, f"stops agent {target}")
            )
        release_event = RELEASE_OF_EPISODE[episode.avoider]
        if episode.cleared and autos.allows(release_event):
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
        if not autos.plant_ready(k):
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

    discretes = tuple(
        autos.discrete(k, regions[k - 1], commands[k - 1], stopped[k - 1]) for k in (1, 2)
    )
    return world._replace(discrete=discretes, episode=episode), records


def _apply_offset_switch(world: WorldState, mission: Mission) -> WorldState:
    """Re-center the relative frames and restart the discrete layer."""
    offsets = tuple(schedule_at(f.offsets, world.t) for f in mission.cfg.followers)
    discretes = _initial_discretes(world.follower_pos, offsets, mission)
    return world._replace(offsets=offsets, discrete=discretes, episode=None)


class _EpisodeLog:
    __slots__ = ("alarm", "t_alarm", "stop", "t_stop", "release", "t_release")

    def __init__(self, alarm: str, t_alarm: float):
        self.alarm = alarm
        self.t_alarm = t_alarm
        self.stop = self.t_stop = self.release = self.t_release = None


class ScenarioResult:
    """The trajectory, event records, verdicts and controller text of a run.
    The trajectory is held once, as ``csv``, the text of ``trajectory.csv``;
    ``csv_text()`` returns it with no copy, and ``rows`` is a tuple of its
    lines after the header.  List and dict fields default to new empty ones."""

    __slots__ = ("csv", "records", "verdicts", "controllers")
    __hash__ = None

    def __init__(self, rows=(), records=None, verdicts=None, controllers: str = ""):
        self.csv = "\n".join([CSV_HEADER, *rows, ""])
        self.records = [] if records is None else records
        self.verdicts = {} if verdicts is None else verdicts
        self.controllers = controllers

    @property
    def rows(self) -> tuple:
        return tuple(self.csv.split("\n")[1:-1])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.csv, self.records, self.verdicts, self.controllers) == (
            other.csv, other.records, other.verdicts, other.controllers
        )

    def __repr__(self):
        return (
            f"ScenarioResult(rows={self.rows!r}, records={self.records!r}, "
            f"verdicts={self.verdicts!r}, controllers={self.controllers!r})"
        )

    def csv_text(self) -> str:
        return self.csv

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


# one CSV row: the CSV_HEADER columns, floats to six decimals
_FLOATS = ",".join(["%.6f"] * 11)
_ROW = _FLOATS + ",%d,%d,%d,%d"


def _row(world: WorldState) -> str:
    (lx, ly) = world.leader_pos
    ((x1, y1), (x2, y2)) = world.follower_pos
    ((rx1, ry1), (rx2, ry2)) = world.relative
    (d1, d2) = world.discrete
    return _ROW % (
        world.t, lx, ly, lx + x1, ly + y1, lx + x2, ly + y2, rx1, ry1, rx2, ry2,
        d1.region.i, d1.region.j, d2.region.i, d2.region.j,
    )


def _follower(world: WorldState, mission: Mission, k: int) -> tuple:
    """Follower ``k``'s constants between two events: its offset, held
    flag and region index, its region's :meth:`Mission.bounds`, then
    ``eval_cell``'s ``r_lo``, ``r_hi - r_lo``, ``th_lo``, ``span``,
    ``(TWO_PI - span) * 0.5``, eight gains and ``r_eps``.  A held (stopped
    or uncommanded) follower fetches no cell; its field constants are
    placeholders that the loop never reads."""
    disc = world.discrete[k - 1]
    held = disc.stopped or disc.command is None
    (r_lo, r_hi, th_lo, span, gains, r_eps) = (
        (0.0, 1.0, 0.0, 1.0, (0.0,) * 8, 1.0) if held
        else mission.cell(k, disc.region, disc.command)
    )
    return (*world.offsets[k - 1], held, disc.region.i, disc.region.j,
            *mission.bounds(disc.region),
            r_lo, r_hi - r_lo, th_lo, span, (TWO_PI - span) * 0.5, *gains, r_eps)


def _coast(world, mission, rows, n_steps, t_switch, min_sep, min_sep_t) -> tuple:
    """Advance ``world`` through the steps that cannot have an event.

    This loop is the simulator's only integrator.  Between two events each
    follower keeps its command, region and offset, and the episode stays
    as it is, so only floats change.  Each step moves follower 1, then
    follower 2, with no call but the math functions: the field of
    ``kernels.eval_cell`` (none for a held follower) in its float
    operations on the same operands, the total velocity (leader plus
    relative) clamped to ``u_max``, and one Euler update.  It then takes
    the separation, appends the row that :func:`_row` would format to
    ``rows`` (joined once by :func:`run_scenario`) and updates the minimum
    separation.  The leader velocity is read again only when ``t`` reaches
    its next breakpoint.

    Three shortcuts leave every float as ``eval_cell`` and :func:`step`'s
    clamp compute it.  The field's radius ``sqrt(x*x + y*y)`` is the one
    the region test took of the same floats at the step before.  ``fmod``
    runs only when the angle offset is not strictly within ±2π, because
    it returns a smaller argument unchanged.  ``hypot`` runs only when the
    squared total speed exceeds ``(u_max * (1 - _MARGIN))**2``, or when
    that bound is not a normal float (``u_max`` 0, tiny or huge), or the
    sum is NaN or overflows: below the bound the clamp cannot bind.

    The loop stops before the first step that may have an event: a
    follower may leave its region or the horizon (follower 1's test
    before follower 2 moves), the separation crosses into the alarm
    radius with no episode open, or it passes the release radius during
    an episode that is not yet cleared.  It also stops at step
    ``n_steps`` and once ``t`` reaches ``t_switch``.  A stop only has to
    be conservative, because the caller runs that step with :func:`step`
    and :func:`detect_events`.  So the region test is
    :meth:`Mission.bounds`'s margin test, with no ``hypot``, ``atan2``,
    division or ``ceil``: a point it passes is one ``locate`` puts in the
    follower's region, and a point within the margin of a grid line or
    the horizon, a NaN or an overflow stops the loop.  With ``rows``
    None, as :func:`step` calls it, only the ``n_steps`` and ``t_switch``
    tests stop it, and it appends no row.

    Returns ``(world, min_sep, min_sep_t)``, with the world where the loop
    stopped (``world`` itself if it took no step).
    """
    index = world.step_index
    t = world.t
    # with no step to take, fetch no cell: the controllers text lists only
    # the controllers that some step used
    if not (index < n_steps and t < t_switch):
        return (world, min_sep, min_sep_t)
    cfg = mission.cfg
    (dt, leader, u_max) = (cfg.dt, cfg.leader_velocity, cfg.u_max)
    # below this squared speed the clamp cannot bind; -1 sends every step
    # to hypot
    cap2 = u_max * (1.0 - _MARGIN)
    cap2 *= cap2
    if not float_info.min <= cap2 <= float_info.max:
        cap2 = -1.0
    sectors = cfg.partition.n_theta > 2
    (margin, two_pi) = (_MARGIN, TWO_PI)
    (alarm_radius, release_radius) = (cfg.alarm_radius, cfg.release_radius)
    watch = rows is not None
    episode = world.episode
    watch_alarm = watch and episode is None
    watch_release = watch and episode is not None and not episode.cleared
    (ox1, oy1, held1, i1, j1, blo1, bhi1, ax1, ay1, bx1, by1, lo1, dr1, tlo1, span1, half1,
     u0r1, u0t1, u1r1, u1t1, u2r1, u2t1, u3r1, u3t1, eps1) = _follower(world, mission, 1)
    (ox2, oy2, held2, i2, j2, blo2, bhi2, ax2, ay2, bx2, by2, lo2, dr2, tlo2, span2, half2,
     u0r2, u0t2, u1r2, u1t2, u2r2, u2t2, u3r2, u3t2, eps2) = _follower(world, mission, 2)
    row = _FLOATS + f",{i1},{j1},{i2},{j2}"

    (lx, ly) = world.leader_pos
    ((x1, y1), (x2, y2)) = world.follower_pos
    ((rx1, ry1), (rx2, ry2)) = world.relative
    r1 = sqrt(rx1 * rx1 + ry1 * ry1)
    r2 = sqrt(rx2 * rx2 + ry2 * ry2)
    sep = world.separation
    t_lv = t  # the leader velocity is read at the first step
    start = index
    while index < n_steps and t < t_switch:
        if t >= t_lv:
            (lvx, lvy) = schedule_at(leader, t)
            t_lv = next((entry[0] for entry in leader if entry[0] > t), math.inf)

        # follower 1
        if held1:
            vx = vy = 0.0
        else:
            th = atan2(ry1, rx1)
            a = (r1 - lo1) / dr1
            if a < 0.0:
                a = 0.0
            elif a > 1.0:
                a = 1.0
            rel = th - tlo1
            if not -two_pi < rel < two_pi:
                rel = fmod(rel, two_pi)
            if rel < 0.0:
                rel += two_pi
            b = rel / span1
            if b > 1.0:
                b = 1.0 if rel - span1 <= half1 else 0.0
            (oma, omb) = (1.0 - a, 1.0 - b)
            (w0, w1, w2, w3) = (oma * omb, a * omb, a * b, oma * b)
            ur = w0 * u0r1 + w1 * u1r1 + w2 * u2r1 + w3 * u3r1
            ut = w0 * u0t1 + w1 * u1t1 + w2 * u2t1 + w3 * u3t1
            tang = r1 * ut / (eps1 if r1 < eps1 else r1)
            (ct, st) = (cos(th), sin(th))
            (vx, vy) = (ur * ct - tang * st, ur * st + tang * ct)
        (tvx, tvy) = (lvx + vx, lvy + vy)
        if not tvx * tvx + tvy * tvy <= cap2:
            speed = hypot(tvx, tvy)
            if speed > u_max:
                if u_max == 0.0:
                    (tvx, tvy) = (0.0, 0.0)
                else:
                    scale = u_max / speed
                    (tvx, tvy) = (tvx * scale, tvy * scale)
        nx1 = x1 + (tvx - lvx) * dt
        ny1 = y1 + (tvy - lvy) * dt
        (nrx1, nry1) = (nx1 - ox1, ny1 - oy1)
        nr1 = sqrt(nrx1 * nrx1 + nry1 * nry1)
        if watch:
            if not blo1 < nr1 < bhi1:  # near a ring line or the horizon, or NaN
                break
            if sectors:
                m = margin * nr1
                if not (ax1 * nry1 - ay1 * nrx1 > m and nrx1 * by1 - nry1 * bx1 > m):
                    break

        # follower 2, as follower 1
        if held2:
            vx = vy = 0.0
        else:
            th = atan2(ry2, rx2)
            a = (r2 - lo2) / dr2
            if a < 0.0:
                a = 0.0
            elif a > 1.0:
                a = 1.0
            rel = th - tlo2
            if not -two_pi < rel < two_pi:
                rel = fmod(rel, two_pi)
            if rel < 0.0:
                rel += two_pi
            b = rel / span2
            if b > 1.0:
                b = 1.0 if rel - span2 <= half2 else 0.0
            (oma, omb) = (1.0 - a, 1.0 - b)
            (w0, w1, w2, w3) = (oma * omb, a * omb, a * b, oma * b)
            ur = w0 * u0r2 + w1 * u1r2 + w2 * u2r2 + w3 * u3r2
            ut = w0 * u0t2 + w1 * u1t2 + w2 * u2t2 + w3 * u3t2
            tang = r2 * ut / (eps2 if r2 < eps2 else r2)
            (ct, st) = (cos(th), sin(th))
            (vx, vy) = (ur * ct - tang * st, ur * st + tang * ct)
        (tvx, tvy) = (lvx + vx, lvy + vy)
        if not tvx * tvx + tvy * tvy <= cap2:
            speed = hypot(tvx, tvy)
            if speed > u_max:
                if u_max == 0.0:
                    (tvx, tvy) = (0.0, 0.0)
                else:
                    scale = u_max / speed
                    (tvx, tvy) = (tvx * scale, tvy * scale)
        nx2 = x2 + (tvx - lvx) * dt
        ny2 = y2 + (tvy - lvy) * dt
        (nrx2, nry2) = (nx2 - ox2, ny2 - oy2)
        nr2 = sqrt(nrx2 * nrx2 + nry2 * nry2)
        if watch:
            if not blo2 < nr2 < bhi2:
                break
            if sectors:
                m = margin * nr2
                if not (ax2 * nry2 - ay2 * nrx2 > m and nrx2 * by2 - nry2 * bx2 > m):
                    break

        nsep = hypot(nx1 - nx2, ny1 - ny2)
        if watch_alarm and sep >= alarm_radius > nsep:
            break
        if watch_release and nsep > release_radius:
            break
        (x1, y1, rx1, ry1, r1) = (nx1, ny1, nrx1, nry1, nr1)
        (x2, y2, rx2, ry2, r2) = (nx2, ny2, nrx2, nry2, nr2)
        sep = nsep
        index += 1
        t = index * dt
        lx = lx + lvx * dt
        ly = ly + lvy * dt
        if watch:
            rows.append(row % (t, lx, ly, lx + x1, ly + y1, lx + x2, ly + y2, rx1, ry1, rx2, ry2))
            if sep < min_sep:
                min_sep = sep
                min_sep_t = t
    if index == start:
        return (world, min_sep, min_sep_t)
    moved = WorldState(
        index, t, (lx, ly), ((x1, y1), (x2, y2)), world.offsets, world.discrete, episode
    )
    return (moved, min_sep, min_sep_t)


#: Event records attached to a simulator failure as ``recent``.
FAILURE_RECORDS = 10


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run the closed loop to t_end and summarize what happened.

    The supervisors react at the start, after each formation switch and on
    steps with events.  Between them ``_coast`` advances the quiet steps as
    plain floats.  It stops before a step on which a follower may leave its
    region or the horizon, or the separation may cross into the alarm
    radius with no episode open or past the release radius in an episode
    not yet cleared; that step runs through :func:`step` and
    :func:`detect_events`.  It also stops when a formation switch is due
    and after the last step.  The rows go to a list that becomes the
    result's CSV text in one join after the last step.

    A start or formation switch that puts a follower inside the innermost
    ring raises :class:`ValidationError`; one that puts it beyond the
    horizon raises :class:`HorizonViolation`, as does a step that leaves
    the horizon.  A :class:`SupervisorBlocked` or
    :class:`HorizonViolation` raised after the start carries ``world``, the
    last world state reached, and ``recent``, the last
    :data:`FAILURE_RECORDS` event records.
    """
    cfg.validate()
    mission = Mission(cfg)
    world = initial_world(mission)
    rows = []
    records = []

    switch_times = list(cfg.switch_times())
    n_steps = int(round(cfg.t_end / cfg.dt))
    phase = 0
    min_sep = world.separation
    min_sep_t = 0.0

    try:
        (world, reacted) = supervisor_react(world, [], mission)
        records.extend(reacted)
        rows.append(_row(world))

        while True:
            t_switch = switch_times[0] if switch_times else math.inf
            (world, min_sep, min_sep_t) = _coast(
                world, mission, rows, n_steps, t_switch, min_sep, min_sep_t
            )
            if world.step_index >= n_steps:
                break
            if world.t >= t_switch:
                switch_times.pop(0)
                world = _apply_offset_switch(world, mission)
                phase += 1
                records.append(
                    EventRecord(world.t, "world", "formation_switch", f"phase={phase + 1}")
                )
                (world, reacted) = supervisor_react(world, [], mission)
                records.extend(reacted)

            nxt = step(world, mission)
            events = detect_events(world, nxt, mission)
            if events:
                (nxt, reacted) = supervisor_react(nxt, events, mission)
                records.extend(reacted)
            world = nxt
            rows.append(_row(world))

            if world.separation < min_sep:
                min_sep = world.separation
                min_sep_t = world.t
    except (SupervisorBlocked, HorizonViolation) as exc:
        exc.world = world
        exc.recent = tuple(records[-FAILURE_RECORDS:])
        raise

    (t_reach, episodes) = _read_records(records, mission)
    flags = []
    for k in ("1", "2"):
        for ph, value in enumerate(t_reach[k], start=1):
            if value is None:
                flags.append(f"follower {k} never reached the formation in phase {ph}")
    for idx, ep in enumerate(episodes, start=1):
        if ep.t_release is None:
            flags.append(f"episode {idx} never released")

    verdicts = {}
    for k in ("1", "2"):
        verdicts[f"t_reach_{k}"] = " ".join(_fmt_t(v) for v in t_reach[k])
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
    return ScenarioResult(rows, records, verdicts, mission.controllers_text())


def _read_records(records, mission: Mission) -> tuple:
    """Each agent's per-phase reach times and the alarm episodes of a run.

    A ``formation_switch`` record opens a phase, and an agent's first
    detection of a first-circle region in a phase is its reach time there.
    An alarm opens an episode, which the first stop and the first release
    after it fill in.  Returns ``({"1": times, "2": times}, episodes)``.
    """
    first_circle = {str(k): frozenset(mission.alphabet(k).first_circle) for k in (1, 2)}
    t_reach = {"1": [None], "2": [None]}
    episodes: list = []
    for rec in records:
        event = rec.event
        if event == "formation_switch":
            for times in t_reach.values():
                times.append(None)
        elif event in first_circle.get(rec.agent, ()):
            if t_reach[rec.agent][-1] is None:
                t_reach[rec.agent][-1] = rec.t
        elif event in ALARM_EVENTS:
            episodes.append(_EpisodeLog(event, rec.t))
        elif event in STOP_OF_EPISODE.values() and episodes[-1].stop is None:
            episodes[-1].stop = event
            episodes[-1].t_stop = rec.t
        elif event in RELEASE_OF_EPISODE.values() and episodes[-1].release is None:
            episodes[-1].release = event
            episodes[-1].t_release = rec.t
    return (t_reach, episodes)


def _fmt_t(value) -> str:
    return "none" if value is None else f"{value:.2f}"
