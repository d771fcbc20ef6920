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
That loop is the only integrator: it reads each follower's record,
``kernels.eval_cell``'s start field included, from ``_follower``, the
one place that derives it, and computes every later field inline, with
``eval_cell``'s float operations but no clamp, and :func:`step` is one
pass of it with its stop tests off.  ``_coast`` is also the one writer
of the trajectory: every CSV row and the minimum separation.  Besides
that, the loop makes only a conservative form of
:func:`detect_events`'s region test.  It stops before the first step
that may have an event: a follower may leave its region or the horizon,
the followers may close within the alarm radius or part beyond the
release radius, or a formation switch is due.  That step runs through
:func:`step`, :func:`detect_events` and :func:`supervisor_react`, so
every event and failure comes from them; the next ``_coast`` writes the
world it leaves.

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
        self._cells: dict = {}  # (command or None, i, j) -> Mission.cell record

    def alphabet(self, k: int):
        return self.models.alphabet(k)

    def cell(self, k: int, region: RegionIndex, command: Optional[str]) -> tuple:
        """``(r_lo, r_hi, th_lo, span, gains, r_eps, lo, hi)``: the record
        of agent ``k``'s command in a region, or of a hold when ``command``
        is None.

        The first six are the ``eval_cell`` arguments that do not depend on
        the point; a hold's gains are zero, since a held follower does not
        move relative to its offset.  ``lo < r < hi`` is the ring half of
        ``_coast``'s region test: the ring lines moved in by a relative
        ``_MARGIN``, and ``lo`` at least ``_R_MIN``, below which ``x*x +
        y*y`` rounds as a subnormal, or to 0.

        Command ids name their agent, so the command and region index are a
        complete key.
        """
        key = (command, region.i, region.j)
        cell = self._cells.get(key)
        if cell is None:
            cfg = self.cfg
            if command is None:
                gains = (0.0,) * 8
            else:
                mode = self.alphabet(k).command_mode(command)
                vc = cached_controller(cfg.partition, region, mode, cfg.speed, cfg.kappa)
                self.used_controllers[(region.i, region.j, mode.value)] = vc
                gains = vc.flat()
            (r_lo, r_hi, th_lo, th_hi) = region_bounds(cfg.partition, region)
            cell = (r_lo, r_hi, th_lo, th_hi - th_lo, gains, cfg.partition.r_eps,
                    max(r_lo * (1.0 + _MARGIN), _R_MIN), r_hi * (1.0 - _MARGIN))
            self._cells[key] = cell
        return cell

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


def _start_phase(world: WorldState, mission: Mission) -> WorldState:
    """``world`` at the start of the phase that begins at ``world.t``: the
    offsets of that phase, and a restarted discrete layer, with every
    automaton in its initial state, no command, no stop and no episode.

    Both followers must be within the horizon (:class:`HorizonViolation`
    otherwise) and then outside the innermost ring, because the reach
    policy needs a start outside it (:class:`ValidationError` otherwise).
    """
    cfg = mission.cfg
    offsets = tuple(schedule_at(f.offsets, world.t) for f in cfg.followers)
    regions = [
        _locate(cfg.partition, k, px - ox, py - oy)
        for (k, (px, py), (ox, oy)) in zip((1, 2), world.follower_pos, offsets)
    ]
    for (k, region) in enumerate(regions, start=1):
        if region.i == 1:
            raise ValidationError(
                f"follower {k} starts inside the innermost ring; the reach "
                "policy needs a start outside it"
            )
    initial = [auto.initial for (_, _, auto, _) in mission.slots]
    discrete = tuple(
        AgentDiscrete(*initial[3 * (k - 1) : 3 * k], region)
        for (k, region) in enumerate(regions, start=1)
    )
    return world._replace(offsets=offsets, discrete=discrete, episode=None)


def initial_world(mission: Mission) -> WorldState:
    """World at t = 0, before the first command selection.

    Raises :class:`HorizonViolation` or :class:`ValidationError` for a
    follower that starts beyond the horizon or inside the innermost ring.
    """
    follower_pos = tuple(f.initial_position for f in mission.cfg.followers)
    return _start_phase(WorldState(0, 0.0, (0.0, 0.0), follower_pos, (), ()), mission)


def _follower(world: WorldState, mission: Mission, k: int) -> tuple:
    """Follower ``k``'s record between two events: its offset and held
    flag, then, from its :meth:`Mission.cell` record (a hold's when it is
    held: stopped or uncommanded), the ring bounds
    ``lo`` and ``hi``, ``eval_cell``'s ``r_lo``, ``r_hi - r_lo``,
    ``th_lo``, ``span``, eight gains and ``r_eps``, and last its start
    velocity: ``kernels.eval_cell`` at its relative position, clamps and
    all, or (0, 0) when it is held."""
    disc = world.discrete[k - 1]
    held = disc.stopped or disc.command is None
    (r_lo, r_hi, th_lo, span, gains, r_eps, lo, hi) = mission.cell(
        k, disc.region, None if held else disc.command
    )
    (ox, oy) = world.offsets[k - 1]
    if held:
        velocity = (0.0, 0.0)
    else:
        (x, y) = world.follower_pos[k - 1]
        velocity = kernels.eval_cell(r_lo, r_hi, th_lo, span, gains, x - ox, y - oy, r_eps)
    return (ox, oy, held, lo, hi, r_lo, r_hi - r_lo, th_lo, span, *gains, r_eps, *velocity)


def step(world: WorldState, mission: Mission) -> WorldState:
    """Advance the continuous state by one Euler step of length dt.

    The step is one pass of :func:`_coast`'s loop with its stop tests
    off, from the start velocity that :func:`_follower` gives.  The new
    state is not located here: :func:`detect_events` does that, so a step
    beyond the horizon does not raise.
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
    (vx, vy) = _follower(world, mission, owner)[-2:]
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

    A new alarm goes to the first agent that is not stopped.  But an
    agent is stopped only within an episode, and an alarm is raised only
    while none is open, so every alarm of a run goes to agent 1: agent 2
    is never the avoider, and its avoidance branch never runs.
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
    """Mutable view of one reaction at time ``t``: the six automaton
    states, in ``Mission.slots`` order, and the records of its events."""

    __slots__ = ("slots", "state", "t", "records")

    def __init__(self, world: WorldState, mission: Mission):
        self.slots = mission.slots
        (d1, d2) = world.discrete
        self.state = [d1.plant, d1.formation, d1.local, d2.plant, d2.formation, d2.local]
        self.t = world.t
        self.records = []

    def allows(self, event: str) -> bool:
        """Enabled in every automaton whose alphabet contains the event."""
        state = self.state
        return all(
            auto.step(state[s], event)
            for (s, (_, _, auto, events)) in enumerate(self.slots)
            if event in events
        )

    def fire(self, agent: int, event: str, detail: str) -> None:
        """Advance every automaton whose alphabet contains the event, in
        slot order, then record the event as agent ``agent``'s;
        :class:`SupervisorBlocked` at the first automaton that cannot, with
        the event not recorded and the reaction's records so far as its
        ``reacted``."""
        for (slot, (k, role, auto, events)) in enumerate(self.slots):
            if event not in events:
                continue
            dst = auto.step1(self.state[slot], event)
            if dst is None:
                blocked = SupervisorBlocked(
                    f"event {event} undefined in agent {k} {role} automaton "
                    f"at state {self.state[slot]!r}"
                )
                blocked.reacted = tuple(self.records)
                raise blocked
            self.state[slot] = dst
        self.records.append(EventRecord(self.t, str(agent), event, detail))

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
    episode = world.episode
    (d1, d2) = world.discrete
    regions = [d1.region, d2.region]
    commands = [d1.command, d2.command]
    stopped = [d1.stopped, d2.stopped]
    detected = [False, False]

    for (kind, k, payload) in events:
        if kind == "detection":
            region = payload
            event = mission.alphabet(k).detection(region.i, region.j)
            autos.fire(k, event, f"region=({region.i},{region.j})")
            regions[k - 1] = region
            detected[k - 1] = True
        elif kind == "alarm":
            autos.fire(k, payload, f"separation<{cfg.alarm_radius:g}")
            episode = Episode(k)
        elif kind == "cleared":
            episode = episode._replace(cleared=True)
            detail = f"separation>{cfg.release_radius:g}"
            autos.records.append(EventRecord(world.t, "world", "alarm_cleared", detail))

    # stop / release requests of the active episode
    if episode is not None:
        avoider = episode.avoider
        stop_event = STOP_OF_EPISODE[avoider]
        target = 2 if avoider == 1 else 1
        if not stopped[target - 1] and autos.allows(stop_event):
            autos.fire(avoider, stop_event, f"stops agent {target}")
            stopped[target - 1] = True
        release_event = RELEASE_OF_EPISODE[avoider]
        if episode.cleared and autos.allows(release_event):
            autos.fire(avoider, release_event, f"releases agent {target}")
            stopped[target - 1] = False
            # its command may have ended with a detection while it was stopped
            detected[target - 1] = True
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
            region = regions[k - 1]
            autos.fire(k, desired, f"region=({region.i},{region.j})")
            commands[k - 1] = desired

    discretes = tuple(
        autos.discrete(k, regions[k - 1], commands[k - 1], stopped[k - 1]) for k in (1, 2)
    )
    return world._replace(discrete=discretes, episode=episode), autos.records


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


# the float columns of a CSV row in ASCII bytes, to six decimals; _coast
# appends the four region columns.  bytes % converts each float as str %
# does, without a unicode writer
_FLOATS = b",".join([b"%.6f"] * 11)


def _coast(world, mission, rows, n_steps, t_switch, min_sep, min_sep_t) -> tuple:
    """Write ``world``'s row, then advance it while no event can occur.

    With ``rows`` a list, it first appends, in ASCII bytes, the row of its
    start world (the start after the first reaction, or the world an event
    step left), and takes that world's separation and ``t`` into the
    minimum.  The row reads the world's own regions and offsets, so a
    ``_coast`` with no step to take fetches no cell: the controllers text
    lists only the controllers that some step used.

    This loop is the simulator's only integrator.  Between two events each
    follower keeps its command, region and offset, and the episode stays
    as it is, so only floats change.  Each follower's record comes from
    :func:`_follower`, its first field included: ``kernels.eval_cell``'s,
    clamps and all, or (0, 0) when it is held.  Each step moves follower
    1, then follower 2, with no call but the math functions: the total
    velocity (leader plus relative) clamped to ``u_max``, one Euler
    update, then the new point located once, as ``kernels.integrate_cell``
    locates its points: its radius ``sqrt(x*x + y*y)``, its angle
    ``atan2(y, x)``, the angle's offset ``rel`` from ``th_lo`` in [0, 2π]
    and its cell coordinate ``b = rel / span``.  That one location serves
    the region test and then the field at the new point, in
    ``eval_cell``'s float operations on the same operands.  The step then
    takes the separation, appends its row through the start row's
    template, whose region columns hold for the whole stretch, and
    updates the minimum separation.  The leader velocity is read again
    only when ``t`` reaches its next breakpoint.

    Only a start can lie outside its region, so the field at a new point
    clamps nothing: a point that passes the region test has ``r_lo < r <
    r_hi`` and ``0 < b < 1``, so both cell coordinates lie in [0, 1].
    Two shortcuts leave every float as ``eval_cell`` and :func:`step`'s
    clamp compute it.  ``fmod`` runs only when the angle offset is not
    strictly within ±2π, because it returns a smaller argument unchanged.
    ``hypot`` runs only when the squared total speed exceeds ``(u_max *
    (1 - _MARGIN))**2``, or when that bound is not a normal float
    (``u_max`` 0, tiny or huge), or the sum is NaN or overflows: below the
    bound the clamp cannot bind.

    The loop stops before the first step that may have an event: a
    follower may leave its region or the horizon (follower 1's test
    before follower 2 moves), the separation crosses into the alarm
    radius with no episode open, or it passes the release radius during
    an episode that is not yet cleared.  It also stops at step
    ``n_steps`` and once ``t`` reaches ``t_switch``.  A stop only has to
    be conservative, because the caller runs that step with :func:`step`
    and :func:`detect_events`.  So the region test is a margin test in
    cell coordinates, with no ``hypot``, division by the grid steps or
    ``ceil``: a point passes when ``lo < r < hi``, :meth:`Mission.cell`'s
    ring bounds, and ``_MARGIN < b < 1 - _MARGIN``.  Those margins, 1e-9
    of a radius and of a sector, exceed the rounding of ``sqrt`` against
    ``hypot``, and of the angle and its offset (a few ulps of 2π) against
    ``locate``'s, by more than three orders of magnitude on any partition
    of up to a thousand sectors.  So a point that passes is one that
    ``locate`` puts in the follower's region, and a point within the
    margin of a grid line or the horizon, a NaN or an overflow stops the
    loop.  With ``rows`` None, as :func:`step` calls it, the loop takes
    exactly one step, with no region test, and appends no row, not even
    the start world's; the field it computes at that untested point is
    never used.

    Returns ``(world, min_sep, min_sep_t)``, with the world where the loop
    stopped (``world`` itself if it took no step).
    """
    index = world.step_index
    t = world.t
    (lx, ly) = world.leader_pos
    ((x1, y1), (x2, y2)) = world.follower_pos
    sep = world.separation
    watch = rows is not None
    if watch:
        # the start world's row and separation, from its regions and
        # offsets: no cell is fetched
        (d1, d2) = world.discrete
        row = _FLOATS + b",%d,%d,%d,%d" % (d1.region.i, d1.region.j, d2.region.i, d2.region.j)
        ((rx1, ry1), (rx2, ry2)) = world.relative
        rows.append(row % (t, lx, ly, lx + x1, ly + y1, lx + x2, ly + y2, rx1, ry1, rx2, ry2))
        if sep < min_sep:
            min_sep = sep
            min_sep_t = t
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
    # the sector half of the region test
    (b_min, b_max) = (_MARGIN, 1.0 - _MARGIN)
    two_pi = TWO_PI
    (alarm_radius, release_radius) = (cfg.alarm_radius, cfg.release_radius)
    episode = world.episode
    watch_alarm = watch and episode is None
    watch_release = watch and episode is not None and not episode.cleared
    (ox1, oy1, held1, in1, out1, lo1, dr1, tlo1, span1, u0r1, u0t1,
     u1r1, u1t1, u2r1, u2t1, u3r1, u3t1, eps1, vx1, vy1) = _follower(world, mission, 1)
    (ox2, oy2, held2, in2, out2, lo2, dr2, tlo2, span2, u0r2, u0t2,
     u1r2, u1t2, u2r2, u2t2, u3r2, u3t2, eps2, vx2, vy2) = _follower(world, mission, 2)

    t_lv = t  # the leader velocity is read at the first step
    start = index
    while index < n_steps and t < t_switch:
        if t >= t_lv:
            (lvx, lvy) = schedule_at(leader, t)
            t_lv = next((entry[0] for entry in leader if entry[0] > t), math.inf)

        # follower 1
        (tvx, tvy) = (lvx + vx1, lvy + vy1)
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
        # locate the new point once: the region test, then the field
        nr1 = sqrt(nrx1 * nrx1 + nry1 * nry1)
        th = atan2(nry1, nrx1)
        rel = th - tlo1
        if not -two_pi < rel < two_pi:
            rel = fmod(rel, two_pi)
        if rel < 0.0:
            rel += two_pi
        b = rel / span1
        # near a grid line or the horizon, or NaN
        if watch and not (in1 < nr1 < out1 and b_min < b < b_max):
            break
        # the region test put the new point inside the region: no clamp
        # can bind
        if not held1:
            a = (nr1 - lo1) / dr1
            (oma, omb) = (1.0 - a, 1.0 - b)
            w0 = oma * omb
            w1 = a * omb
            w2 = a * b
            w3 = oma * b
            ur = w0 * u0r1 + w1 * u1r1 + w2 * u2r1 + w3 * u3r1
            ut = w0 * u0t1 + w1 * u1t1 + w2 * u2t1 + w3 * u3t1
            tang = nr1 * ut / (eps1 if nr1 < eps1 else nr1)
            (ct, st) = (cos(th), sin(th))
            (vx1, vy1) = (ur * ct - tang * st, ur * st + tang * ct)

        # follower 2, as follower 1
        (tvx, tvy) = (lvx + vx2, lvy + vy2)
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
        th = atan2(nry2, nrx2)
        rel = th - tlo2
        if not -two_pi < rel < two_pi:
            rel = fmod(rel, two_pi)
        if rel < 0.0:
            rel += two_pi
        b = rel / span2
        if watch and not (in2 < nr2 < out2 and b_min < b < b_max):
            break
        if not held2:
            a = (nr2 - lo2) / dr2
            (oma, omb) = (1.0 - a, 1.0 - b)
            w0 = oma * omb
            w1 = a * omb
            w2 = a * b
            w3 = oma * b
            ur = w0 * u0r2 + w1 * u1r2 + w2 * u2r2 + w3 * u3r2
            ut = w0 * u0t2 + w1 * u1t2 + w2 * u2t2 + w3 * u3t2
            tang = nr2 * ut / (eps2 if nr2 < eps2 else nr2)
            (ct, st) = (cos(th), sin(th))
            (vx2, vy2) = (ur * ct - tang * st, ur * st + tang * ct)

        nsep = hypot(nx1 - nx2, ny1 - ny2)
        if watch_alarm and sep >= alarm_radius > nsep:
            break
        if watch_release and nsep > release_radius:
            break
        # plain stores: a four-name tuple assignment builds and unpacks a
        # tuple
        x1 = nx1
        y1 = ny1
        x2 = nx2
        y2 = ny2
        sep = nsep
        index += 1
        t = index * dt
        lx = lx + lvx * dt
        ly = ly + lvy * dt
        if watch:
            rows.append(
                row % (t, lx, ly, lx + x1, ly + y1, lx + x2, ly + y2, nrx1, nry1, nrx2, nry2)
            )
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
    and after the last step.  ``_coast`` writes every row, as ASCII bytes
    that one join and one decode turn into the CSV text at the end, and
    keeps the minimum separation; an event step writes neither.

    A start or formation switch that puts a follower inside the innermost
    ring raises :class:`ValidationError`; one that puts it beyond the
    horizon raises :class:`HorizonViolation`, as does a step that leaves
    the horizon.  A :class:`SupervisorBlocked` or
    :class:`HorizonViolation` raised after the start carries ``world`` and
    ``recent``, the last :data:`FAILURE_RECORDS` event records.  For a
    :class:`HorizonViolation`, ``world`` is the last world inside the
    horizon.  For a :class:`SupervisorBlocked`, it is the world whose
    reaction blocked, its discrete state as before that reaction, and
    ``recent`` ends with the records the reaction fired before the blocked
    event.
    """
    cfg.validate()
    mission = Mission(cfg)
    world = initial_world(mission)
    rows = []
    records = []

    switch_times = list(cfg.switch_times())
    n_steps = int(round(cfg.t_end / cfg.dt))
    phase = 0
    min_sep = math.inf
    min_sep_t = 0.0

    try:
        (world, reacted) = supervisor_react(world, [], mission)
        records.extend(reacted)

        while True:
            t_switch = switch_times[0] if switch_times else math.inf
            (world, min_sep, min_sep_t) = _coast(
                world, mission, rows, n_steps, t_switch, min_sep, min_sep_t
            )
            if world.step_index >= n_steps:
                break
            if world.t >= t_switch:
                switch_times.pop(0)
                world = _start_phase(world, mission)
                phase += 1
                records.append(
                    EventRecord(world.t, "world", "formation_switch", f"phase={phase + 1}")
                )
                (world, reacted) = supervisor_react(world, [], mission)
                records.extend(reacted)

            nxt = step(world, mission)
            events = detect_events(world, nxt, mission)
            world = nxt
            if events:
                (world, reacted) = supervisor_react(world, events, mission)
                records.extend(reacted)
    except (SupervisorBlocked, HorizonViolation) as exc:
        records.extend(getattr(exc, "reacted", ()))
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
    # the rows are ASCII bytes: one join and one decode give the text
    # that the result joins with its header, as it joins str rows
    text = b"\n".join(rows).decode("ascii")
    return ScenarioResult((text,), records, verdicts, mission.controllers_text())


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
