"""Concrete two-agent formation models: plants, mission specs, supervisors.

Event taxonomy for agent k over an (n_r, n_theta) partition:

* actuation commands ``Cr+k``, ``Cr-k``, ``Cth+k``, ``Cth-k`` drive the
  agent into an adjacent region, ``C0_k`` holds the current region;
* detections ``d_i_j_k`` are emitted by the environment when the agent
  enters region (i, j); the first-circle subset (i = 1) signals that the
  formation position is reached;
* shared coordination events ``Ca12F/Ca12N/Ca21F/Ca21N`` (collision
  alarms: agent 2 entered agent 1's alarm zone and vice versa, Front or
  Not-front), ``Stop1``/``Stop2`` (freeze an agent in its relative frame)
  and the releases ``R12`` (releases agent 1) / ``R21`` (releases agent 2).

Commands, holds, stops and releases are controllable; alarms and
detections are not.  The release naming follows the convention that the
second index is the requesting agent, so an episode opened by ``Ca12*``
(agent 1 avoiding, agent 2 stopped) is closed by ``R21``.

This module is the one place that spells event ids: :func:`agent_alphabet`
for an agent's own events, and the per-episode tables ``ALARMS_OF_EPISODE``,
``STOP_OF_EPISODE`` and ``RELEASE_OF_EPISODE`` for the shared ones.  The
builders and the simulator read these groups.  Each builder takes the
agents' alphabets and hands its edges to :meth:`Automaton.build` as
``(source, event group, target)`` rows.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .automata import Automaton, Event, parallel_compose
from .polar import Mode, PolarPartition
from .supervision import DecomposabilityReport, check_decomposability

__all__ = [
    "AgentAlphabet",
    "agent_alphabet",
    "build_plant",
    "build_formation_spec",
    "build_collision_spec",
    "FormationModels",
    "build_models",
]

# episode k: agent k avoiding, the other agent stopped
ALARMS_OF_EPISODE = {1: ("Ca12F", "Ca12N"), 2: ("Ca21F", "Ca21N")}  # (front, not_front)
STOP_OF_EPISODE = {1: "Stop2", 2: "Stop1"}
RELEASE_OF_EPISODE = {1: "R21", 2: "R12"}
ALARM_EVENTS = ALARMS_OF_EPISODE[1] + ALARMS_OF_EPISODE[2]
COORDINATION_COMMANDS = tuple(sorted(STOP_OF_EPISODE.values())) + tuple(
    sorted(RELEASE_OF_EPISODE.values())
)
EXTERNAL_EVENTS = ALARM_EVENTS + COORDINATION_COMMANDS


def _detection(i: int, j: int, k: int) -> str:
    return f"d_{i}_{j}_{k}"


class AgentAlphabet(NamedTuple):
    """All event ids of one agent, grouped by role.

    :func:`agent_alphabet` builds every group once, the :class:`Event`
    records included; the fields are tuples.
    """

    k: int
    commands: tuple  # the four exit commands
    hold: str
    external: tuple
    modes: tuple  # the Mode of each actuation id, in actuation_ids order
    detection_ids: tuple
    first_circle: tuple  # detections announcing a first-circle region (formation reached)
    outer_detections: tuple
    actuation_ids: tuple  # the four exit commands and hold: the events that set the motion
    controllable_ids: tuple
    uncontrollable_ids: tuple
    all_ids: tuple
    events: tuple

    def detection(self, i: int, j: int) -> str:
        return _detection(i, j, self.k)

    def command(self, mode: Mode) -> str:
        """The actuation id that selects ``mode`` (hold for INVARIANT)."""
        return self.actuation_ids[self.modes.index(mode)]

    def command_mode(self, command: str) -> Mode:
        return self.modes[self.actuation_ids.index(command)]


def agent_alphabet(k: int, p: PolarPartition) -> AgentAlphabet:
    """The events of agent k (1 or 2) over the partition."""
    if k not in (1, 2):
        raise ValueError("agent index must be 1 or 2")
    (actuations, modes) = zip(
        (f"Cr+{k}", Mode.EXIT_R_PLUS),
        (f"Cr-{k}", Mode.EXIT_R_MINUS),
        (f"Cth+{k}", Mode.EXIT_TH_PLUS),
        (f"Cth-{k}", Mode.EXIT_TH_MINUS),
        (f"C0_{k}", Mode.INVARIANT),
    )
    detections = tuple(
        ((i, j), _detection(i, j, k))
        for i in range(1, p.n_r)
        for j in range(1, p.n_theta)
    )
    detection_ids = tuple(ev for (_, ev) in detections)
    own, both = frozenset([k]), frozenset([1, 2])
    return AgentAlphabet(
        k=k,
        commands=actuations[:4],
        hold=actuations[4],
        external=EXTERNAL_EVENTS,
        modes=modes,
        detection_ids=detection_ids,
        first_circle=tuple(ev for ((i, _), ev) in detections if i == 1),
        outer_detections=tuple(ev for ((i, _), ev) in detections if i != 1),
        actuation_ids=actuations,
        controllable_ids=actuations + COORDINATION_COMMANDS,
        uncontrollable_ids=ALARM_EVENTS + detection_ids,
        all_ids=actuations + detection_ids + EXTERNAL_EVENTS,
        events=tuple(
            [Event(c, True, own) for c in actuations]
            + [Event(d, False, own) for d in detection_ids]
            + [Event(e, False, both) for e in ALARM_EVENTS]
            + [Event(e, True, both) for e in COORDINATION_COMMANDS]
        ),
    )


def build_plant(al: AgentAlphabet) -> Automaton:
    """Two-state motion abstraction of agent ``al.k``.

    In the ready state a command moves the agent to the detection-wait
    state; entering a new region emits the matching detection and returns.
    The hold command and every shared coordination event leave the state
    unchanged.
    """
    ready, wait = f"R{al.k}", f"O{al.k}"
    rows = [
        (ready, al.commands, wait),
        (ready, (al.hold,) + al.external, ready),
        (wait, al.external, wait),
        (wait, al.detection_ids, ready),
    ]
    return Automaton.build([ready, wait], ready, al.events, rows, [ready])


def build_formation_spec(al: AgentAlphabet) -> Automaton:
    """Reach-and-keep specification for agent ``al.k``.

    Away from the first circle only the inward command is allowed; each
    outer-ring detection re-arms it, a first-circle detection switches to
    the hold command forever.  A collision alarm suspends the policy: the
    spec becomes fully permissive (the collision module leads) while
    tracking the agent's phase through its own commands and detections, and
    the episode-closing release resumes the policy in the tracked phase.
    All states are marked.
    """
    skeleton = (away, moving, formed) = ("away", "moving", "formed")
    rows = [
        (away, (al.command(Mode.EXIT_R_MINUS),), moving),
        (moving, al.outer_detections, away),
        (moving, al.first_circle, formed),
        (formed, (al.hold,), formed),
    ]
    rows.extend((q, COORDINATION_COMMANDS, q) for q in skeleton)
    states = list(skeleton)
    for episode in (1, 2):
        tag = f"ca{episode}{3 - episode}"
        release = RELEASE_OF_EPISODE[episode]
        suspended = tuple(ev for ev in EXTERNAL_EVENTS if ev != release)
        for q in skeleton:
            s = f"{q}_{tag}"
            states.append(s)
            rows += [
                (q, ALARMS_OF_EPISODE[episode], s),
                (s, al.commands, f"moving_{tag}"),
                (s, (al.hold,) + al.first_circle, f"formed_{tag}"),
                (s, al.outer_detections, f"away_{tag}"),
                (s, suspended, s),
                (s, (release,), q),
            ]
    return Automaton.build(states, away, al.events, rows, states)


def build_collision_spec(al1: AgentAlphabet, al2: AgentAlphabet) -> Automaton:
    """Cooperative collision-avoidance specification over both agents.

    While no alarm is active both agents act freely.  An alarm telling
    agent k that the other agent entered its zone stops the other agent,
    then lets agent k alternate anticlockwise turn commands and detections
    until either the episode release is issued (alarm cleared) or a
    first-circle detection parks agent k in formation; the release returns
    to the free state.  The stopped agent's events stay enabled where the
    plant could emit them so no uncontrollable event is ever disabled.
    All states are marked.
    """
    al = {1: al1, 2: al2}
    free = "free"
    rows = [(free, al[k].actuation_ids + al[k].detection_ids, free) for k in (1, 2)]
    states = [free]
    for k, other in ((1, 2), (2, 1)):
        a = al[k]
        (alert, turn, turning, parked) = (f"alert{k}", f"turn{k}", f"turning{k}", f"parked{k}")
        states.extend([alert, turn, turning, parked])
        release = (RELEASE_OF_EPISODE[k],)
        rows += [
            (free, ALARMS_OF_EPISODE[k], alert),
            (alert, (STOP_OF_EPISODE[k],), turn),
            (turn, (a.command(Mode.EXIT_TH_PLUS),), turning),
            (parked, (a.hold,), parked),
            (parked, release, free),
            (alert, a.detection_ids, alert),
        ]
        for src in (turn, turning):
            rows += [
                (src, a.outer_detections, turn),
                (src, a.first_circle, parked),
                (src, release, free),
            ]
        # events of the stopped agent and repeated alarms stay enabled
        rows.extend(
            (src, al[other].detection_ids + ALARM_EVENTS, src)
            for src in (alert, turn, turning, parked)
        )
    events = al1.events + al2.events  # Automaton.build merges the shared ones
    return Automaton.build(states, free, events, rows, states)


class FormationModels(NamedTuple):
    """The full model set for one partition."""

    partition: PolarPartition
    alphabet1: AgentAlphabet
    alphabet2: AgentAlphabet
    plant1: Automaton
    plant2: Automaton
    formation1: Automaton
    formation2: Automaton
    collision: Automaton
    decomposition: DecomposabilityReport  # its projections are the local supervisors

    def alphabet(self, k: int) -> AgentAlphabet:
        return self.alphabet1 if k == 1 else self.alphabet2

    def plant(self, k: int) -> Automaton:
        return self.plant1 if k == 1 else self.plant2

    def formation(self, k: int) -> Automaton:
        return self.formation1 if k == 1 else self.formation2

    def local(self, k: int) -> Automaton:
        return self.decomposition.local1 if k == 1 else self.decomposition.local2

    def agent_loop(self, k: int) -> Automaton:
        """Composed per-agent supervised plant (for membership checks)."""
        return parallel_compose((self.plant(k), self.formation(k)), self.local(k))


@lru_cache(maxsize=8)
def build_models(p: PolarPartition) -> FormationModels:
    """Plants, formation specs, the collision supervisor and its projections.

    The collision supervisor's decomposability over the two agents' event
    sets is decided once, and the report is kept as ``decomposition``,
    whether it is decomposable or not; its projections are the local
    supervisors.
    """
    alphabet1, alphabet2 = agent_alphabet(1, p), agent_alphabet(2, p)
    ac = build_collision_spec(alphabet1, alphabet2)
    return FormationModels(
        partition=p,
        alphabet1=alphabet1,
        alphabet2=alphabet2,
        plant1=build_plant(alphabet1),
        plant2=build_plant(alphabet2),
        formation1=build_formation_spec(alphabet1),
        formation2=build_formation_spec(alphabet2),
        collision=ac,
        decomposition=check_decomposability(ac, alphabet1.all_ids, alphabet2.all_ids),
    )
