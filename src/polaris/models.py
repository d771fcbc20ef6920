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
``(source, event group, target)`` rows, every group a bit mask over one
universe of event ids.  :func:`build_models` makes the universe of both
agents' events once and builds every model over it, so the algebra on the
models never remaps a mask; a builder called alone makes the universe of
its own alphabets.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .automata import Automaton, _Alphabet, _Universe, parallel_compose
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

    :func:`agent_alphabet` builds every group once; the fields are tuples.
    """

    k: int
    commands: tuple  # the four exit commands
    hold: str
    modes: tuple  # the Mode of each actuation id, in actuation_ids order
    detection_ids: tuple
    first_circle: tuple  # detections announcing a first-circle region (formation reached)
    outer_detections: tuple
    actuation_ids: tuple  # the four exit commands and hold: the events that set the motion
    controllable_ids: tuple
    all_ids: tuple

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
    first_circle = tuple(_detection(1, j, k) for j in range(1, p.n_theta))
    outer = tuple(_detection(i, j, k) for i in range(2, p.n_r) for j in range(1, p.n_theta))
    detection_ids = first_circle + outer
    return AgentAlphabet(
        k=k,
        commands=actuations[:4],
        hold=actuations[4],
        modes=modes,
        detection_ids=detection_ids,
        first_circle=first_circle,
        outer_detections=outer,
        actuation_ids=actuations,
        controllable_ids=actuations + COORDINATION_COMMANDS,
        all_ids=actuations + detection_ids + EXTERNAL_EVENTS,
    )


def _kinds(k: int, actuation_ids: tuple, detection_ids: tuple) -> tuple:
    """``(ids, controllable, owners)`` for each kind of agent k's events."""
    own, both = frozenset([k]), frozenset([1, 2])
    return (
        (actuation_ids, True, own),
        (detection_ids, False, own),
        (ALARM_EVENTS, False, both),
        (COORDINATION_COMMANDS, True, both),
    )


def _alphabet(universe: _Universe, *als: AgentAlphabet) -> _Alphabet:
    """The agents' events as an alphabet over ``universe``; the kinds of
    the shared events are one mask for both agents."""
    return _Alphabet(universe, {
        (controllable, owners): universe.mask(ids)
        for al in als
        for (ids, controllable, owners) in _kinds(al.k, al.actuation_ids, al.detection_ids)
    })


def build_plant(al: AgentAlphabet, universe: Optional[_Universe] = None) -> Automaton:
    """Two-state motion abstraction of agent ``al.k``.

    In the ready state a command moves the agent to the detection-wait
    state; entering a new region emits the matching detection and returns.
    The hold command and every shared coordination event leave the state
    unchanged.  The events are masks over ``universe``, by default the
    universe of the agent's own events.
    """
    universe = universe or _Universe(al.all_ids)
    bits = universe.mask
    ready, wait = f"R{al.k}", f"O{al.k}"
    external = bits(EXTERNAL_EVENTS)
    rows = [
        (ready, bits(al.commands), wait),
        (ready, bits((al.hold,)) | external, ready),
        (wait, external, wait),
        (wait, bits(al.detection_ids), ready),
    ]
    return Automaton.build([ready, wait], ready, _alphabet(universe, al), rows, [ready])


def build_formation_spec(al: AgentAlphabet, universe: Optional[_Universe] = None) -> Automaton:
    """Reach-and-keep specification for agent ``al.k``.

    Away from the first circle only the inward command is allowed; each
    outer-ring detection re-arms it, a first-circle detection switches to
    the hold command forever.  A collision alarm suspends the policy: the
    spec becomes fully permissive (the collision module leads) while
    tracking the agent's phase through its own commands and detections, and
    the episode-closing release resumes the policy in the tracked phase.
    All states are marked.  The events are masks over ``universe``, as in
    :func:`build_plant`.
    """
    universe = universe or _Universe(al.all_ids)
    bits = universe.mask
    (hold, outer, first) = (bits((al.hold,)), bits(al.outer_detections), bits(al.first_circle))
    skeleton = (away, moving, formed) = ("away", "moving", "formed")
    rows = [
        (away, bits((al.command(Mode.EXIT_R_MINUS),)), moving),
        (moving, outer, away),
        (moving, first, formed),
        (formed, hold, formed),
    ]
    rows.extend((q, bits(COORDINATION_COMMANDS), q) for q in skeleton)
    states = list(skeleton)
    for episode in (1, 2):
        tag = f"ca{episode}{3 - episode}"
        release = bits((RELEASE_OF_EPISODE[episode],))
        suspended = bits(EXTERNAL_EVENTS) & ~release
        for q in skeleton:
            s = f"{q}_{tag}"
            states.append(s)
            rows += [
                (q, bits(ALARMS_OF_EPISODE[episode]), s),
                (s, bits(al.commands), f"moving_{tag}"),
                (s, hold | first, f"formed_{tag}"),
                (s, outer, f"away_{tag}"),
                (s, suspended, s),
                (s, release, q),
            ]
    return Automaton.build(states, away, _alphabet(universe, al), rows, states)


def build_collision_spec(
    al1: AgentAlphabet, al2: AgentAlphabet, universe: Optional[_Universe] = None
) -> Automaton:
    """Cooperative collision-avoidance specification over both agents.

    While no alarm is active both agents act freely.  An alarm telling
    agent k that the other agent entered its zone stops the other agent,
    then lets agent k alternate anticlockwise turn commands and detections
    until either the episode release is issued (alarm cleared) or a
    first-circle detection parks agent k in formation; the release returns
    to the free state.  The stopped agent's events stay enabled where the
    plant could emit them so no uncontrollable event is ever disabled.
    All states are marked.  The events are masks over ``universe``, by
    default the universe of both agents' events.
    """
    universe = universe or _Universe(al1.all_ids + al2.all_ids)
    bits = universe.mask
    al = {1: al1, 2: al2}
    detections = {k: bits(al[k].detection_ids) for k in (1, 2)}
    alarms = bits(ALARM_EVENTS)
    free = "free"
    rows = [(free, bits(al[k].actuation_ids) | detections[k], free) for k in (1, 2)]
    states = [free]
    for k, other in ((1, 2), (2, 1)):
        a = al[k]
        (alert, turn, turning, parked) = (f"alert{k}", f"turn{k}", f"turning{k}", f"parked{k}")
        states.extend([alert, turn, turning, parked])
        release = bits((RELEASE_OF_EPISODE[k],))
        (outer, first) = (bits(a.outer_detections), bits(a.first_circle))
        rows += [
            (free, bits(ALARMS_OF_EPISODE[k]), alert),
            (alert, bits((STOP_OF_EPISODE[k],)), turn),
            (turn, bits((a.command(Mode.EXIT_TH_PLUS),)), turning),
            (parked, bits((a.hold,)), parked),
            (parked, release, free),
            (alert, detections[k], alert),
        ]
        for src in (turn, turning):
            rows += [
                (src, outer, turn),
                (src, first, parked),
                (src, release, free),
            ]
        # events of the stopped agent and repeated alarms stay enabled
        rows.extend(
            (src, detections[other] | alarms, src) for src in (alert, turn, turning, parked)
        )
    return Automaton.build(states, free, _alphabet(universe, al1, al2), rows, states)


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
    # one universe for every model: the algebra on them never remaps a mask
    universe = _Universe(alphabet1.all_ids + alphabet2.all_ids)
    ac = build_collision_spec(alphabet1, alphabet2, universe)
    return FormationModels(
        partition=p,
        alphabet1=alphabet1,
        alphabet2=alphabet2,
        plant1=build_plant(alphabet1, universe),
        plant2=build_plant(alphabet2, universe),
        formation1=build_formation_spec(alphabet1, universe),
        formation2=build_formation_spec(alphabet2, universe),
        collision=ac,
        decomposition=check_decomposability(ac, alphabet1.all_ids, alphabet2.all_ids),
    )
