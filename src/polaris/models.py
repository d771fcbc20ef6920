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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .automata import Automaton, Event, is_bisimilar, parallel_compose, natural_project
from .errors import NotDecomposable
from .polar import Mode, PolarPartition

__all__ = [
    "AgentAlphabet",
    "agent_alphabet",
    "build_plant",
    "build_formation_spec",
    "build_collision_spec",
    "FormationModels",
    "build_models",
]

ALARM_EVENTS = ("Ca12F", "Ca12N", "Ca21F", "Ca21N")
COORDINATION_COMMANDS = ("Stop1", "Stop2", "R12", "R21")
EXTERNAL_EVENTS = ALARM_EVENTS + COORDINATION_COMMANDS
RELEASE_OF_EPISODE = {1: "R21", 2: "R12"}  # episode k = agent k avoiding
STOP_OF_EPISODE = {1: "Stop2", 2: "Stop1"}


@dataclass(frozen=True)
class AgentAlphabet:
    """All event ids of one agent, grouped by role."""

    k: int
    commands: tuple  # the four exit commands
    hold: str
    detections: tuple  # ((i, j), id) pairs, row-major
    external: tuple

    @property
    def detection_ids(self) -> tuple:
        return tuple(ev for (_, ev) in self.detections)

    @property
    def first_circle(self) -> tuple:
        """Detections announcing a first-circle region (formation reached)."""
        return tuple(ev for ((i, _), ev) in self.detections if i == 1)

    @property
    def outer_detections(self) -> tuple:
        return tuple(ev for ((i, _), ev) in self.detections if i != 1)

    def detection(self, i: int, j: int) -> str:
        return f"d_{i}_{j}_{self.k}"

    @property
    def actuation_ids(self) -> tuple:
        """The four exit commands and hold: the events that set the agent's motion."""
        return self.commands + (self.hold,)

    @property
    def controllable_ids(self) -> tuple:
        return self.actuation_ids + COORDINATION_COMMANDS

    @property
    def uncontrollable_ids(self) -> tuple:
        return ALARM_EVENTS + self.detection_ids

    @property
    def all_ids(self) -> tuple:
        return self.actuation_ids + self.detection_ids + self.external

    def events(self) -> tuple:
        own = frozenset([self.k])
        both = frozenset([1, 2])
        evs = [Event(c, True, own) for c in self.commands]
        evs.append(Event(self.hold, True, own))
        evs.extend(Event(d, False, own) for d in self.detection_ids)
        evs.extend(Event(e, False, both) for e in ALARM_EVENTS)
        evs.extend(Event(e, True, both) for e in COORDINATION_COMMANDS)
        return tuple(evs)

    def command_mode(self, command: str) -> Mode:
        return {
            f"Cr+{self.k}": Mode.EXIT_R_PLUS,
            f"Cr-{self.k}": Mode.EXIT_R_MINUS,
            f"Cth+{self.k}": Mode.EXIT_TH_PLUS,
            f"Cth-{self.k}": Mode.EXIT_TH_MINUS,
            self.hold: Mode.INVARIANT,
        }[command]


def agent_alphabet(k: int, p: PolarPartition) -> AgentAlphabet:
    """The events of agent k (1 or 2) over the partition."""
    if k not in (1, 2):
        raise ValueError("agent index must be 1 or 2")
    commands = (f"Cr+{k}", f"Cr-{k}", f"Cth+{k}", f"Cth-{k}")
    detections = tuple(
        ((i, j), f"d_{i}_{j}_{k}")
        for i in range(1, p.n_r)
        for j in range(1, p.n_theta)
    )
    return AgentAlphabet(k, commands, f"C0_{k}", detections, EXTERNAL_EVENTS)


def build_plant(k: int, p: PolarPartition) -> Automaton:
    """Two-state motion abstraction of one agent.

    In the ready state a command moves the agent to the detection-wait
    state; entering a new region emits the matching detection and returns.
    The hold command and every shared coordination event leave the state
    unchanged.
    """
    al = agent_alphabet(k, p)
    ready, wait = f"R{k}", f"O{k}"
    trans = []
    for c in al.commands:
        trans.append((ready, c, wait))
    trans.append((ready, al.hold, ready))
    for ex in al.external:
        trans.append((ready, ex, ready))
        trans.append((wait, ex, wait))
    for d in al.detection_ids:
        trans.append((wait, d, ready))
    return Automaton.build([ready, wait], ready, al.events(), trans, [ready])


def build_formation_spec(k: int, p: PolarPartition) -> Automaton:
    """Reach-and-keep specification for one agent.

    Away from the first circle only the inward command is allowed; each
    outer-ring detection re-arms it, a first-circle detection switches to
    the hold command forever.  A collision alarm suspends the policy: the
    spec becomes fully permissive (the collision module leads) while
    tracking the agent's phase through its own commands and detections, and
    the episode-closing release resumes the policy in the tracked phase.
    All states are marked.
    """
    al = agent_alphabet(k, p)
    away, moving, formed = "away", "moving", "formed"
    skeleton = (away, moving, formed)
    trans = []
    trans.append((away, f"Cr-{k}", moving))
    for d in al.outer_detections:
        trans.append((moving, d, away))
    for d in al.first_circle:
        trans.append((moving, d, formed))
    trans.append((formed, al.hold, formed))
    for q in skeleton:
        for ex in COORDINATION_COMMANDS:
            trans.append((q, ex, q))
        trans.append((q, "Ca12F", f"{q}_ca12"))
        trans.append((q, "Ca12N", f"{q}_ca12"))
        trans.append((q, "Ca21F", f"{q}_ca21"))
        trans.append((q, "Ca21N", f"{q}_ca21"))
    states = list(skeleton)
    for episode, release in (("ca12", "R21"), ("ca21", "R12")):
        other = "R12" if release == "R21" else "R21"
        for q in skeleton:
            s = f"{q}_{episode}"
            states.append(s)
            for c in al.commands:
                trans.append((s, c, f"moving_{episode}"))
            trans.append((s, al.hold, f"formed_{episode}"))
            for d in al.outer_detections:
                trans.append((s, d, f"away_{episode}"))
            for d in al.first_circle:
                trans.append((s, d, f"formed_{episode}"))
            for ca in ALARM_EVENTS:
                trans.append((s, ca, s))
            trans.append((s, "Stop1", s))
            trans.append((s, "Stop2", s))
            trans.append((s, other, s))
            trans.append((s, release, q))
    return Automaton.build(states, away, al.events(), trans, states)


def build_collision_spec(p: PolarPartition) -> Automaton:
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
    al = {1: agent_alphabet(1, p), 2: agent_alphabet(2, p)}
    events = {}
    for k in (1, 2):
        for ev in al[k].events():
            events.setdefault(ev.id, ev)
    free = "free"
    trans = []
    for k in (1, 2):
        for c in al[k].commands + (al[k].hold,):
            trans.append((free, c, free))
        for d in al[k].detection_ids:
            trans.append((free, d, free))
    states = [free]
    for k, other in ((1, 2), (2, 1)):
        alert, turn, turning, parked = (
            f"alert{k}",
            f"turn{k}",
            f"turning{k}",
            f"parked{k}",
        )
        states.extend([alert, turn, turning, parked])
        stop = STOP_OF_EPISODE[k]
        release = RELEASE_OF_EPISODE[k]
        trans.append((free, f"Ca{k}{other}F", alert))
        trans.append((free, f"Ca{k}{other}N", alert))
        trans.append((alert, stop, turn))
        trans.append((turn, f"Cth+{k}", turning))
        for (src, dst) in ((turn, turn), (turning, turn)):
            for d in al[k].outer_detections:
                trans.append((src, d, dst))
        for src in (turn, turning):
            for d in al[k].first_circle:
                trans.append((src, d, parked))
            trans.append((src, release, free))
        trans.append((parked, al[k].hold, parked))
        trans.append((parked, release, free))
        # events of the stopped agent and repeated alarms stay enabled
        for src in (alert, turn, turning, parked):
            for d in al[other].detection_ids:
                trans.append((src, d, src))
            for ca in ALARM_EVENTS:
                trans.append((src, ca, src))
        for d in al[k].detection_ids:
            trans.append((alert, d, alert))
    return Automaton.build(states, free, tuple(events.values()), trans, states)


@dataclass(frozen=True)
class FormationModels:
    """The full model set for one partition."""

    partition: PolarPartition
    alphabet1: AgentAlphabet
    alphabet2: AgentAlphabet
    plant1: Automaton
    plant2: Automaton
    formation1: Automaton
    formation2: Automaton
    collision: Automaton
    local1: Automaton
    local2: Automaton

    def alphabet(self, k: int) -> AgentAlphabet:
        return self.alphabet1 if k == 1 else self.alphabet2

    def plant(self, k: int) -> Automaton:
        return self.plant1 if k == 1 else self.plant2

    def formation(self, k: int) -> Automaton:
        return self.formation1 if k == 1 else self.formation2

    def local(self, k: int) -> Automaton:
        return self.local1 if k == 1 else self.local2

    def agent_loop(self, k: int) -> Automaton:
        """Composed per-agent supervised plant (for membership checks)."""
        return parallel_compose(
            parallel_compose(self.plant(k), self.formation(k)), self.local(k)
        )


@lru_cache(maxsize=8)
def build_models(p: PolarPartition) -> FormationModels:
    """Plants, formation specs, the collision supervisor and its projections.

    The global collision supervisor is projected onto each agent's event
    set, and the projections must compose back to it (bisimulation); a
    failure would mean the global model is not decentralizable and is
    treated as a construction bug.
    """
    ac = build_collision_spec(p)
    alphabet1, alphabet2 = agent_alphabet(1, p), agent_alphabet(2, p)
    ac1 = natural_project(ac, frozenset(alphabet1.all_ids))
    ac2 = natural_project(ac, frozenset(alphabet2.all_ids))
    if not is_bisimilar(parallel_compose(ac1, ac2), ac):
        raise NotDecomposable("collision supervisor projections do not recompose")
    return FormationModels(
        partition=p,
        alphabet1=alphabet1,
        alphabet2=alphabet2,
        plant1=build_plant(1, p),
        plant2=build_plant(2, p),
        formation1=build_formation_spec(1, p),
        formation2=build_formation_spec(2, p),
        collision=ac,
        local1=ac1,
        local2=ac2,
    )
