"""Mission scenario configuration: flat key-value text format.

Lines are ``section.key = value`` with ``#`` comments.  Tuples are comma
separated, schedules are space-separated ``time:items`` entries, e.g.::

    partition.r_max = 50
    sim.dt = 0.02
    leader.velocity = 0:1.0,0.5
    follower1.initial_position = -29.9,9.1
    follower1.offsets = 0:12,10 50:-30,-10

Unknown keys are rejected; every key is optional, and an absent one keeps
the :class:`ScenarioConfig` default.  An error in a file's contents starts
with its path, and with the line of the key at fault where there is one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ParseError, ValidationError, _read_text
from .polar import DEFAULT_KAPPA, PolarPartition

__all__ = ["FollowerConfig", "ScenarioConfig", "parse_scenario", "loads_scenario"]


class FollowerConfig(NamedTuple):
    initial_position: tuple = (0.0, 0.0)  # leader frame at t = 0
    offsets: tuple = ((0.0, 0.0, 0.0),)  # (time, dx, dy), piecewise constant


#: Float keys and the :class:`ScenarioConfig` field each sets, in the order
#: in which ``validate`` checks them.  The file gives the front half-angle
#: in degrees, the field holds radians.
_FLOAT_KEYS = {
    "sim.dt": "dt",
    "sim.t_end": "t_end",
    "sim.u_max": "u_max",
    "sim.speed": "speed",
    "sim.kappa": "kappa",
    "avoid.alarm_radius": "alarm_radius",
    "avoid.release_radius": "release_radius",
    "avoid.front_half_angle_deg": "front_half_angle",
}


class ScenarioConfig(NamedTuple):
    partition: PolarPartition = PolarPartition(50.0, 6, 9)
    dt: float = 0.02
    t_end: float = 150.0
    u_max: float = 5.0
    speed: float = 2.0
    kappa: float = DEFAULT_KAPPA
    alarm_radius: float = 8.0
    release_radius: float = 12.0
    front_half_angle: float = math.radians(60.0)
    leader_velocity: tuple = ((0.0, 0.0, 0.0),)
    followers: tuple = (FollowerConfig(), FollowerConfig())

    def validate(self) -> "ScenarioConfig":
        """This config, or :class:`ValidationError` for the first invariant
        it violates.  A message about one key starts with that key."""
        # a single sector has no angular facet for an avoidance turn
        if self.partition.n_theta < 3:
            raise ValidationError("partition.n_theta must be at least 3 to simulate")
        for (key, name) in _FLOAT_KEYS.items():
            _check_finite(key, getattr(self, name))
        if self.dt <= 0:
            raise ValidationError("sim.dt must be positive")
        if self.t_end < 0:
            raise ValidationError("sim.t_end must be nonnegative")
        if not math.isfinite(self.t_end / self.dt):
            raise ValidationError("sim.t_end / sim.dt must be finite (the step count)")
        if self.speed <= 0:
            raise ValidationError("sim.speed must be positive")
        if self.u_max < 0:
            raise ValidationError("sim.u_max must be nonnegative")
        if not 0 < self.kappa <= 1:
            raise ValidationError("sim.kappa must be in (0, 1]")
        if self.alarm_radius <= 0:
            raise ValidationError("avoid.alarm_radius must be positive")
        if self.release_radius <= self.alarm_radius:
            raise ValidationError(
                "avoid.release_radius must exceed avoid.alarm_radius (hysteresis)"
            )
        if not 0 < self.front_half_angle <= math.pi:
            raise ValidationError("avoid.front_half_angle_deg must be in (0, 180]")
        if len(self.followers) != 2:
            raise ValidationError("exactly two followers are required")
        _check_schedule("leader.velocity", self.leader_velocity)
        for idx, f in enumerate(self.followers, start=1):
            _check_finite(f"follower{idx}.initial_position", *f.initial_position)
            _check_schedule(f"follower{idx}.offsets", f.offsets)
        return self

    def switch_times(self) -> tuple:
        """Times (beyond zero) at which any follower offset changes."""
        times = set()
        for f in self.followers:
            for (t, _, _) in f.offsets:
                if t > 0:
                    times.add(t)
        return tuple(sorted(times))


def _check_finite(name: str, *values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"{name} must be finite")


def _check_schedule(name: str, schedule) -> None:
    if not schedule:
        raise ValidationError(f"{name} must have at least one entry")
    for entry in schedule:
        _check_finite(name, *entry)
    times = [entry[0] for entry in schedule]
    if times[0] != 0:
        raise ValidationError(f"{name} must start at time 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValidationError(f"{name} times must be strictly increasing")


def schedule_at(schedule, t: float):
    """Value of a piecewise-constant schedule at time t."""
    current = schedule[0]
    for entry in schedule:
        if entry[0] <= t:
            current = entry
        else:
            break
    return current[1:]


def _parse_float(value: str, key: str, path, lineno):
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"{key}: bad number {value!r}", path, lineno) from None


def _parse_int(value: str, key: str, path, lineno):
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{key}: bad integer {value!r}", path, lineno) from None


def _parse_pair(value: str, key: str, path, lineno):
    parts = value.split(",")
    if len(parts) != 2:
        raise ParseError(f"{key} expects 'x,y'", path, lineno)
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise ParseError(f"{key}: bad number in {value!r}", path, lineno) from None


def _parse_schedule(value: str, key: str, path, lineno):
    entries = []
    for item in value.split():
        if ":" not in item:
            raise ParseError(f"{key} entries look like 'time:x,y'", path, lineno)
        t_str, _, rest = item.partition(":")
        try:
            t = float(t_str)
        except ValueError:
            raise ParseError(f"{key}: bad time {t_str!r}", path, lineno) from None
        (x, y) = _parse_pair(rest, key, path, lineno)
        entries.append((t, x, y))
    if not entries:
        raise ParseError(f"{key} must not be empty", path, lineno)
    return tuple(entries)


#: Every key the parser accepts and the reader of its value, in the order
#: in which ``loads_scenario`` reads them.
_READERS = {
    "partition.r_max": _parse_float,
    "partition.n_r": _parse_int,
    "partition.n_theta": _parse_int,
    "follower1.initial_position": _parse_pair,
    "follower1.offsets": _parse_schedule,
    "follower2.initial_position": _parse_pair,
    "follower2.offsets": _parse_schedule,
    "leader.velocity": _parse_schedule,
    **dict.fromkeys(_FLOAT_KEYS, _parse_float),
}


def loads_scenario(text: str, path=None) -> ScenarioConfig:
    values: dict = {}
    seen_any = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        seen_any = True
        if "=" not in line:
            raise ParseError(f"expected 'key = value' in {raw!r}", path, lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _READERS:
            raise ValidationError(f"unknown key {key!r}", path, lineno)
        if key in values:
            raise ParseError(f"duplicate key {key!r}", path, lineno)
        values[key] = (value, lineno)
    if not seen_any:
        raise ParseError("empty scenario file", path)
    # an absent key keeps the ScenarioConfig default
    base = ScenarioConfig()

    def read(key, default):
        if key not in values:
            return default
        (value, lineno) = values[key]
        return _READERS[key](value, key, path, lineno)

    def located(message):
        # a message about one key starts with that key
        (_, line) = values.get(message.split(" ", 1)[0], (None, None))
        return ValidationError(message, path, line)

    # each partition key is ``partition.`` and the field's name
    p = base.partition
    try:
        partition = p._make(read(f"partition.{name}", v) for (name, v) in p._asdict().items())
    except ValueError as exc:
        raise located(f"partition.{exc}") from exc
    followers = tuple(
        FollowerConfig(
            read(f"follower{k}.initial_position", f.initial_position),
            read(f"follower{k}.offsets", f.offsets),
        )
        for (k, f) in enumerate(base.followers, start=1)
    )
    leader = read("leader.velocity", base.leader_velocity)
    floats = {name: read(key, None) for (key, name) in _FLOAT_KEYS.items() if key in values}
    if "front_half_angle" in floats:
        floats["front_half_angle"] = math.radians(floats["front_half_angle"])
    cfg = ScenarioConfig(
        partition=partition, leader_velocity=leader, followers=followers, **floats
    )
    try:
        return cfg.validate()
    except ValidationError as exc:
        raise located(str(exc)) from None


def parse_scenario(path) -> ScenarioConfig:
    return loads_scenario(_read_text(path), path=path)
