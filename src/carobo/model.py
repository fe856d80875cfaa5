"""Core value types shared by the agents, the simulator, the bridge and the harness.

Everything here is an immutable dataclass with a dict round-trip
(`to_dict` / `from_dict`) so the same objects can travel over the wire,
into trace files and through prompts without a second serialization layer.
Angles are decimal degrees, distances decimal meters.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class CaroboError(Exception):
    """Base class for every error raised by this package."""


class InvariantViolation(CaroboError):
    """A structural invariant of a value type was broken."""


class IndexMismatch(CaroboError):
    """Round index does not match its position in the memory log."""


class UnknownStatus(CaroboError):
    """Status token is neither CONTINUE nor FINISH."""


class InvalidCommand(CaroboError):
    """Command cannot be executed or constructed."""


class UnknownCommand(InvalidCommand):
    """Command name is not one of the six known variants."""


class ArgOutOfRange(InvalidCommand):
    """Command argument is outside its legal range."""


def canonical_json(data) -> str:
    """Stable single-line JSON used for digests, traces and the wire format."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


class Status(Enum):
    CONTINUE = "CONTINUE"
    FINISH = "FINISH"


def parse_status(token: str) -> Status:
    """Parse a status token: surrounding whitespace and case are forgiven, nothing else."""
    cleaned = token.strip().upper()
    if cleaned == "CONTINUE":
        return Status.CONTINUE
    if cleaned == "FINISH":
        return Status.FINISH
    raise UnknownStatus(f"unknown status token: {token!r}")


class ExecOutcome(Enum):
    OK = "ok"
    BLOCKED = "blocked"
    AVOIDED = "avoided"
    CLAMPED = "clamped"


# ---------------------------------------------------------------------------
# Commands

# name -> (argument name, low, high, low-inclusive)
COMMAND_SPECS = {
    "car_forward": ("distance", 0.0, 10.0, False),
    "car_back": ("distance", 0.0, 10.0, False),
    "car_left": ("angle", 0.0, 360.0, False),
    "car_right": ("angle", 0.0, 360.0, False),
    "camera_move": ("pitch", -30.0, 60.0, True),
    "buzzer": ("duration", 0.0, 10.0, False),
}


@dataclass(frozen=True)
class Command:
    """One actuator command. Each variant takes a single numeric argument.

    The bare constructor only checks that the variant exists and the value is a
    finite number; range validation happens in :func:`validate_command`, which
    the factory methods and the decision parser always apply. The simulator is
    deliberately lenient about camera pitch (it clamps), so a raw out-of-range
    CameraMove is representable.
    """

    name: str
    value: float

    def __post_init__(self):
        if self.name not in COMMAND_SPECS:
            raise UnknownCommand(f"unknown command: {self.name!r}")
        if not isinstance(self.value, (int, float)) or isinstance(self.value, bool):
            raise InvalidCommand(f"{self.name}: argument must be a number")
        if not math.isfinite(self.value):
            raise ArgOutOfRange(f"{self.name}: argument must be finite")
        object.__setattr__(self, "value", float(self.value))

    @property
    def arg_name(self) -> str:
        return COMMAND_SPECS[self.name][0]

    def describe(self) -> str:
        return f"{self.name}({self.arg_name}={self.value:g})"

    def to_dict(self) -> dict:
        return {"name": self.name, "args": {self.arg_name: self.value}}

    @classmethod
    def from_dict(cls, data: dict) -> "Command":
        if not isinstance(data, dict) or "name" not in data:
            raise InvalidCommand(f"command document must be an object with a name: {data!r}")
        name = data["name"]
        if not isinstance(name, str) or name not in COMMAND_SPECS:
            raise UnknownCommand(f"unknown command: {name!r}")
        arg_name = COMMAND_SPECS[name][0]
        args = data.get("args")
        if not isinstance(args, dict) or set(args.keys()) != {arg_name}:
            raise InvalidCommand(f"{name} takes exactly one argument {arg_name!r}, got {args!r}")
        cmd = cls(name, args[arg_name])
        validate_command(cmd)
        return cmd

    # validated factories
    @classmethod
    def forward(cls, distance: float) -> "Command":
        return validate_command(cls("car_forward", distance))

    @classmethod
    def back(cls, distance: float) -> "Command":
        return validate_command(cls("car_back", distance))

    @classmethod
    def left(cls, angle: float) -> "Command":
        return validate_command(cls("car_left", angle))

    @classmethod
    def right(cls, angle: float) -> "Command":
        return validate_command(cls("car_right", angle))

    @classmethod
    def camera(cls, pitch: float) -> "Command":
        return validate_command(cls("camera_move", pitch))

    @classmethod
    def buzz(cls, duration: float) -> "Command":
        return validate_command(cls("buzzer", duration))


def validate_command(cmd: Command) -> Command:
    """Range-check a command's argument; returns the command for chaining."""
    arg_name, low, high, low_inclusive = COMMAND_SPECS[cmd.name]
    ok = (cmd.value >= low if low_inclusive else cmd.value > low) and cmd.value <= high
    if not ok:
        bracket = "[" if low_inclusive else "("
        raise ArgOutOfRange(
            f"{cmd.name}: {arg_name}={cmd.value:g} outside {bracket}{low:g}, {high:g}]"
        )
    return cmd


# ---------------------------------------------------------------------------
# Requests, sensors, observations

@dataclass(frozen=True)
class UserRequest:
    text: str
    id: str = "adhoc"

    def __post_init__(self):
        if not self.text.strip():
            raise InvariantViolation("request text must be non-empty")

    def to_dict(self) -> dict:
        return {"text": self.text, "id": self.id}

    @classmethod
    def from_dict(cls, data: dict) -> "UserRequest":
        return cls(text=data["text"], id=data.get("id", "adhoc"))


@dataclass(frozen=True)
class SensorData:
    ultrasonic_clearance: float
    ir_left: bool
    ir_right: bool

    def __post_init__(self):
        if self.ultrasonic_clearance < 0:
            raise InvariantViolation("ultrasonic clearance must be >= 0")

    def to_dict(self) -> dict:
        return {
            "ultrasonic_clearance": self.ultrasonic_clearance,
            "ir_left": self.ir_left,
            "ir_right": self.ir_right,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SensorData":
        return cls(
            ultrasonic_clearance=float(data["ultrasonic_clearance"]),
            ir_left=bool(data["ir_left"]),
            ir_right=bool(data["ir_right"]),
        )


@dataclass(frozen=True)
class VisibleObject:
    label: str
    color: str
    shape: str
    text_on_object: Optional[str]
    distance: float
    bearing: float

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "color": self.color,
            "shape": self.shape,
            "text_on_object": self.text_on_object,
            "distance": self.distance,
            "bearing": self.bearing,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VisibleObject":
        return cls(
            label=data["label"],
            color=data["color"],
            shape=data["shape"],
            text_on_object=data.get("text_on_object"),
            distance=float(data["distance"]),
            bearing=float(data["bearing"]),
        )


def render_items(items: tuple) -> str:
    """The canonical free-text rendering of a visible-item list.

    Purely a function of the items so observations can be rebuilt from their
    parts; sorted input is expected (render preserves order).
    """
    if not items:
        return "nothing notable in view"
    parts = []
    for it in items:
        s = f"a {it.color} {it.label} ({it.shape}) at {it.distance:.2f} m, bearing {it.bearing:+.0f} deg"
        if it.text_on_object:
            s += f", reading '{it.text_on_object}'"
        parts.append(s)
    return "; ".join(parts)


@dataclass(frozen=True)
class Observation:
    items: tuple = ()
    free_text: str = ""

    @classmethod
    def from_items(cls, items) -> "Observation":
        items = tuple(items)
        return cls(items=items, free_text=render_items(items))

    def to_dict(self) -> dict:
        return {"items": [it.to_dict() for it in self.items], "free_text": self.free_text}

    @classmethod
    def from_dict(cls, data: dict) -> "Observation":
        return cls(
            items=tuple(VisibleObject.from_dict(d) for d in data.get("items", [])),
            free_text=data.get("free_text", ""),
        )


@dataclass(frozen=True)
class ExecResult:
    command_echo: Command
    outcome: ExecOutcome
    distance_travelled: float
    heading_change: float
    sensor_after: SensorData

    def __post_init__(self):
        if self.outcome is ExecOutcome.AVOIDED and self.heading_change != -90.0:
            raise InvariantViolation("avoided implies a -90 degree heading change")

    def to_dict(self) -> dict:
        return {
            "command_echo": self.command_echo.to_dict(),
            "outcome": self.outcome.value,
            "distance_travelled": self.distance_travelled,
            "heading_change": self.heading_change,
            "sensor_after": self.sensor_after.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecResult":
        return cls(
            command_echo=Command.from_dict(data["command_echo"]),
            outcome=ExecOutcome(data["outcome"]),
            distance_travelled=float(data["distance_travelled"]),
            heading_change=float(data["heading_change"]),
            sensor_after=SensorData.from_dict(data["sensor_after"]),
        )


# ---------------------------------------------------------------------------
# Plans, rounds, memory

@dataclass(frozen=True)
class GlobalPlan:
    steps: tuple

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps or any(not isinstance(s, str) or not s.strip() for s in steps):
            raise InvariantViolation("a plan needs at least one non-empty step")
        object.__setattr__(self, "steps", steps)

    def render(self) -> str:
        return "\n".join(f"{i + 1}. {s}" for i, s in enumerate(self.steps))

    def to_dict(self) -> dict:
        return {"steps": list(self.steps)}

    @classmethod
    def from_dict(cls, data: dict) -> "GlobalPlan":
        return cls(steps=tuple(data["steps"]))


@dataclass(frozen=True)
class Round:
    """One decided round of the execution loop.

    `action` and `exec_result` are either both present (a command was
    dispatched) or both absent (the round finished or only commented).
    """

    index: int
    observation: Observation
    comment: str
    status: Status
    thoughts: Optional[str] = None
    action: Optional[Command] = None
    exec_result: Optional[ExecResult] = None

    def __post_init__(self):
        if self.index < 0:
            raise InvariantViolation("round index must be >= 0")
        if (self.action is None) != (self.exec_result is None):
            raise InvariantViolation("action and exec_result must be present together")

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "observation": self.observation.to_dict(),
            "thoughts": self.thoughts,
            "comment": self.comment,
            "action": self.action.to_dict() if self.action else None,
            "exec_result": self.exec_result.to_dict() if self.exec_result else None,
            "status": self.status.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Round":
        return cls(
            index=int(data["index"]),
            observation=Observation.from_dict(data["observation"]),
            thoughts=data.get("thoughts"),
            comment=data["comment"],
            action=Command.from_dict(data["action"]) if data.get("action") else None,
            exec_result=ExecResult.from_dict(data["exec_result"]) if data.get("exec_result") else None,
            status=parse_status(data["status"]),
        )


@dataclass(frozen=True)
class MemoryLog:
    """Append-only log of decided rounds; round indices are log positions."""

    rounds: tuple = ()

    def __len__(self) -> int:
        return len(self.rounds)

    def to_dict(self) -> dict:
        return {"rounds": [r.to_dict() for r in self.rounds]}

    @classmethod
    def from_dict(cls, data: dict) -> "MemoryLog":
        return cls(rounds=tuple(Round.from_dict(d) for d in data.get("rounds", [])))


def append_round(log: MemoryLog, rnd: Round) -> MemoryLog:
    """Return a new log with `rnd` appended. The round's index must be len(log)."""
    if rnd.index != len(log.rounds):
        raise IndexMismatch(f"expected round index {len(log.rounds)}, got {rnd.index}")
    return MemoryLog(rounds=log.rounds + (rnd,))


def render_memory(log: MemoryLog, k: int) -> str:
    """Render the most recent min(k, len) rounds, one header line per round."""
    if k <= 0:
        return ""
    lines = []
    for rnd in log.rounds[-k:]:
        action = rnd.action.describe() if rnd.action else "none"
        outcome = rnd.exec_result.outcome.value if rnd.exec_result else "-"
        lines.append(
            f"[round {rnd.index}] comment: {rnd.comment} | action: {action}"
            f" | result: {outcome} | status: {rnd.status.value}"
        )
    return "\n".join(lines)
