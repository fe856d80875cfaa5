"""Core value types shared by the agents, the simulator, the bridge and the harness.

Everything here is an immutable dataclass. The `codec` decorator gives a
dataclass its dict round-trip (`to_dict` / `from_dict`), so the same objects
travel over the wire, into trace, world and suite files and through prompts
without a second serialization layer. Angles are decimal degrees, distances
decimal meters.
"""
from __future__ import annotations

import dataclasses
import json
import math
import operator
import reprlib
import typing
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union


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


class SchemaError(CaroboError):
    """A document does not match the type it is decoded into."""


def canonical_json(data) -> str:
    """Stable single-line JSON used for digests, traces and the wire format."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


# ---------------------------------------------------------------------------
# The dict codec

def _mismatch(expected: str, value) -> SchemaError:
    return SchemaError(f"expected {expected}, got {reprlib.repr(value)}")


def _float(value) -> float:
    if type(value) is int and -1e308 < value < 1e308:  # int-float comparison is exact
        value = float(value)
    if type(value) is float and math.isfinite(value):
        return value
    raise _mismatch("a finite number", value)


def _exactly(tp, expected: str):
    def check(value):
        if type(value) is not tp:
            raise _mismatch(expected, value)
        return value

    return check


_SCALARS = {float: _float, int: _exactly(int, "an integer"), str: _exactly(str, "a string"),
            bool: _exactly(bool, "true or false")}


def _list(value, size=None):
    if (type(value) is not list and type(value) is not tuple) or size not in (None, len(value)):
        raise _mismatch("a list" if size is None else f"a list of {size}", value)
    return value


def _nullable(fn):
    return lambda value: None if value is None else fn(value)


def _optional_arg(tp):
    """X for Optional[X], else None."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is Union and len(args) == 2 and type(None) in args:
        return args[0] if args[1] is type(None) else args[1]
    return None


def field_codec(tp):
    """(encode, decode) for values of type `tp`; encode is None for plain JSON values.

    `tp` is float, int, str, bool, Optional[X], Tuple[X, ...], a fixed tuple
    of scalars, dict or Dict[str, scalar], an Enum (coded by its value) or a
    class with `to_dict`/`from_dict`. `decode` checks one JSON value: a wrong
    JSON type, a non-finite float or an unknown enum value raises SchemaError.
    """
    if tp in _SCALARS:
        return None, _SCALARS[tp]
    inner = _optional_arg(tp)
    if inner is not None:
        encode, decode = field_codec(inner)
        return None if encode is None else _nullable(encode), _nullable(decode)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple and args[-1] is Ellipsis:
        encode, item = field_codec(args[0])
        encode_all = list if encode is None else (lambda value: [encode(v) for v in value])
        return encode_all, lambda value: tuple([item(v) for v in _list(value)])
    if origin is tuple:
        items = [field_codec(a)[1] for a in args]
        return list, lambda value: tuple([d(v) for d, v in zip(items, _list(value, len(items)))])
    if tp is dict or origin is dict:
        entry = field_codec(args[1])[1] if args else (lambda v: v)

        def mapping(value):
            if type(value) is not dict:
                raise _mismatch("an object", value)
            return {k: entry(v) for k, v in value.items()}

        return dict, mapping
    if isinstance(tp, type) and issubclass(tp, Enum):
        def member(value):
            try:
                return tp(value)
            except (ValueError, TypeError):
                raise _mismatch(f"one of {[m.value for m in tp]}", value) from None

        return operator.attrgetter("value"), member
    if not hasattr(tp, "from_dict"):
        raise TypeError(f"the codec cannot code {tp!r}")
    # looked up at call time, so that a method patched in later is the one called
    return operator.methodcaller("to_dict"), (lambda value: tp.from_dict(value))


_REQUIRED, _DEFAULTED = object(), object()


def _field_plans(cls, tag: Optional[dict]) -> tuple:
    """(encode_fields, decoders) of a dataclass.

    `encode_fields` is `self -> {**tag, name: encode(self.name), ...}`,
    compiled as one dict display the way dataclasses compiles `__init__`: a
    display is about three times faster than filling a dict field by field,
    and `to_dict` runs for every traced round and world digest. `decoders`
    holds (name, decode, when missing) per field, where `when missing` is
    _REQUIRED, _DEFAULTED or None.
    """
    hints = typing.get_type_hints(cls)
    env, items, decoders = {"tag": tag}, ["**tag"] if tag else [], []
    for i, f in enumerate(dataclasses.fields(cls)):
        tp = hints[f.name]
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING:
            missing = _DEFAULTED
        else:
            missing = None if _optional_arg(tp) is not None else _REQUIRED
        encode, decode = field_codec(tp)
        env[f"encode{i}"] = encode
        items.append(f"{f.name!r}: " + (f"self.{f.name}" if encode is None else f"encode{i}(self.{f.name})"))
        decoders.append((f.name, decode, missing))
    exec(f"def encode_fields(self):\n    return {{{', '.join(items)}}}\n", env)
    return env["encode_fields"], tuple(decoders)


def codec(cls=None, *, strict: bool = False, tag: Optional[dict] = None):
    """Give a dataclass `to_dict` and `from_dict` built from its annotated fields.

    `to_dict` writes the constant `tag` entries, then every field in
    declaration order. `from_dict` checks each field's JSON type: a missing
    required key or a wrongly typed value raises SchemaError. A missing field
    takes its dataclass default, and a missing Optional field without one is
    None. Unknown keys are ignored, or rejected when `strict`. The field plan
    is resolved once per class, on first use.
    """
    if cls is None:
        return lambda c: codec(c, strict=strict, tag=tag)
    encode_fields = decoders = None

    def resolve():
        nonlocal encode_fields, decoders
        encode_fields, decoders = _field_plans(cls, tag)

    def to_dict(self) -> dict:
        if encode_fields is None:
            resolve()
        return encode_fields(self)

    def from_dict(cls, data):
        if decoders is None:
            resolve()
        if type(data) is not dict:
            raise SchemaError(f"{cls.__name__}: {_mismatch('an object', data)}")
        if strict:
            unknown = set(data).difference(tag or (), (name for name, *_ in decoders))
            if unknown:
                raise SchemaError(f"{cls.__name__}: unknown keys {sorted(unknown)}")
        kwargs = {}
        for name, decode, missing in decoders:
            if name in data:
                try:
                    kwargs[name] = decode(data[name])
                except SchemaError as exc:
                    raise SchemaError(f"{cls.__name__}.{name}: {exc}") from None
            elif missing is _REQUIRED:
                raise SchemaError(f"{cls.__name__}: missing key {name!r}")
            elif missing is None:
                kwargs[name] = None
        return cls(**kwargs)

    cls.to_dict = to_dict
    cls.from_dict = classmethod(from_dict)
    return cls


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


@codec
@dataclass(frozen=True)
class SensorData:
    ultrasonic_clearance: float
    ir_left: bool
    ir_right: bool

    def __post_init__(self):
        if self.ultrasonic_clearance < 0:
            raise InvariantViolation("ultrasonic clearance must be >= 0")


@codec
@dataclass(frozen=True)
class VisibleObject:
    label: str
    color: str
    shape: str
    text_on_object: Optional[str]
    distance: float
    bearing: float


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


@codec
@dataclass(frozen=True)
class Observation:
    items: Tuple[VisibleObject, ...] = ()
    free_text: str = ""

    @classmethod
    def from_items(cls, items) -> "Observation":
        items = tuple(items)
        return cls(items=items, free_text=render_items(items))


@codec
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


@codec
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


@dataclass(frozen=True)
class MemoryLog:
    """Append-only log of decided rounds; round indices are log positions."""

    rounds: tuple = ()

    def __len__(self) -> int:
        return len(self.rounds)


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
