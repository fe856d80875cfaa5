"""Core value types shared by the agents, the simulator, the bridge and the harness.

Everything here is an immutable dataclass. The `codec` decorator gives a
dataclass its dict round-trip (`to_dict` / `from_dict`), so the same objects
travel over the wire, into trace, world and suite files and through prompts
without a second serialization layer, and a `to_json` that writes exactly
`canonical_json(to_dict())` without building the dicts. Angles are decimal
degrees, distances decimal meters.
"""
from __future__ import annotations

import dataclasses
import json
import math
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


def make_dumps(**settings):
    """A function that writes exactly `json.dumps(data, **settings)`, for
    settings without `indent`, which the C encoder does not write.

    `json.dumps` makes a new encoder, and a new C encoder, on every call. The
    C encoder here is made once, with the same settings, and is the encoder
    that call makes; where the interpreter has no C encoder, the Python
    encoder made once here writes instead. It keeps no cycle markers, so it
    holds no state between calls and is safe across threads; a circular
    document would raise RecursionError instead of ValueError, and no
    document written with it can be circular, since each is a tree.
    """
    encoder = json.JSONEncoder(**settings)
    if json.encoder.c_make_encoder is None:
        return encoder.encode
    c_encoder = json.encoder.c_make_encoder(
        None, encoder.default,
        json.encoder.encode_basestring_ascii if encoder.ensure_ascii else json.encoder.encode_basestring,
        encoder.indent, encoder.key_separator, encoder.item_separator, encoder.sort_keys,
        encoder.skipkeys, encoder.allow_nan)

    def dumps(data) -> str:
        return "".join(c_encoder(data, 0))

    return dumps


# stable single-line JSON used for digests, traces and the wire format
canonical_json = make_dumps(sort_keys=True, separators=(",", ":"), ensure_ascii=False)
# the C scanner that json.loads runs, called without json.loads's checks around it
_SCAN = json.JSONDecoder().scan_once


def read_json(text, what: str, error=SchemaError):
    """The JSON value in `text`; malformed or too deeply nested input raises `error`.

    Every input boundary reads its JSON here: `json.loads` reports bad syntax
    as ValueError, and nesting deeper than the interpreter's recursion limit
    as RecursionError, which would otherwise escape untyped.

    A str that the scanner reads from its first character to the end, or up
    to a tail of the whitespace json.loads skips (" \t\n\r"), is returned
    from the scanner, as json.loads would return it. Anything else (bytes,
    leading whitespace, a BOM, extra data, every error) goes through
    json.loads, so values, errors and messages are json.loads's.
    """
    if type(text) is str:
        try:
            value, end = _SCAN(text, 0)
        except (StopIteration, ValueError, RecursionError):
            pass
        else:
            if end == len(text) or not text[end:].strip(" \t\n\r"):
                return value
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"cannot read {what}: {exc}") from exc


PATH_CHARS = 120  # the most characters of a path that `read_text`'s error quotes


def read_text(path, what: str, error=SchemaError) -> str:
    """The text of the UTF-8 input file at `path`; a file that cannot be read, or is not UTF-8, raises `error`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: the file is not UTF-8, or the path holds a NUL
        name, reason = str(path), exc
        if len(name) > PATH_CHARS:  # its middle is cut, and an OSError's text, which quotes it whole, left out
            half = PATH_CHARS // 2
            name, reason = f"{name[:half]}...{name[-half:]}", getattr(exc, "strerror", None) or exc
        raise error(f"cannot read {what} {name}: {reason}") from exc


# ---------------------------------------------------------------------------
# The dict codec
#
# Each coded type becomes Python source: three expressions over a local name,
# one that encodes the value it holds as plain JSON data, one that decodes the
# JSON value it holds, and one that writes the value as canonical JSON.
# `_field_plans` compiles that source with one `exec` per coded class, the way
# dataclasses compiles `__init__`, so encoding, decoding and writing run as
# straight-line code rather than as loops over per-field closures. A coded
# class gets all three of its functions from one walk of its fields. A type
# decoded by hand (`Shape`, `GlobalPlan`) calls the checkers below, so its
# messages are the codec's.

def _mismatch(expected: str, value) -> SchemaError:
    return SchemaError(f"expected {expected}, got {reprlib.repr(value)}")


def _float(value) -> float:
    if type(value) is int and -1e308 < value < 1e308:  # int-float comparison is exact
        value = float(value)
    if type(value) is float and math.isfinite(value):
        return value
    raise _mismatch("a finite number", value)


def _str(value) -> str:
    if type(value) is not str:
        raise _mismatch("a string", value)
    try:  # a lone surrogate, which a JSON "\ud800" escape decodes to, cannot be written out
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SchemaError(f"a string UTF-8 cannot encode (lone surrogate at index {exc.start}): "
                          f"{reprlib.repr(value)}") from None
    return value


def _exactly(tp, expected: str):
    def check(value):
        if type(value) is not tp:
            raise _mismatch(expected, value)
        return value

    return check


def _list(value):
    if type(value) is not list and type(value) is not tuple:
        raise _mismatch("a list", value)
    return value


def _optional_arg(tp):
    """X for Optional[X], else None."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is Union and len(args) == 2 and type(None) in args:
        return args[0] if args[1] is type(None) else args[1]
    return None


# The globals every compiled function starts from. A string is written the
# way canonical_json writes it (ensure_ascii=False); the constants keep quotes
# out of write expressions, which are spliced into f-strings.
_ENV = {
    "SchemaError": SchemaError, "mismatch": _mismatch, "seq": _list, "isfinite": math.isfinite,
    "dumps": canonical_json, "write_str": json.encoder.encode_basestring,
    "to_float": _float, "to_int": _exactly(int, "an integer"), "to_str": _str,
    "to_bool": _exactly(bool, "true or false"), "as_object": _exactly(dict, "an object"),
    "NULL": "null", "TRUE": "true", "FALSE": "false", "COMMA": ",", "LB": "[", "RB": "]", "short": reprlib.repr,
}

# scalar type -> (decode, write) source over the local {v}; the fast path
# inlines the common case, and the call on the other branch does the rest
_SCALARS = {
    float: ("({v} if type({v}) is float and isfinite({v}) else to_float({v}))",
            "(repr({v}) if type({v}) is float and isfinite({v}) else dumps({v}))"),
    int: ("({v} if type({v}) is int else to_int({v}))", "(repr({v}) if type({v}) is int else dumps({v}))"),
    str: ("({v} if type({v}) is str and {v}.isascii() else to_str({v}))",
          "(write_str({v}) if type({v}) is str else dumps({v}))"),
    bool: ("({v} if type({v}) is bool else to_bool({v}))",
           "(TRUE if {v} is True else FALSE if {v} is False else dumps({v}))"),
}


def _bind(env: dict, value, stem: str) -> str:
    """Put `value` in a compiled function's globals under a fresh name; return the name."""
    name = f"{stem}{len(env)}"
    env[name] = value
    return name


def _sources(tp, v: str, env: dict, exact: bool = False) -> tuple:
    """(encode, decode, write) for values of type `tp` held in the local `v`.

    `tp` is float, int, str, bool, Optional[X], Tuple[X, ...], dict or
    Dict[str, X], an Enum (coded by its value) or a class with `from_dict`;
    any other type raises TypeError. All three are Python expressions over
    `v`. `encode` turns the value into plain JSON data, and is `v` itself for
    a value that already is. `decode` checks a JSON value and builds the `tp`
    value from it. `write` gives the text canonical_json(encode) without
    building that data. The helpers they call are bound in `env`. An enum
    decodes by calling it, so that its `_missing_` hook can forgive a value,
    or, when `exact`, from its members' values alone.
    """
    if tp in _SCALARS:
        decode, write = _SCALARS[tp]
        return v, decode.format(v=v), write.format(v=v)
    inner = _optional_arg(tp)
    if inner is not None:
        encode, decode, write = _sources(inner, v, env, exact)
        return (v if encode == v else f"(None if {v} is None else {encode})",
                f"(None if {v} is None else {decode})", f"(NULL if {v} is None else {write})")
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    item = v + "_"
    if origin is tuple and args[-1] is Ellipsis:
        encode, decode, write = _sources(args[0], item, env, exact)
        return (f"list({v})" if encode == item else f"[{encode} for {item} in {v}]",
                f"tuple([{decode} for {item} in seq({v})])",
                f"(LB + COMMA.join([{write} for {item} in {v}]) + RB)")
    if tp is dict or origin is dict:
        decode = _sources(args[1], item, env, exact)[1] if args else item
        return f"dict({v})", f"{{k: {decode} for k, {item} in as_object({v}).items()}}", f"dumps(dict({v}))"
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {m.value: m for m in tp}

        def member(value):
            try:
                return members[value] if exact else tp(value)
            except (KeyError, ValueError, TypeError):
                raise _mismatch(f"one of {list(members)}", value) from None

        # a member is written from its text, made once here
        texts = _bind(env, {m: canonical_json(m.value) for m in tp}, "texts")
        return (f"{v}.value", f"{_bind(env, member, 'member')}({v})",
                f"({texts}[{v}] if type({v}) is {_bind(env, tp, 'enum')} else dumps({v}.value))")
    if not hasattr(tp, "from_dict"):
        raise TypeError(f"the codec cannot code {tp!r}")
    # `from_dict` is looked up at call time, so that a method patched in later is the one called
    name = _bind(env, tp, "cls")
    write = f"{v}.to_json()" if hasattr(tp, "to_json") else f"dumps({v}.to_dict())"
    return f"{v}.to_dict()", f"{name}.from_dict({v})", write


def _field_plans(cls, tag: Optional[dict], strict: bool = False) -> tuple:
    """(encode_fields, decode, to_json) of a dataclass, compiled with one `exec`
    from one walk of its fields.

    - `encode_fields(self)` is `{**tag, name: encode(self.name), ...}`, one
      dict display: a display is about three times faster than filling a dict
      field by field, and `to_dict` runs for every traced round.
    - `decode(cls, data)` is `from_dict`: one straight-line block per field
      checks and decodes it, and then its range, or fills a missing one with
      its default, None (a missing Optional) or a "missing key" error. It
      then does what the dataclass `__init__` of a frozen class does, less
      its keyword call: fills a new instance's `__dict__` with every field in
      one `update`, then runs `__post_init__`. (That leaves the instance with
      a dict of its own, whose attribute reads take about 1 ns more than
      those of one built by `__init__`; but on Python 3.11 one `update` of a
      seven-field `SimObject` takes about 500 ns where seven
      `object.__setattr__` calls take 900, and a clutter episode decodes 150
      objects and reads their fields about 2,900 times.)
    - `to_json(self)` is canonical_json(encode_fields(self)), written without
      building a dict or list: keys in sorted order, a finite float or exact
      int as its repr, a str escaped as canonical_json escapes it, a coded
      field by its own `to_json`, and anything else by canonical_json.

    `encode_fields` and `to_json` both start by loading each field into a
    local, which their expressions read.
    """
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    env = dict(_ENV, tag=tag, known=frozenset([*(tag or ()), *(f.name for f in fields)]), new=object.__new__)
    loads = []
    items = ["**tag"] if tag else []
    # key -> its `"key":value` piece of to_json's f-string; a tag's is a constant
    pieces = {key: "{" + _bind(env, canonical_json({key: value})[1:-1], "tag") + "}"
              for key, value in (tag or {}).items()}
    decode = ["def decode(cls, data):",
              "    if type(data) is not dict:",
              "        raise SchemaError(cls.__name__ + ': ' + str(mismatch('an object', data)))"]
    if strict:
        decode += ["    if not known.issuperset(data):",
                   "        raise SchemaError(f'{cls.__name__}: unknown keys {short(sorted(set(data) - known))}')"]
    call = []
    for i, f in enumerate(fields):
        x = f"x{i}"
        encode, decode_x, write = _sources(hints[f.name], x, env, strict)
        loads.append(f"    {x} = self.{f.name}")
        items.append(f"{f.name!r}: {encode}")
        # a field name is an identifier, so its key holds no quote, brace or backslash
        pieces[f.name] = canonical_json(f.name) + ":{" + write + "}"
        if f.default is not dataclasses.MISSING:
            missing = f"{x} = {_bind(env, f.default, 'default')}"
        elif f.default_factory is not dataclasses.MISSING:
            missing = f"{x} = {_bind(env, f.default_factory, 'factory')}()"
        elif _optional_arg(hints[f.name]) is not None:
            missing = f"{x} = None"
        else:
            missing = f"raise SchemaError(cls.__name__ + {': missing key ' + repr(f.name)!r})"
        decode += [f"    if {f.name!r} in data:",
                   f"        {x} = data[{f.name!r}]",
                   "        try:",
                   f"            {x} = {decode_x}",
                   "        except SchemaError as exc:",
                   f"            raise SchemaError(cls.__name__ + {'.' + f.name + ': '!r} + str(exc)) from None"]
        if "range" in f.metadata:
            low, high = f.metadata["range"]
            outside = f" outside [{low:g}, {high:g}]" if type(low) is float else f" outside [{low}, {high}]"
            decode += [f"        if not {low!r} <= {x} <= {high!r}:",
                       f"            raise SchemaError(cls.__name__ + {'.' + f.name + '='!r} + repr({x}) + {outside!r})"]
        decode += ["    else:", f"        {missing}"]
        call.append((f.name, x))
    decode += ["    self = new(cls)", f"    self.__dict__.update({', '.join(f'{name}={x}' for name, x in call)})",
               *(["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []), "    return self"]
    text = ",".join(pieces[key] for key in sorted(pieces))
    exec("\n".join(["def encode_fields(self):", *loads, f"    return {{{', '.join(items)}}}", *decode,
                    "def to_json(self):", *loads, f"    return f'{{{{{text}}}}}'"]) + "\n", env)
    return env["encode_fields"], env["decode"], env["to_json"]


def codec(cls=None, *, strict: bool = False, tag: Optional[dict] = None):
    """Give a dataclass `to_dict`, `from_dict` and `to_json`, built from its annotated fields.

    `to_dict` writes the constant `tag` entries, then every field in
    declaration order. `from_dict` checks each field's JSON type: a missing
    required key or a wrongly typed value raises SchemaError. So does a
    number outside the closed range a field declares as its metadata,
    `field(metadata={"range": (low, high)})`. A missing field takes its
    dataclass default, and a missing Optional field without one is None.
    Unknown keys are ignored, and an enum field is decoded by calling the
    enum. When `strict`, unknown keys are rejected and an enum field takes
    only a member's exact value. `to_json()` is
    always exactly `canonical_json(self.to_dict())`, written directly. All
    three are compiled by `_field_plans` once per class, on the first call of
    any of them, and then replace the stand-ins that compiled them, so later
    calls run the compiled functions directly. A method patched onto the
    class in the meantime is left in place.
    """
    if cls is None:
        return lambda c: codec(c, strict=strict, tag=tag)
    plan = None

    def resolve():
        nonlocal plan
        plan = _field_plans(cls, tag, strict)
        for name, stand_in, compiled in zip(("to_dict", "from_dict", "to_json"), stand_ins, plan):
            if cls.__dict__.get(name) is stand_in:
                setattr(cls, name, classmethod(compiled) if name == "from_dict" else compiled)
        return plan

    def to_dict(self) -> dict:
        return (plan or resolve())[0](self)

    def from_dict(cls, data):
        return (plan or resolve())[1](cls, data)

    def to_json(self) -> str:
        return (plan or resolve())[2](self)

    stand_ins = (to_dict, classmethod(from_dict), to_json)
    cls.to_dict, cls.from_dict, cls.to_json = stand_ins
    return cls


class Status(Enum):
    CONTINUE = "CONTINUE"
    FINISH = "FINISH"

    @classmethod
    def _missing_(cls, token):
        """`Status(token)` forgives surrounding whitespace and case, nothing else."""
        cleaned = token.strip().upper() if type(token) is str else None
        if cleaned in cls.__members__:
            return cls[cleaned]
        raise UnknownStatus(f"unknown status token: {reprlib.repr(token)}")


class ExecOutcome(Enum):
    OK = "ok"
    BLOCKED = "blocked"
    AVOIDED = "avoided"


# ---------------------------------------------------------------------------
# Commands

PITCH_RANGE = (-30.0, 60.0)  # the camera's pitch, in degrees: what camera_move sets

# name -> (argument name, low, high, low-inclusive)
COMMAND_SPECS = {
    "car_forward": ("distance", 0.0, 10.0, False),
    "car_back": ("distance", 0.0, 10.0, False),
    "car_left": ("angle", 0.0, 360.0, False),
    "car_right": ("angle", 0.0, 360.0, False),
    "camera_move": ("pitch", *PITCH_RANGE, True),
    "buzzer": ("duration", 0.0, 10.0, False),
}


@dataclass(frozen=True)
class Command:
    """One actuator command. Each variant takes a single numeric argument.

    The constructor range-checks the argument against COMMAND_SPECS, so every
    Command that exists is legal and no later layer checks it again.
    """

    name: str
    value: float

    def __post_init__(self):
        if self.name not in COMMAND_SPECS:
            raise UnknownCommand(f"unknown command: {reprlib.repr(self.name)}")
        if not isinstance(self.value, (int, float)) or isinstance(self.value, bool):
            raise InvalidCommand(f"{self.name}: argument must be a number")
        try:
            value = float(self.value)
        except OverflowError:  # an int too large for a float
            value = math.inf
        if not math.isfinite(value):
            raise ArgOutOfRange(f"{self.name}: argument must be finite")
        arg_name, low, high, low_inclusive = COMMAND_SPECS[self.name]
        if not ((value >= low if low_inclusive else value > low) and value <= high):
            bracket = "[" if low_inclusive else "("
            raise ArgOutOfRange(f"{self.name}: {arg_name}={value:g} outside {bracket}{low:g}, {high:g}]")
        object.__setattr__(self, "value", value)

    @property
    def arg_name(self) -> str:
        return COMMAND_SPECS[self.name][0]

    def describe(self) -> str:
        return f"{self.name}({self.arg_name}={self.value:g})"

    def to_dict(self) -> dict:
        return {"name": self.name, "args": {self.arg_name: self.value}}

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "Command":
        if not isinstance(data, dict) or "name" not in data:
            raise InvalidCommand(f"command document must be an object with a name: {reprlib.repr(data)}")
        name = data["name"]
        if not isinstance(name, str) or name not in COMMAND_SPECS:
            raise UnknownCommand(f"unknown command: {reprlib.repr(name)}")
        arg_name = COMMAND_SPECS[name][0]
        args = data.get("args")
        if not isinstance(args, dict) or len(args) != 1 or arg_name not in args:
            raise InvalidCommand(f"{name} takes exactly one argument {arg_name!r}, got {reprlib.repr(args)}")
        return cls(name, args[arg_name])


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
    """The host's plan; its document is the list of its steps."""

    steps: tuple

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps or any(not isinstance(s, str) or not s.strip() for s in steps):
            raise InvariantViolation("a plan needs at least one non-empty step")
        object.__setattr__(self, "steps", steps)

    def render(self) -> str:
        return "\n".join(f"{i + 1}. {s}" for i, s in enumerate(self.steps))

    def to_dict(self) -> list:
        return list(self.steps)

    @classmethod
    def from_dict(cls, data) -> "GlobalPlan":
        return cls(tuple([_str(step) for step in _list(data)]))


@codec(strict=True)  # only carobo writes rounds, so a status must be exactly as written
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
