"""Core value types shared by the agents, the simulator, the bridge and the harness.

Everything here is an immutable dataclass, made, as every value class of the
package is, by the `value_class` decorator: a frozen dataclass whose
`__init__`, `__eq__`, `__hash__` and `__repr__` are compiled on their first
call, not when the module is imported. The `codec` decorator gives a
dataclass its dict round-trip (`to_dict` / `from_dict`), so the same objects
travel over the wire, into trace, world and suite files and through prompts
without a second serialization layer, and a `to_json` that writes exactly
`canonical_json(to_dict())` without building the dicts; each of these too is
compiled alone, on its own first call. Angles are decimal degrees, distances
decimal meters.
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
# Value classes and the dict codec
#
# A value class is a dataclass made by `value_class` without the `__init__`,
# `__eq__`, `__hash__` and `__repr__` that dataclasses would compile for it at
# import, whether or not a run calls them; stand-ins take their places, as they
# take the places of the codec's `to_dict`, `from_dict` and `to_json`. The
# first call of a stand-in has `_source` write that one method as Python
# source, from one walk of the class's fields, and `_method` compile it with
# one `exec`; the compiled method then replaces the stand-in, so a run
# compiles only the methods it calls. For the codec, each coded type becomes
# three expressions over a local name: one that encodes the value it holds as
# plain JSON data, one that decodes the JSON value it holds, and one that
# writes the value as canonical JSON. So encoding, decoding and writing run as
# straight-line code rather than as loops over per-field closures. A type decoded by hand (`Shape`,
# `GlobalPlan`) calls the checkers below, so its messages are the codec's.

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


class _Factory:
    """The default of an `__init__` parameter whose field has a default factory."""

    def __repr__(self) -> str:
        return "<factory>"


# The globals every compiled function starts from. A string is written the
# way canonical_json writes it (ensure_ascii=False); the constants keep quotes
# out of write expressions, which are spliced into f-strings.
_ENV = {
    "SchemaError": SchemaError, "mismatch": _mismatch, "seq": _list, "isfinite": math.isfinite,
    "dumps": canonical_json, "write_str": json.encoder.encode_basestring,
    "to_float": _float, "to_int": _exactly(int, "an integer"), "to_str": _str,
    "to_bool": _exactly(bool, "true or false"), "as_object": _exactly(dict, "an object"),
    "NULL": "null", "TRUE": "true", "FALSE": "false", "COMMA": ",", "LB": "[", "RB": "]", "short": reprlib.repr,
    "FACTORY": _Factory(),
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


CODEC_METHODS = ("to_dict", "from_dict", "to_json")
# class -> {name: stand-in}, each method its decorators promised it
_STAND_INS: dict = {}
# codec class -> (tag, strict)
_CODECS: dict = {}
# class -> {name: compiled method}, filled as its methods are first used
_COMPILED: dict = {}


def _fill(pairs: list, cls) -> list:
    """Source lines that give the new instance `self` its fields, (name, value
    source) pairs, in one `__dict__` update, and then run the class's
    `__post_init__`: the tail of both `__init__` and `from_dict`. First, NaN, a
    string or another value outside the closed range its field declares, as
    `field(metadata={"range": (low, high)})`, raises SchemaError.

    On Python 3.11, one update of a five-field instance takes about 500 ns,
    where one `object.__setattr__` per field takes 700 and a frozen
    dataclass's `__init__` 820. It leaves the instance with a dict of its own,
    whose attribute reads take about 1 ns more.
    """
    ranges = {f.name: f.metadata["range"] for f in dataclasses.fields(cls) if "range" in f.metadata}
    lines = []
    for name, x in pairs:
        if name in ranges:
            low, high = ranges[name]
            outside = f" outside [{low:g}, {high:g}]" if type(low) is float else f" outside [{low}, {high}]"
            lines += ["    try:", f"        inside = {low!r} <= {x} <= {high!r}",
                      "    except TypeError:", "        inside = False", "    if not inside:",
                      f"        raise SchemaError(self.__class__.__name__ + {'.' + name + '='!r} + repr({x}) + {outside!r})"]
    if pairs:
        lines.append(f"    self.__dict__.update({', '.join(f'{name}={x}' for name, x in pairs)})")
    return lines + (["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []) or ["    pass"]


def _default(f, env: dict) -> Optional[str]:
    """The source of field `f`'s default value, its factory called, or None if it has neither."""
    if f.default is not dataclasses.MISSING:
        return _bind(env, f.default, "default")
    if f.default_factory is not dataclasses.MISSING:
        return _bind(env, f.default_factory, "factory") + "()"
    return None


def _source(cls, name: str, fields, env: dict) -> list:
    """The source lines of the method `name` of `cls`, whose fields are
    `fields`; the helpers it calls are bound in `env`.

    `__init__`, `__eq__`, `__hash__` and `__repr__` are written as
    dataclasses writes them for a frozen class of these fields (none
    keyword-only, none an InitVar). `__init__` takes the `init` fields, gives
    the others their defaults and runs `__post_init__`. `__eq__` and
    `__hash__` read the `compare` fields (`hash`, where set, decides for
    `__hash__`), and `__repr__` the `repr` ones. The codec's three:

    - `to_dict(self)` is `{**tag, name: encode(self.name), ...}`, one dict
      display: a display is about three times faster than filling a dict
      field by field.
    - `from_dict(cls, data)`: one straight-line block per field checks and
      decodes it, or fills a missing one with its default, None (a missing
      Optional) or a "missing key" error. It then does what `__init__` does,
      less its call: `_fill`'s lines, which check the ranges.
    - `to_json(self)` is canonical_json(to_dict(self)), written without
      building a dict or list: keys in sorted order, a finite float or exact
      int as its repr, a str escaped as canonical_json escapes it, a coded
      field by its own `to_json`, and anything else by canonical_json.

    `to_dict` and `to_json` both start by loading each field into a local,
    which their expressions read.
    """
    if name == "__repr__":
        shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in fields if f.repr)
        return ["def __repr__(self):", f"    return self.__class__.__qualname__ + f'({shown})'"]
    if name == "__eq__":
        names = [f.name for f in fields if f.compare]
        return ["def __eq__(self, other):",
                "    if other.__class__ is self.__class__:",
                f"        return ({''.join(f'self.{n},' for n in names)}) == ({''.join(f'other.{n},' for n in names)})",
                "    return NotImplemented"]
    if name == "__hash__":
        names = [f.name for f in fields if (f.compare if f.hash is None else f.hash)]
        return ["def __hash__(self):", f"    return hash(({''.join(f'self.{n},' for n in names)}))"]
    if name == "__init__":
        params, factories, pairs = ["self"], [], []
        for f in fields:
            value = _default(f, env)
            if not f.init:
                if value is not None:
                    pairs.append((f.name, value))
                continue
            if f.default_factory is not dataclasses.MISSING:
                params.append(f"{f.name}=FACTORY")
                factories.append(f"    if {f.name} is FACTORY: {f.name} = {value}")
            else:
                params.append(f.name if value is None else f"{f.name}={value}")
            pairs.append((f.name, f.name))
        return [f"def __init__({', '.join(params)}):", *factories, *_fill(pairs, cls)]
    tag, strict = _CODECS[cls]
    hints = typing.get_type_hints(cls)
    codes = [_sources(hints[f.name], f"x{i}", env, strict) for i, f in enumerate(fields)]
    loads = [f"    x{i} = self.{f.name}" for i, f in enumerate(fields)]
    if name == "to_dict":
        env["tag"] = tag
        items = [*(["**tag"] if tag else []), *(f"{f.name!r}: {encode}" for f, (encode, _, _) in zip(fields, codes))]
        return ["def to_dict(self):", *loads, f"    return {{{', '.join(items)}}}"]
    if name == "to_json":
        # key -> its `"key":value` piece of the f-string; a tag's is a constant, and a
        # field name is an identifier, so its key holds no quote, brace or backslash
        pieces = {key: "{" + _bind(env, canonical_json({key: value})[1:-1], "tag") + "}"
                  for key, value in (tag or {}).items()}
        pieces.update((f.name, canonical_json(f.name) + ":{" + write + "}") for f, (_, _, write) in zip(fields, codes))
        return ["def to_json(self):", *loads, f"    return f'{{{{{','.join(pieces[key] for key in sorted(pieces))}}}}}'"]
    env.update(known=frozenset([*(tag or ()), *(f.name for f in fields)]), new=object.__new__)
    lines = ["def from_dict(cls, data):",
             "    if type(data) is not dict:",
             "        raise SchemaError(cls.__name__ + ': ' + str(mismatch('an object', data)))"]
    if strict:
        lines += ["    if not known.issuperset(data):",
                  "        raise SchemaError(f'{cls.__name__}: unknown keys {short(sorted(set(data) - known))}')"]
    for i, (f, (_, decode, _)) in enumerate(zip(fields, codes)):
        x = f"x{i}"
        value = _default(f, env) or ("None" if _optional_arg(hints[f.name]) is not None else None)
        lines += [f"    if {f.name!r} in data:",
                  f"        {x} = data[{f.name!r}]",
                  "        try:",
                  f"            {x} = {decode}",
                  "        except SchemaError as exc:",
                  f"            raise SchemaError(cls.__name__ + {'.' + f.name + ': '!r} + str(exc)) from None"]
        lines += ["    else:", f"        {x} = {value}" if value else
                  f"        raise SchemaError(cls.__name__ + {': missing key ' + repr(f.name)!r})"]
    return [*lines, "    self = new(cls)", *_fill([(f.name, f"x{i}") for i, f in enumerate(fields)], cls),
            "    return self"]


def _method(cls, name: str):
    """The compiled method `name` of `cls`.

    The first call writes that method alone, with `_source`, and compiles it
    with one `exec`, src/carobo's only one; the compiled method then takes the
    place of its stand-in, unless the class was patched there in the
    meantime (as a tracer does), so later calls skip the stand-in.
    """
    compiled = _COMPILED.setdefault(cls, {})
    method = compiled.get(name)
    if method is None:
        fields = dataclasses.fields(cls)
        env = dict(_ENV)
        exec("\n".join(_source(cls, name, fields, env)) + "\n", env)
        method = compiled[name] = env[name]
        if name not in CODEC_METHODS:  # named, and an __init__ annotated, as dataclasses does
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            if name == "__init__":
                method.__annotations__ = {**{f.name: f.type for f in fields if f.init}, "return": None}
        if cls.__dict__.get(name) is _STAND_INS[cls][name]:
            setattr(cls, name, classmethod(method) if name == "from_dict" else method)
    return method


def _install_stand_ins(cls, names) -> None:
    stand_ins = _STAND_INS.setdefault(cls, {})
    for name in names:
        stand_ins[name] = _stand_in(cls, name)
        setattr(cls, name, stand_ins[name])


def _stand_in(cls, name: str):
    """A method of `cls` that compiles its method `name` on its first call and runs it."""
    def stand_in(*args, **kwargs):
        return _method(cls, name)(*args, **kwargs)

    return classmethod(stand_in) if name == "from_dict" else stand_in


class _Signature:
    """A value class's `__signature__`: reading it compiles the class's
    `__init__` and gives None, so that `inspect.signature(cls)` goes on to
    read that `__init__`."""

    def __init__(self, cls):
        self.cls = cls

    def __get__(self, obj, owner=None):
        _method(self.cls, "__init__")
        return None


def _refuse_setattr(self, name, value):
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


def value_class(cls):
    """Make `cls` a frozen dataclass whose methods compile on first use.

    The class is a dataclass, made with `init`, `repr` and `eq` off, so
    `dataclasses.fields`, `replace` and `is_dataclass` work on it. Its
    `__init__`, `__eq__`, `__hash__` and `__repr__` are stand-ins: the first
    call of each compiles it, as `_source` writes it, to behave as a
    frozen dataclass's. So does the first look-up of `__signature__`, which
    `inspect.signature` makes, for `__init__`. One shared `__setattr__` and
    `__delattr__` raise `FrozenInstanceError`. A class without a docstring
    gets one that names its fields, where dataclass would write one with
    `inspect.signature`.
    """
    if cls.__doc__ is None:
        cls.__doc__ = f"{cls.__name__}({', '.join(cls.__dict__.get('__annotations__', ()))})"
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    cls.__setattr__, cls.__delattr__, cls.__signature__ = _refuse_setattr, _refuse_delattr, _Signature(cls)
    _install_stand_ins(cls, ("__init__", "__eq__", "__hash__", "__repr__"))
    return cls


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
    always exactly `canonical_json(self.to_dict())`, written directly. Each
    of the three is compiled alone by `_method`, on its own first call, and
    then replaces the stand-in that compiled it, so later calls run the
    compiled function directly. A method patched onto the class in the
    meantime is left in place.
    """
    if cls is None:
        return lambda c: codec(c, strict=strict, tag=tag)
    _CODECS[cls] = (tag, strict)
    _install_stand_ins(cls, CODEC_METHODS)
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


@value_class
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

@value_class
class UserRequest:
    text: str
    id: str = "adhoc"

    def __post_init__(self):
        if not self.text.strip():
            raise InvariantViolation("request text must be non-empty")


@codec
@value_class
class SensorData:
    ultrasonic_clearance: float
    ir_left: bool
    ir_right: bool

    def __post_init__(self):
        if self.ultrasonic_clearance < 0:
            raise InvariantViolation("ultrasonic clearance must be >= 0")


@codec
@value_class
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
@value_class
class Observation:
    items: Tuple[VisibleObject, ...] = ()
    free_text: str = ""

    @classmethod
    def from_items(cls, items) -> "Observation":
        items = tuple(items)
        return cls(items=items, free_text=render_items(items))


@codec
@value_class
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

@value_class
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
@value_class
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


@value_class
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
