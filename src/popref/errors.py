"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: usage problems exit with 1,
data/contract problems with 2, numeric failures with 3.

:func:`checked` is the one reader of JSON records into dataclasses: JSONL
reference acts and a checkpoint's config, thresholds and world config.
"""

import dataclasses
import functools
import typing


class PopRefError(Exception):
    """Base class for all toolkit errors."""


class ContractViolation(PopRefError):
    """An operation was called with arguments violating its preconditions."""


class ConfigError(PopRefError):
    """A configuration value is outside its legal range."""


class ParseError(PopRefError):
    """A data file does not conform to its declared format."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EncodingError(PopRefError):
    """A token or image id has no vector in the active vocabulary."""


class GenerationError(PopRefError):
    """Sampling constraints could not be satisfied within the retry budget."""


class ValidationError(PopRefError):
    """A reference act violates its gold-consistency invariants."""


class UnsupportedInputError(PopRefError):
    """A predictor was fed a task variant it does not handle."""


class NumericError(PopRefError):
    """Training or gradient checking produced non-finite or inconsistent numbers."""


def _type_name(kind) -> str:
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        return f"tuple[{_type_name(args[0])}, ...]"
    if args:
        return " | ".join(_type_name(arg) for arg in args)
    return "None" if kind is type(None) else kind.__name__


class _Misfit(Exception):
    """A JSON value does not have a field's type."""


@functools.cache
def _reader(kind):
    """A function ``(value, what)`` giving the JSON ``value`` as a field of
    type ``kind`` (a dataclass, ``tuple[X, ...]`` from an array, ``X | None``
    or a scalar class), or raising :class:`_Misfit`.  An integer may fill a
    float field, a boolean only a bool field."""
    if dataclasses.is_dataclass(kind):
        return lambda value, what: checked(kind, value, what)
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        item = _reader(args[0])

        def read_tuple(value, what):
            if not isinstance(value, list):
                raise _Misfit
            return tuple(item(v, f"{what}[{i}]") for i, v in enumerate(value))
        return read_tuple
    if args:  # X | None
        inner = _reader(args[0])
        return lambda value, what: None if value is None else inner(value, what)
    accepted = (int, float) if kind is float else kind

    def read_scalar(value, what):
        if isinstance(value, accepted) and isinstance(value, bool) == (kind is bool):
            return value
        raise _Misfit
    return read_scalar


@functools.cache
def _fields(cls) -> dict:
    """Field name -> (type, reader) of dataclass ``cls``."""
    return {name: (kind, _reader(kind))
            for name, kind in typing.get_type_hints(cls).items()}


def checked(cls, value, what: str):
    """An instance of dataclass ``cls`` built from the JSON value ``value``.

    Any value but an object with exactly the fields of ``cls``, each of its
    type, is a :class:`ParseError` naming ``what`` (a nested dataclass field
    is named ``what.field``).  Validation beyond types is the caller's.
    """
    fields = _fields(cls)
    if isinstance(value, dict) and value.keys() == fields.keys():
        try:
            return cls(**{name: read(value[name], f"{what}.{name}")
                          for name, (_, read) in fields.items()})
        except _Misfit:
            pass
    expected = ", ".join(f"{name}: {_type_name(kind)}" for name, (kind, _) in fields.items())
    raise ParseError(f"{what} does not fit {cls.__name__}({expected}): got {value!r}")
