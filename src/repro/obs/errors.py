"""The library's root exception and its malformed-input error.

They live here, in the stdlib-only instrumentation package, so that
``repro.obs`` can fail closed on bad files with the same typed errors as
every other layer; :mod:`repro.errors` re-exports both.
"""

from __future__ import annotations

__all__ = ["InputError", "ReproError"]


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class InputError(ReproError, ValueError):
    """A persisted input (fuzz corpus entry, telemetry or trace JSONL) is
    malformed.  Names the file and the field at fault; CLIs map it to
    exit code 2."""

    def __init__(self, path, field: str, problem: str):
        self.path = None if path is None else str(path)
        self.field = field
        self.problem = problem
        super().__init__(f"{self.path or '<data>'}: {field}: {problem}")

    def within(self, path=None, prefix: str = "") -> "InputError":
        """The same error, attributed to ``path`` and nested under the
        field ``prefix`` (e.g. ``windows[3].``)."""
        return InputError(
            self.path if path is None else path,
            prefix + self.field,
            self.problem,
        )


_REQUIRED = object()


def field_of(data, name: str, conv=None, default=_REQUIRED):
    """``conv(data[name])`` (or ``default`` when absent and given),
    failing with an :class:`InputError` that names the field — nested
    fields as ``outer.inner`` — whose file the caller attaches."""
    try:
        value = data[name]
    except KeyError:
        if default is not _REQUIRED:
            return default
        raise InputError(None, name, "missing") from None
    except (TypeError, IndexError):
        raise InputError(
            None, name, f"its parent is a {type(data).__name__}, not an object"
        ) from None
    if conv is None:
        return value
    try:
        return conv(value)
    except InputError as exc:
        raise exc.within(prefix=f"{name}.") from None
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(
            None, name, f"malformed ({type(exc).__name__}: {exc})"
        ) from None
