"""Typed, key-consuming reads of JSON config objects.

Every config the package reads (an experiment config, the ``rip-table`` and
``check-stability`` configs, a RIP table file) goes through
:class:`ConfigReader`, so a value of the wrong type or range, a missing key
or an unknown key raises :class:`ConfigError` before any work starts.
"""

from __future__ import annotations

import math


class ConfigError(ValueError):
    """Invalid or missing experiment configuration."""


_REQUIRED = object()


class ConfigReader:
    """Reads one config object key by key, each read stating the key's type,
    range and default where the value is used.

    :meth:`int` rejects bools and non-integral numbers, :meth:`float` bools,
    NaN and +-inf.  A missing key takes its default, checked like a given
    value and never written into the object, which manifests echo as given;
    a default of ``None`` means "not set" and admits an explicit null.  A
    list is read as an object keyed by index.  A ``with`` block ends with
    :meth:`done`, which rejects by name every key no read consumed, here and
    in each object or list read from here; it reports a ``ValueError`` or
    ``OSError`` raised inside it (by a constructor rejecting the values
    read, say) as a :class:`ConfigError`.  Any other exception is a fault of
    the parsing code and passes through.
    """

    def __init__(self, doc: dict, where: str = ""):
        self.doc, self.where = doc, where
        self._unread = set(doc)
        self._children: list[ConfigReader] = []

    def __enter__(self) -> ConfigReader:
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if exc is None:
            self.done()
        elif isinstance(exc, (ValueError, OSError)) and not isinstance(exc, ConfigError):
            raise ConfigError(f"{kind.__name__}: {exc}") from exc

    def _name(self, key) -> str:
        if isinstance(key, int):
            return f"{self.where}[{key}]"
        return f"{self.where}.{key}" if self.where else key

    def _read(self, key, default, what: str, ok):
        self._unread.discard(key)
        if key not in self.doc and default is _REQUIRED:
            raise ConfigError(f"missing config key {self._name(key)!r}")
        value = self.doc.get(key, default)
        if not (value is None is default or ok(value)):
            raise ConfigError(f"{self._name(key)} must be {what}, not {value!r}")
        return value

    def value(self, key, default=_REQUIRED, kind=object):
        """The raw value of a key whose forms the caller tells apart."""
        return self._read(key, default, "an object" if kind is dict else f"a {kind.__name__}", lambda v: isinstance(v, kind))

    def int(self, key, low: int = 0, high: float = math.inf, default=_REQUIRED) -> int:
        value = self._read(key, default, f"{_span(low, high)} and integral",
                           lambda v: _finite(v) and v == int(v) and low <= v <= high)
        return value if value is None else int(value)

    def float(self, key, low: float = 0.0, default=_REQUIRED) -> float:
        value = self._read(key, default, f"{_span(low)} and finite", lambda v: _finite(v) and v >= low)
        return value if value is None else float(value)

    def bool(self, key, default=_REQUIRED) -> bool:
        return self._read(key, default, "true or false", lambda v: isinstance(v, bool))

    def choice(self, key, choices: tuple[str, ...], default=_REQUIRED) -> str:
        return self._read(key, default, f"one of {', '.join(choices)}", lambda v: v in choices)

    def obj(self, key, default=_REQUIRED, kind=dict) -> ConfigReader:
        """A reader of the object at ``key``, or of the list if ``kind`` is
        ``list``."""
        value = self.value(key, default, kind)
        child = ConfigReader(value if kind is dict else dict(enumerate(value)), self._name(key))
        self._children.append(child)
        return child

    def floats(self, key, default=_REQUIRED) -> list[float]:
        items = self.obj(key, default, list)
        return [items.float(i) for i in items.doc]

    def done(self) -> None:
        if self._unread:
            raise ConfigError(f"unknown config keys {sorted(map(self._name, self._unread))}")
        for child in self._children:
            child.done()


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _span(low, high=math.inf) -> str:
    if high < math.inf:
        return f"in [{low}, {high}]"
    return "nonnegative" if low == 0 else f">= {low}"
