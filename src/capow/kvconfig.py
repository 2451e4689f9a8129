"""Flat key-value configuration files.

Policy and scenario files share one operator-editable format:

    # comment lines start with '#'
    key: value
    key: another value        # repeated keys accumulate into a list

    [section name]
    key: value

A '#' that starts a line, or has whitespace before it, starts a comment
that runs to the end of the line; a '#' inside a word (``id#2``) is kept.
Values are kept as raw strings; consumers parse them through key tables.
Keys are lower-cased, section names keep their case (user ids live there).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import ConfigError

_COMMENT = re.compile(r"(^|\s)#.*")


@dataclass
class KvSection:
    name: str
    values: dict[str, list[str]] = field(default_factory=dict)

    def get(self, key: str) -> str | None:
        vals = self.values.get(key)
        if not vals:
            return None
        if len(vals) > 1:
            raise ConfigError(f"key '{key}' given {len(vals)} times, expected once")
        return vals[0]

    def get_all(self, key: str) -> list[str]:
        return list(self.values.get(key, []))

    def require(self, key: str) -> str:
        val = self.get(key)
        if val is None:
            raise ConfigError(f"missing required key '{key}'" + (f" in [{self.name}]" if self.name else ""))
        return val

    def read(self, table: Mapping[str, tuple[str, Callable[[str, str], Any] | None]], where: str) -> dict:
        """The section's values by field: ``table`` maps each file key to (dataclass field, parser).

        A key the table lacks is refused, and a key left out keeps its field's
        default. The caller reads a key without a parser: a required or repeated one.
        """
        unknown = self.values.keys() - table.keys()
        if unknown:
            raise ConfigError(f"{where}: unknown keys: {sorted(unknown)}")
        return {name: parse(raw, key) for key, (name, parse) in table.items()
                if parse is not None and (raw := self.get(key)) is not None}


@dataclass
class KvDocument:
    """Top-level keys plus ordered named sections."""

    top: KvSection
    sections: list[KvSection] = field(default_factory=list)


def parse_kv_text(text: str, source: str = "<string>") -> KvDocument:
    doc = KvDocument(top=KvSection(name=""))
    current = doc.top
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = KvSection(name=line[1:-1].strip())
            doc.sections.append(current)
            continue
        if ":" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        current.values.setdefault(key.strip().lower(), []).append(value.strip())
    return doc


def parse_kv_file(path: str | Path) -> KvDocument:
    path = Path(path)
    return parse_kv_text(path.read_text(encoding="utf-8"), source=str(path))


def as_str(value: str, key: str) -> str:
    return value


def as_float(value: str, key: str) -> float:
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"key '{key}': expected a finite number, got {value!r}")
    return number


def as_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {value!r}") from None


def as_bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"key '{key}': expected true/false, got {value!r}")
