"""
Reading and writing mass functions in the JSON text format shared by the
CLI and the test suite::

    {
      "frame": ["A", "B"],
      "masses": [
        {"set": ["A"], "mass": 0.6},
        {"set": ["A", "B"], "mass": 0.4}
      ]
    }

An empty ``set`` array denotes ∅ and is legal only with ``"open_world": true``.
Masses are serialized with ``repr`` (shortest round-trip decimals), so
write → read is value-identical.
"""

from __future__ import annotations

import json
from typing import Any

from .core import FocalSet, Frame, MassFunction, make_frame

__all__ = ["MassFormatError", "mass_to_dict", "mass_from_dict", "read_mass", "write_mass"]


class MassFormatError(ValueError):
    """The input document does not follow the mass-function text format."""


def mass_to_dict(m: MassFunction) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "frame": list(m.frame.labels),
        "masses": [
            {"set": list(fs.members(m.frame)), "mass": v} for fs, v in m.items()
        ],
    }
    if m.open_world:
        doc["open_world"] = True
    return doc


def mass_from_dict(doc: Any) -> MassFunction:
    if not isinstance(doc, dict):
        raise MassFormatError("top level must be an object")
    try:
        labels = doc["frame"]
        masses = doc["masses"]
    except (KeyError, TypeError) as exc:
        raise MassFormatError(f"missing field: {exc}") from None
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise MassFormatError("'frame' must be an array of labels")
    try:
        frame = make_frame(labels)
    except ValueError as exc:
        raise MassFormatError(str(exc)) from None
    open_world = bool(doc.get("open_world", False))
    entries: dict[FocalSet, float] = {}
    if not isinstance(masses, list):
        raise MassFormatError("'masses' must be an array")
    for i, item in enumerate(masses):
        if not isinstance(item, dict) or "set" not in item or "mass" not in item:
            raise MassFormatError(f"masses[{i}]: expected {{'set': [...], 'mass': x}}")
        members = item["set"]
        if not isinstance(members, list):
            raise MassFormatError(f"masses[{i}]: 'set' must be an array of labels")
        try:
            fs = frame.subset(members)
        except KeyError as exc:
            raise MassFormatError(f"masses[{i}]: {exc.args[0]}") from None
        if fs.is_empty and not open_world:
            raise MassFormatError(
                f"masses[{i}]: empty set requires \"open_world\": true"
            )
        value = item["mass"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise MassFormatError(f"masses[{i}]: 'mass' must be a number")
        if fs in entries:
            raise MassFormatError(f"masses[{i}]: duplicate set {fs.label(frame)}")
        entries[fs] = float(value)
    return MassFunction(frame, entries, open_world=open_world)


def read_mass(path: str) -> MassFunction:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MassFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    try:
        return mass_from_dict(doc)
    except MassFormatError as exc:
        raise MassFormatError(f"{path}: {exc}") from None


def write_mass(path: str, m: MassFunction) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mass_to_dict(m), fh, ensure_ascii=False, indent=2)
        fh.write("\n")
