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
Any other key, at the top level or in a mass entry, is an error.
Masses are serialized with ``repr`` (shortest round-trip decimals), so
write → read is value-identical.
"""

from __future__ import annotations

import json

from .core import FocalSet, Frame, MassFunction

__all__ = ["MassFormatError", "mass_to_dict", "mass_from_dict", "read_json", "read_mass",
           "write_mass"]


class MassFormatError(ValueError):
    """The input document does not follow the mass-function text format."""


def mass_to_dict(m: MassFunction) -> dict[str, object]:
    doc: dict[str, object] = {
        "frame": list(m.frame.labels),
        "masses": [
            {"set": list(fs.members(m.frame)), "mass": v} for fs, v in m.items()
        ],
    }
    if m.open_world:
        doc["open_world"] = True
    return doc


def _reject_unknown(obj: dict[str, object], known: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in known:
            raise MassFormatError(f"{where}unknown key {key!r}")


def mass_from_dict(doc: object) -> MassFunction:
    if not isinstance(doc, dict):
        raise MassFormatError("top level must be an object")
    _reject_unknown(doc, ("frame", "masses", "open_world"), "")
    try:
        labels = doc["frame"]
        masses = doc["masses"]
    except KeyError as exc:
        raise MassFormatError(f"missing field: {exc}") from None
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise MassFormatError("'frame' must be an array of labels")
    try:
        frame = Frame(labels)
    except ValueError as exc:
        raise MassFormatError(str(exc)) from None
    open_world = doc.get("open_world", False)
    if not isinstance(open_world, bool):
        raise MassFormatError("'open_world' must be true or false")
    entries: dict[FocalSet, float] = {}
    if not isinstance(masses, list):
        raise MassFormatError("'masses' must be an array")
    for i, item in enumerate(masses):
        if not isinstance(item, dict) or "set" not in item or "mass" not in item:
            raise MassFormatError(f"masses[{i}]: expected {{'set': [...], 'mass': x}}")
        _reject_unknown(item, ("set", "mass"), f"masses[{i}]: ")
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
        try:
            entries[fs] = float(value)
        except OverflowError:
            raise MassFormatError(f"masses[{i}]: 'mass' is too large for a float") from None
    return MassFunction(frame, entries, open_world=open_world)


def read_json(path: str, error: type[ValueError] = MassFormatError) -> object:
    """The JSON document in ``path``; one that is malformed, not UTF-8, or past
    ``json``'s limits (integer digits, nesting) raises ``error`` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: line {exc.lineno}: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: {exc}") from None


def read_mass(path: str) -> MassFunction:
    doc = read_json(path)
    try:
        return mass_from_dict(doc)
    except MassFormatError as exc:
        raise MassFormatError(f"{path}: {exc}") from None


def write_mass(path: str, m: MassFunction) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(mass_to_dict(m), fh, ensure_ascii=False, indent=2)
        fh.write("\n")
