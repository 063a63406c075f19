"""Text formats: sign-sequence parsing and the JSON complex document.

The document is deliberately rigid (unknown fields rejected, exponents
explicit, no coefficient field) so fixtures stay diffable and round-trips
are exact.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import DocumentError, SequenceParseError
from .rings import (
    R1,
    R2,
    RINF,
    Arrow,
    BasedComplex,
    Generator,
    Grading,
    Monomial,
    make_complex,
)
from .standard import ExtendedSignSequence, SignSequence

RING_NAMES = {R1: "R1", R2: "R2", RINF: "Rinf"}
NAMED_RINGS = {name: ring for ring, name in RING_NAMES.items()}


def parse_sequence(text: str) -> SignSequence | ExtendedSignSequence:
    """Parse "a1,a2,..." or the extended form "a0 | a1,...,a2n | a2n+1"."""
    parts = text.split("|")
    if len(parts) == 1:
        return SignSequence(_parse_entries(parts[0]))
    if len(parts) != 3:
        raise SequenceParseError(
            f"expected 'head | body | tail' with two bars, got {len(parts) - 1}"
        )
    head = _parse_entries(parts[0])
    tail = _parse_entries(parts[2])
    if len(head) != 1 or len(tail) != 1:
        raise SequenceParseError("head and tail of an extended sequence are single entries")
    return ExtendedSignSequence(head[0], SignSequence(_parse_entries(parts[1])), tail[0])


def _parse_entries(text: str) -> tuple[int, ...]:
    entries = []
    for position, token in enumerate(text.split(","), start=1):
        token = token.strip()
        try:
            value = int(token)
        except ValueError:
            raise SequenceParseError(
                f"entry {position}: {token!r} is not an integer"
            ) from None
        if value == 0:
            raise SequenceParseError(f"entry {position}: zero entries are not allowed")
        entries.append(value)
    return tuple(entries)


def to_document(complex: BasedComplex, include_colors: bool = False) -> dict[str, Any]:
    """The plain-JSON shape of a complex; colors only when requested."""
    if complex.ring not in RING_NAMES:
        raise DocumentError(f"no document name for ring level {complex.ring}")
    generators = [
        {"name": g.name, "gr": [g.grading.gu, g.grading.gv]}
        for g in complex.generators
    ]
    arrows = []
    for a in complex.sorted_arrows():
        entry: dict[str, Any] = {
            "from": complex.generator(a.source).name,
            "to": complex.generator(a.target).name,
            "u": a.monomial.u,
            "v": a.monomial.v,
        }
        if include_colors:
            color = complex.colors.get(a)
            if color is not None:
                entry["color"] = color
        arrows.append(entry)
    return {"ring": RING_NAMES[complex.ring], "generators": generators, "arrows": arrows}


def serialize(complex: BasedComplex, include_colors: bool = False) -> str:
    return json.dumps(to_document(complex, include_colors), indent=2) + "\n"


def _require_keys(obj: dict, required: set[str], optional: set[str], what: str):
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise DocumentError(f"{what} is missing fields {sorted(missing)}")
    if unknown:
        raise DocumentError(f"{what} has unknown fields {sorted(unknown)}")


def parse_document(doc: Any) -> BasedComplex:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    _require_keys(doc, {"ring", "generators", "arrows"}, set(), "document")
    ring = NAMED_RINGS.get(doc["ring"])
    if ring is None:
        raise DocumentError(
            f"ring must be one of {sorted(NAMED_RINGS)}, got {doc['ring']!r}"
        )

    generators: list[Generator] = []
    ids: dict[str, int] = {}
    for i, entry in enumerate(_as_list(doc["generators"], "generators")):
        _require_keys(entry, {"name", "gr"}, set(), f"generator {i}")
        name = entry["name"]
        gr = entry["gr"]
        if not isinstance(name, str) or not name:
            raise DocumentError(f"generator {i}: name must be a nonempty string")
        if name in ids:
            raise DocumentError(f"duplicate generator name {name!r}")
        if (
            not isinstance(gr, list)
            or len(gr) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in gr)
        ):
            raise DocumentError(f"generator {name!r}: gr must be a pair of integers")
        ids[name] = i
        generators.append(Generator(i, name, Grading(gr[0], gr[1])))

    arrows: list[Arrow] = []
    colors: dict[Arrow, str] = {}
    seen: set[Arrow] = set()
    for i, entry in enumerate(_as_list(doc["arrows"], "arrows")):
        _require_keys(entry, {"from", "to", "u", "v"}, {"color"}, f"arrow {i}")
        for key in ("u", "v"):
            value = entry[key]
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise DocumentError(f"arrow {i}: {key} must be a nonnegative integer")
        for key in ("from", "to"):
            if entry[key] not in ids:
                raise DocumentError(f"arrow {i}: unknown generator {entry[key]!r}")
        mono = Monomial(entry["u"], entry["v"])
        if mono.u == 0 and mono.v == 0:
            raise DocumentError(f"arrow {i}: the unit monomial is not a legal arrow")
        if mono.is_zero_in(ring):
            raise DocumentError(f"arrow {i}: monomial {mono} is zero in {doc['ring']}")
        arrow = Arrow(ids[entry["from"]], mono, ids[entry["to"]])
        if arrow in seen:
            raise DocumentError(f"arrow {i}: duplicate of an earlier arrow")
        seen.add(arrow)
        arrows.append(arrow)
        if "color" in entry:
            if not isinstance(entry["color"], str):
                raise DocumentError(f"arrow {i}: color must be a string")
            colors[arrow] = entry["color"]

    return make_complex(ring, generators, arrows, colors)


def parse(text: str) -> BasedComplex:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    return parse_document(doc)


def _as_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{what} must be a list")
    return value
