"""Text formats: sign-sequence parsing and the JSON complex document.

The document is deliberately rigid (unknown fields rejected, exponents
explicit, no coefficient field) so fixtures stay diffable and round-trips
are exact.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as quote
from typing import Any

from .errors import ConstructionError, DocumentError, SequenceParseError
from .rings import R1, R2, RINF, Arrow, BasedComplex, Generator, Grading, Monomial
from .standard import ExtendedSignSequence, SignSequence

RING_NAMES = {ring: str(ring) for ring in (R1, R2, RINF)}
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


# How much of a bad token an error message echoes.
_ECHOED = 20


def _parse_entries(text: str) -> tuple[int, ...]:
    entries = []
    for position, token in enumerate(text.split(","), start=1):
        token = token.strip()
        try:
            value = int(token)
        except ValueError:
            shown = repr(token)
            if len(token) > _ECHOED:
                shown = f"{token[:_ECHOED]!r}... ({len(token)} characters)"
            raise SequenceParseError(f"entry {position}: {shown} is not an integer") from None
        if value == 0:
            raise SequenceParseError(f"entry {position}: zero entries are not allowed")
        entries.append(value)
    return tuple(entries)


# serialize fills these templates, quoting strings with json's C encoder, and
# so writes what json.dumps(document, indent=2) writes, byte for byte, without
# running json's indenting encoder, which is pure Python.
_DOCUMENT = '{\n  "ring": "%s",\n  "generators": %s,\n  "arrows": %s\n}\n'
_GENERATOR = '    {\n      "name": %s,\n      "gr": [\n        %d,\n        %d\n      ]\n    }'
_ARROW_HEAD = '    {\n      "from": %s,\n      "to": %s,\n      "u": %d,\n      "v": %d'
_ARROW = _ARROW_HEAD + "\n    }"
_COLORED_ARROW = _ARROW_HEAD + ',\n      "color": %s\n    }'


def _block(entries: list[str]) -> str:
    return "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"


def serialize(complex: BasedComplex, include_colors: bool = False) -> str:
    """The complex as a JSON document in json.dumps's indent=2 layout, plus a
    newline; colors only when requested."""
    ring = RING_NAMES.get(complex.ring)
    if ring is None:
        raise DocumentError(f"no document name for ring level {complex.ring}")
    quoted = [quote(g.name) for g in complex.generators]
    generators = [
        _GENERATOR % (name, g.grading.gu, g.grading.gv)
        for name, g in zip(quoted, complex.generators)
    ]
    colors = complex.colors if include_colors else {}
    arrows = []
    for arrow in sorted(complex.arrows):
        source, (u, v), target = arrow
        color = colors.get(arrow)
        if color is None:
            arrows.append(_ARROW % (quoted[source], quoted[target], u, v))
        else:
            arrows.append(
                _COLORED_ARROW % (quoted[source], quoted[target], u, v, quote(color))
            )
    return _DOCUMENT % (ring, _block(generators), _block(arrows))


_DOCUMENT_FIELDS = frozenset({"ring", "generators", "arrows"})
_GENERATOR_FIELDS = frozenset({"name", "gr"})
_ARROW_FIELDS = frozenset({"from", "to", "u", "v"})
_COLORED_ARROW_FIELDS = _ARROW_FIELDS | {"color"}


def _fields_error(entry, required: frozenset, what: str, optional=frozenset()) -> DocumentError:
    """Why ``entry`` is not an object with the required fields and no other
    fields but the optional ones. A string or a list is read as the set of
    its items, so its message names the fields it lacks."""
    try:
        keys = set(entry)
        if required - keys:
            return DocumentError(f"{what} is missing fields {sorted(required - keys)}")
        if keys - required - optional:
            return DocumentError(
                f"{what} has unknown fields {sorted(keys - required - optional)}"
            )
    except TypeError:
        pass
    return DocumentError(f"{what} must be an object")


def parse_document(doc: Any) -> BasedComplex:
    """Check a decoded document and build its complex in the same pass."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.keys() != _DOCUMENT_FIELDS:
        raise _fields_error(doc, _DOCUMENT_FIELDS, "document")
    try:
        ring = NAMED_RINGS[doc["ring"]]
    except (KeyError, TypeError):
        raise DocumentError(
            f"ring must be one of {sorted(NAMED_RINGS)}, got {doc['ring']!r}"
        ) from None

    generators: list[Generator] = []
    ids: dict[str, int] = {}
    for i, entry in enumerate(_as_list(doc["generators"], "generators")):
        if not isinstance(entry, dict) or entry.keys() != _GENERATOR_FIELDS:
            raise _fields_error(entry, _GENERATOR_FIELDS, f"generator {i}")
        name = entry["name"]
        gr = entry["gr"]
        if not isinstance(name, str) or not name:
            raise DocumentError(f"generator {i}: name must be a nonempty string")
        if name in ids:
            raise DocumentError(f"duplicate generator name {name!r}")
        if (
            not isinstance(gr, list) or len(gr) != 2
            or type(gr[0]) is not int or type(gr[1]) is not int
        ):
            raise DocumentError(f"generator {name!r}: gr must be a pair of integers")
        ids[name] = i
        generators.append(Generator(name, Grading(gr[0], gr[1])))

    level = ring.level
    arrows: set[Arrow] = set()
    colors: dict[Arrow, str] = {}
    loop = None
    for i, entry in enumerate(_as_list(doc["arrows"], "arrows")):
        if not isinstance(entry, dict) or (
            (keys := entry.keys()) != _ARROW_FIELDS and keys != _COLORED_ARROW_FIELDS
        ):
            raise _fields_error(entry, _ARROW_FIELDS, f"arrow {i}", {"color"})
        u = entry["u"]
        v = entry["v"]
        if type(u) is not int or u < 0:
            raise DocumentError(f"arrow {i}: u must be a nonnegative integer")
        if type(v) is not int or v < 0:
            raise DocumentError(f"arrow {i}: v must be a nonnegative integer")
        try:
            source = ids[entry["from"]]
        except (KeyError, TypeError):
            raise DocumentError(f"arrow {i}: unknown generator {entry['from']!r}") from None
        try:
            target = ids[entry["to"]]
        except (KeyError, TypeError):
            raise DocumentError(f"arrow {i}: unknown generator {entry['to']!r}") from None
        if not u and not v:
            raise DocumentError(f"arrow {i}: the unit monomial is not a legal arrow")
        if u >= level and v >= level:
            raise DocumentError(
                f"arrow {i}: monomial {Monomial(u, v)} is zero in {doc['ring']}"
            )
        # u and v are checked nonnegative ints, so the interned lookup is safe.
        arrow = Arrow(source, Monomial.of(u, v), target)
        if arrow in arrows:
            raise DocumentError(f"arrow {i}: duplicate of an earlier arrow")
        arrows.add(arrow)
        if source == target and loop is None:
            loop = arrow
        if "color" in entry:
            if not isinstance(entry["color"], str):
                raise DocumentError(f"arrow {i}: color must be a string")
            colors[arrow] = entry["color"]

    # A self-loop is well-formed JSON but no complex: it is reported as a
    # ConstructionError, and only once the whole document has passed.
    if loop is not None:
        raise ConstructionError(f"arrow {loop} is a self-loop")
    return BasedComplex(ring, tuple(generators), frozenset(arrows), colors)


def parse(text: str) -> BasedComplex:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    except ValueError as exc:
        # An integer past the interpreter's digit limit. Its message names
        # the limit and the digit count, then advises a call to
        # sys.set_int_max_str_digits(), which only Python code can make.
        raise DocumentError(f"not valid JSON: {str(exc).partition(';')[0]}") from None
    return parse_document(doc)


def _as_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{what} must be a list")
    return value
