"""JSON document formats for frames, maps, squares and chains.

A document is a single JSON object with a "type" key.  Frames list their
elements and a generating relation; maps and diagrams embed the frames
they mention and reference them by name.

  frame:  {"type": "frame", "name": n, "elements": [...],
           "order": [[a, b], ...]}                        (a <= b pairs)
  map:    {"type": "map", "frames": [...], "source": n, "target": n,
           "table": {label: label}}
  square: {"type": "square", "frames": [...], "maps": {name: mapbody},
           "square": {"g": name, "f": name, "alpha": name, "omega": name}}
  chain:  square fields plus {"chain": {"i","k","phi","theta","sigma"}}

Labels and names are strings, and the labels of a frame are distinct.  A
field of any other shape raises InvalidDocument.

:func:`load_document` reads a file until it ends or passes
``_MAX_BYTES`` (256 KiB), and refuses one that passes it.  The largest
document the formats need at 64 elements is a chain of six frames, each
listing all 2,080 pairs of C64 under three-character labels (33 KB),
and nine 64-entry maps: 205 KB.

It keeps the frame built from each frame document, keyed by the file's
bytes, for the ``_SHAPES`` (256) documents it loaded last.  A load of
bytes it holds skips the JSON decode, the closure and
:func:`frame_from_leq`: it checks the size cap by :func:`require_size`,
as the cap reads at the call, and returns the kept frame.  A frame
changes only by filling its ``kept`` store with functions of the frame,
so every load of those bytes is one frame, and a later query reuses the
span table, label index and contexts that earlier ones filled.
Sublocales from two loads of one file mix; those from loads either side
of a rewrite do not.  A document that raises, and a map, square or chain
document, is never kept.

An entry holds the file's bytes and the frame: the labels and name read
from them, each at most the byte cap, a shape of about 12 KB at 64
elements (shared with ``frame._shape``'s memo), and its store.  So a full
memo holds at most about 140 MB before any query (256 C64 documents that
list each pair once hold under 10 MB).  The store grows with what is
asked of the frame, not with how often: a query on a dense S adds that
S's context and star context once, about 1.4 KB at 64 elements (C64, 400
distinct S), and a repeat adds nothing.  A frame has one dense S per set
of its points outside BL, so that part is bounded by the distinct S
asked about, not by the memo.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import TYPE_CHECKING, Union

from .errors import InvalidDocument
from .frame import _SHAPES, FiniteFrame, build_frame, require_size

if TYPE_CHECKING:
    # imported at run time by the branches that build them, so reading a
    # frame document loads neither module
    from .diagrams import DenseSquare, SquareChain
    from .locmap import LocalicMap

Document = Union["FiniteFrame", "LocalicMap", "DenseSquare", "SquareChain"]


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidDocument(f"{what} must be an object")
    return value


def _names(value, what: str) -> dict[str, str]:
    """``value`` if it is an object whose values are all strings."""
    if not isinstance(value, dict) or not all(
            isinstance(v, str) for v in value.values()):
        raise InvalidDocument(f"{what} must be an object with string values")
    return value


def _pick(named: dict, key, what: str):
    """``named[key]`` for a string key, else InvalidDocument."""
    if not isinstance(key, str) or key not in named:
        raise InvalidDocument(f"unknown {what} {key!r}")
    return named[key]


def frame_from_json(doc: dict) -> FiniteFrame:
    doc = _object(doc, "a frame")
    labels = doc.get("elements")
    if not isinstance(labels, list) or not all(
            isinstance(x, str) for x in labels):
        raise InvalidDocument("'elements' must be a list of strings")
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise InvalidDocument("element labels must be distinct")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise InvalidDocument("a frame name must be a string")
    order = doc.get("order")
    pairs, unknown = [], None
    for p in order if isinstance(order, list) else [None]:  # None: bad shape
        if not isinstance(p, list) or len(p) != 2:
            raise InvalidDocument("'order' must be a list of [a, b] pairs")
        try:
            pairs.append((index[p[0]], index[p[1]]))
        except (KeyError, TypeError) as e:  # TypeError: an unhashable label
            unknown = unknown or e  # raised once every pair's shape passes
    if unknown:
        raise InvalidDocument(f"order references unknown element: {unknown}")
    return build_frame(pairs, len(labels), labels=labels, name=name)


def _map_from_body(body: dict, frames: dict[str, FiniteFrame]) -> LocalicMap:
    from .locmap import build_map
    body = _object(body, "a map")
    src = _pick(frames, body.get("source"), "source frame")
    tgt = _pick(frames, body.get("target"), "target frame")
    tab = _names(body.get("table"), "a map table")
    table = [0] * src.n
    if set(tab) != set(src.labels):
        raise InvalidDocument("map table keys must cover the source exactly")
    for a, b in tab.items():
        try:
            table[src.index_of(a)] = tgt.index_of(b)
        except KeyError as e:
            raise InvalidDocument(f"unknown element label: {e}")
    return build_map(src, tgt, table)


def _frames_of(doc: dict) -> dict[str, FiniteFrame]:
    fdocs = doc.get("frames", [])
    if not isinstance(fdocs, list):
        raise InvalidDocument("'frames' must be a list")
    frames = {}
    for fdoc in fdocs:
        f = frame_from_json(fdoc)
        if f.name in frames:
            raise InvalidDocument(f"duplicate frame name {f.name!r}")
        frames[f.name] = f
    return frames


def _square_from_json(doc: dict) -> tuple[DenseSquare, dict[str, LocalicMap]]:
    from .diagrams import DenseSquare
    frames = _frames_of(doc)
    maps = {name: _map_from_body(body, frames)
            for name, body in _object(doc.get("maps", {}), "'maps'").items()}
    sq = _names(doc.get("square"), "'square'")
    parts = [_pick(maps, sq.get(k), "map")
             for k in ("g", "f", "alpha", "omega")]
    return DenseSquare(*parts), maps


def document_from_json(doc: dict) -> Document:
    if not isinstance(doc, dict) or "type" not in doc:
        raise InvalidDocument("document must be an object with a 'type' key")
    kind = doc["type"]
    if kind == "frame":
        return frame_from_json(doc)
    if kind == "map":
        return _map_from_body(doc, _frames_of(doc))
    if kind == "square":
        return _square_from_json(doc)[0]
    if kind == "chain":
        from .diagrams import SquareChain
        outer, maps = _square_from_json(doc)
        ch = _names(doc.get("chain"), "'chain'")
        parts = [_pick(maps, ch.get(k), "map")
                 for k in ("i", "k", "phi", "theta", "sigma")]
        return SquareChain(outer, *parts)
    raise InvalidDocument(f"unknown document type {kind!r}")


# The longest file load_document reads (module docstring), and the piece
# it reads at a time: one read of the cap would allocate 256 KiB, by a
# fresh mmap, on every load
_MAX_BYTES = 1 << 18
_PIECE = 1 << 16
# The frame built from a frame document, keyed by the file's bytes; the
# most recently loaded last
_FRAME_DOCS: OrderedDict[bytes, FiniteFrame] = OrderedDict()


def load_document(path: str) -> Document:
    try:
        with open(path, "rb") as fh:
            data = b""
            while len(data) <= _MAX_BYTES:    # at most a piece past the cap
                piece = fh.read(_PIECE)
                data += piece
                if len(piece) < _PIECE:    # a short read ends the file
                    break
    except OSError as e:
        raise InvalidDocument(f"cannot read {path}: {e}")
    if len(data) > _MAX_BYTES:
        raise InvalidDocument(f"{path} is longer than {_MAX_BYTES} bytes")
    frame = _FRAME_DOCS.get(data)
    if frame is not None:
        _FRAME_DOCS.move_to_end(data)
        require_size(frame.n)
        return frame
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, bytes that are not text, or nesting too deep
        raise InvalidDocument(f"not valid JSON: {e}")
    obj = document_from_json(doc)
    if isinstance(obj, FiniteFrame):
        _FRAME_DOCS[data] = obj
        if len(_FRAME_DOCS) > _SHAPES:
            _FRAME_DOCS.popitem(last=False)
    return obj
