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

:func:`load_document` keeps what a frame document determines, its
up-masks, labels and name, keyed by the file's bytes, for the ``_SHAPES``
(256) documents it loaded last.  A file whose bytes it holds skips the
JSON decode, the pair walk and the closure, and goes straight to
:func:`frame_from_leq`, so the size cap (as it reads at the call), the
shape memo and the labels are checked on every load, and every load
returns a new frame with its own empty ``kept`` store.  A document that
raises, and a map, square or chain document, is never kept.  An entry
holds the file's bytes beside the frame's up-masks and labels, about
7 KB at the 64-element cap with labels of up to three characters.  Such
a document that lists each pair of its order once is at most 33 KB (the
chain C64, 2,080 pairs), so a full memo of them holds under 10 MB; a
document that repeats pairs or has long labels is kept at its own size.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import TYPE_CHECKING, Union

from .errors import InvalidDocument
from .frame import _SHAPES, FiniteFrame, build_frame, frame_from_leq

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


# A frame document's (up, labels, name), keyed by the file's bytes; the
# most recently loaded last
_FRAME_DOCS: OrderedDict[bytes, tuple] = OrderedDict()


def load_document(path: str) -> Document:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise InvalidDocument(f"cannot read {path}: {e}")
    entry = _FRAME_DOCS.get(data)
    if entry is not None:
        _FRAME_DOCS.move_to_end(data)
        return frame_from_leq(*entry)
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, bytes that are not text, or nesting too deep
        raise InvalidDocument(f"not valid JSON: {e}")
    obj = document_from_json(doc)
    if isinstance(obj, FiniteFrame):
        _FRAME_DOCS[data] = (obj.up, obj.labels, obj.name)
        if len(_FRAME_DOCS) > _SHAPES:
            _FRAME_DOCS.popitem(last=False)
    return obj
