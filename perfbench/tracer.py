"""In-memory span recorder and the wrappers that feed it.

The traced run replaces chosen ``localic`` functions with wrappers that
record a span (parent, name, start, end) around each call.  Spans stay in
memory until the run ends.  ``self_times`` turns them into per-name self
time: a span's duration minus the part of it that its child spans cover.

First fills of the lazy caches (the sublocale enumeration of a frame, a
supplement, an induced-frame view) get spans of their own; later calls
that hit the cache are only counted.  The bench decides what is a first
fill by remembering what it has seen, never by reading private caches.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        # spans[i] = (parent index or -1, name, start, end)
        self.spans: list = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.seen: set = set()
        # Objects whose ids are in ``seen``; holding them keeps ids unique.
        self.keep: list = []
        self.fill_depth = 0

    def call(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        stack = self.stack
        parent = stack[-1] if stack else -1
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans[sid] = (parent, name, t0, t1)

    def first_time(self, key, holder) -> bool:
        """True on the first sighting of ``key`` in this recorder."""
        if key in self.seen:
            return False
        self.seen.add(key)
        self.keep.append(holder)
        return True


def self_times(spans) -> dict[str, list]:
    """Per span name: [calls, inclusive seconds, self seconds].

    Self time is the span's duration minus the union of its children's
    intervals, each clipped to the parent, so overlapping children are
    not subtracted twice.
    """
    children: dict[int, list] = defaultdict(list)
    for parent, _name, t0, t1 in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out: dict[str, list] = {}
    for sid, (_parent, name, t0, t1) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, t0), min(c1, t1)
            if c1 <= c0:
                continue
            if cur_end is None or c0 > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c0, c1
            else:
                cur_end = max(cur_end, c1)
        if cur_end is not None:
            covered += cur_end - cur_start
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += t1 - t0
        row[2] += (t1 - t0) - covered
    return out


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self.undo: list = []

    def set_attr(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def set_item(self, mapping: dict, key, value) -> None:
        self.undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def rebind(self, original, replacement) -> None:
        """Replace every module-level binding of ``original`` in localic."""
        for name, mod in list(sys.modules.items()):
            if name != "localic" and not name.startswith("localic."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.set_attr(mod, attr, replacement)

    def restore(self) -> None:
        while self.undo:
            owner, key, value = self.undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)


def _wrap(fn, body):
    """``body(fn, args, kwargs)`` behind ``fn``'s name, for pickling too."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return body(fn, args, kwargs)
    return wrapper


def install(rec: Recorder, shard_dir: str | None = None) -> Patches:
    """Wrap the library's layer boundaries; returns the undo log.

    ``shard_dir``, when given, is where forked suite workers write the
    spans of each shard they ran, one JSON file per shard.
    """
    from localic import cli, frame, generators, jsonio, locmap, registry
    from localic import remoteness, sublocale

    p = Patches()

    def spanned(name):
        return lambda fn, a, k: rec.call(name, fn, a, k)

    def plain(mod, attr, name):
        orig = getattr(mod, attr)
        p.rebind(orig, _wrap(orig, spanned(name)))

    def method(cls, attr, name):
        orig = vars(cls)[attr]
        p.set_attr(cls, attr, _wrap(orig, spanned(name)))

    plain(frame, "frame_from_leq", "frame.build")
    plain(sublocale, "s_nowhere_dense_sublocales", "remoteness.oracle")
    method(remoteness.RemoteContext, "__init__", "remoteness.context_init")
    method(remoteness.RemoteContext, "pred_nwd_oracle", "remoteness.oracle")
    plain(generators, "all_posets", "generators.posets")
    plain(generators, "gen_frames", "generators.frames")
    plain(generators, "gen_maps", "generators.maps")
    plain(generators, "gen_squares", "generators.squares")
    plain(generators, "gen_chains", "generators.chains")
    plain(generators, "gen_triangles", "generators.triangles")
    plain(locmap, "build_map", "locmap.build_map")
    method(locmap.LocalicMap, "preimage_subl", "locmap.preimage")
    plain(jsonio, "load_document", "jsonio.load")
    plain(cli, "build_corpus", "cli.corpus")

    def enum_body(fn, a, k):
        f = a[0]
        if not rec.first_time(("enum", id(f)), f):
            rec.counts["enum_hits"] += 1
            return fn(*a, **k)
        rec.fill_depth += 1
        try:
            out = rec.call("sublocale.enum_fill", fn, a, k)
        finally:
            rec.fill_depth -= 1
        rec.counts["enum_fills"] += 1
        rec.counts["enum_found"] += len(out)
        return out

    def is_sublocale_body(fn, a, k):
        if rec.fill_depth:
            rec.counts["enum_candidates"] += 1
        return fn(*a, **k)

    def supplement_body(fn, a, k):
        f, s = a
        rec.counts["supplement_calls"] += 1
        if not rec.first_time(("supp", id(f), s.mask), f):
            return fn(*a, **k)
        rec.counts["supplement_fills"] += 1
        return rec.call("sublocale.supplement_fill", fn, a, k)

    def view_body(fn, a, k):
        s = a[0]
        if not rec.first_time(("view", id(s)), s):
            return fn(*a, **k)
        rec.counts["view_fills"] += 1
        return rec.call("sublocale.view_fill", fn, a, k)

    def square_body(fn, a, k):
        out = fn(*a, **k)
        rec.counts["square_from_calls"] += 1
        rec.counts["squares_built"] += out is not None
        return out

    orig = sublocale.enumerate_sublocales
    p.rebind(orig, _wrap(orig, enum_body))
    orig = sublocale.is_sublocale
    p.rebind(orig, _wrap(orig, is_sublocale_body))
    orig = sublocale.supplement
    p.rebind(orig, _wrap(orig, supplement_body))
    orig = vars(sublocale.Sublocale)["as_frame"]
    p.set_attr(sublocale.Sublocale, "as_frame", _wrap(orig, view_body))
    orig = generators.square_from
    p.rebind(orig, _wrap(orig, square_body))

    for cid, check in list(registry.REGISTRY.items()):
        runner = _wrap(check.runner, spanned(f"check.{cid}"))
        p.set_item(registry.REGISTRY, cid,
                   registry.TheoremCheck(check.id, check.scope, runner))

    owner_pid = os.getpid()

    def shard_body(fn, a, k):
        if os.getpid() == owner_pid:
            return rec.call("cli.shard", fn, a, k)
        # Forked worker: start clean, run the shard, ship the spans home.
        rec.reset()
        out = rec.call("cli.shard", fn, a, k)
        _, _, shard, nshards = a[0]
        path = os.path.join(shard_dir, f"shard-{shard}-of-{nshards}.json")
        with open(path, "w") as fh:
            json.dump({"spans": rec.spans, "counts": rec.counts}, fh)
        return out

    orig = cli._run_shard
    p.rebind(orig, _wrap(orig, shard_body))
    return p
