"""Seeded frame documents for the query workload.

Each document is the frame of open sets of a finite topology on 2 to 4
points, written in the ``localic`` frame-document format.  The batch has a
fixed number of documents per frame size, and which topology fills each
slot does not depend on the seed: the cost of a query depends on the
frame's shape, so a seed-chosen mix would make the batch's work differ from
seed to seed.  The seed names the points and orders the queries.  Elements
are listed by size, then label, so documents of one topology list their
elements alike whatever the names.
"""

from __future__ import annotations

import itertools
import random

# Documents per frame size.  Topologies on at most 4 points have 2 to 10
# or 12 open sets, or 16 for the discrete one.
SIZE_PLAN = {**{m: 8 for m in (*range(2, 11), 12)}, 16: 3}

S_QUESTIONS = ("remote-set", "rs", "star-rs", "nd", "rare?")
PLAIN_QUESTIONS = ("booleanization", "sublocale-count", "dense-in-itself?")
QUESTIONS = [[q] for q in PLAIN_QUESTIONS] + \
    [[q, s] for q in S_QUESTIONS for s in ("S=L", "S=BL")]


def topologies(k: int) -> list[tuple[int, ...]]:
    """Every topology on points 0..k-1, as a sorted tuple of open masks."""
    full = (1 << k) - 1
    inner = list(range(1, full))
    out = []
    for pick in range(1 << len(inner)):
        opens = {0, full}
        opens.update(m for j, m in enumerate(inner) if pick >> j & 1)
        if all(a | b in opens and a & b in opens
               for a, b in itertools.combinations(opens, 2)):
            out.append(tuple(sorted(opens)))
    return out


def _by_size() -> dict[int, list[tuple[int, tuple[int, ...]]]]:
    pools: dict[int, list] = {}
    for k in (2, 3, 4):
        for opens in topologies(k):
            pools.setdefault(len(opens), []).append((k, opens))
    return pools


def frame_document(rng: random.Random, k: int, opens: tuple[int, ...],
                   name: str) -> dict:
    names = rng.sample("abcdefgh", k)

    def label(mask: int) -> str:
        return "".join(sorted(names[p] for p in range(k) if mask >> p & 1)) \
            or "o"

    listed = sorted(opens, key=lambda m: (bin(m).count("1"), label(m)))
    order = [[label(a), label(b)] for a in listed for b in listed
             if a != b and a & ~b == 0]
    return {"type": "frame", "name": name,
            "elements": [label(m) for m in listed], "order": order}


def query_plan(seed: int) -> tuple[dict[str, dict], list[tuple[str, list]]]:
    """Documents by name, and the (document, question words) batch."""
    rng = random.Random(seed)
    pools = _by_size()
    docs: dict[str, dict] = {}
    for size, count in SIZE_PLAN.items():
        pool = pools[size]
        for i in range(count):
            k, opens = pool[i * len(pool) // count]     # evenly spaced
            name = f"T{size}-{i}"
            docs[name] = frame_document(rng, k, opens, name)
    plan = [(name, words) for name in docs for words in QUESTIONS]
    rng.shuffle(plan)
    return docs, plan


def shares(names: list[str], plan: list, n: int) -> list[list[int]]:
    """Indices into the plan of the calls of each of ``n`` clients.

    Question i of the j-th document goes to client (i + j) mod n, so every
    client gets the same calls, in the seed's order, whatever the seed.
    Dealing calls out by position instead would let the seed decide which
    client gets the costly calls on the largest frames.
    """
    doc_index = {name: j for j, name in enumerate(names)}
    out: list[list[int]] = [[] for _ in range(n)]
    for k, (name, words) in enumerate(plan):
        out[(QUESTIONS.index(words) + doc_index[name]) % n].append(k)
    return out
