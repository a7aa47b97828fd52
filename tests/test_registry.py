import hashlib
import itertools

import pytest

from localic import (
    DenseSquare, GenSpec, RemoteContext, SquareChain, Sublocale, Triangle,
    build_map, dense_context, diagrams, generators, registry, remoteness,
)
from localic.frame import FiniteFrame, _mask_of, bits
from localic.sublocale import span
from localic.registry import CHECKS, REGISTRY, SCOPES, checks_in_scope
from localic.registry import FAIL, HYPOTHESES_NOT_MET, PASS, CheckResult
from localic.cli import render_report

from oracles import iter_square_space
from test_cli import PINNED_REPORTS
from test_mutations import triangle_slice


def test_registry_scopes_match_check_tables():
    # one table keyed by scope holds every check, and the registry reads
    # its scopes and ids from it
    assert SCOPES == tuple(CHECKS)
    for scope in SCOPES:
        assert {c.id for c in checks_in_scope(scope)} == set(CHECKS[scope])
    assert len(REGISTRY) == 40
    # every entry is (hypotheses, conclusion); 18 statements are conditional
    entries = [e for table in CHECKS.values() for e in table.values()]
    for hypotheses, conclusion in entries:
        assert isinstance(hypotheses, tuple)
        assert all(map(callable, hypotheses)) and callable(conclusion)
        # hypotheses are told apart by name (oracles.dropped_hypotheses),
        # so none is a lambda and no check has two of one name
        names = [h.__name__ for h in hypotheses]
        assert "<lambda>" not in names and len(set(names)) == len(names)
    assert sum(bool(hypotheses) for hypotheses, _ in entries) == 18


def test_scopes_valid():
    assert set(SCOPES) == {"frame", "context", "square", "chain", "triangle"}
    for check in REGISTRY.values():
        assert check.scope in SCOPES
        assert callable(check.runner)


def test_checks_in_scope_partition():
    total = sum(len(checks_in_scope(s)) for s in SCOPES)
    assert total == len(REGISTRY)


class _Instance:
    def subject(self):
        return "the instance"


def test_runner_writes_the_row(monkeypatch):
    # the runner alone decides the verdict: a false hypothesis stops it
    # before the conclusion runs, and the conclusion's None or witness
    # gives pass or fail; the row carries the registry id and the instance,
    # which it names only when written out
    inst = _Instance()
    ran = []

    def conclusion(out):
        return lambda i: ran.append(i) or out

    def runner(hypotheses, out):
        monkeypatch.setitem(CHECKS["frame"], "Lislarge",
                            (hypotheses, conclusion(out)))
        return registry._build_registry()["Lislarge"].runner

    def row(*rest):
        return CheckResult("Lislarge", inst, *rest)

    holds, fails = (lambda i: i is inst), (lambda i: False)
    for hypotheses in ((fails,), (holds, fails), (fails, holds)):
        assert runner(hypotheses, None)(inst) == row(HYPOTHESES_NOT_MET)
        assert runner(hypotheses, "T=['1']")(inst) == row(HYPOTHESES_NOT_MET)
    assert ran == []
    for hypotheses in ((), (holds,), (holds, holds)):
        assert runner(hypotheses, None)(inst) == row(PASS)
        assert runner(hypotheses, "T=['1']")(inst) == row(FAIL, "T=['1']")
    assert ran == [inst] * 6
    assert runner((), "T=['1']")(inst).to_json() == {
        "statement_id": "Lislarge", "subject": inst.subject(),
        "verdict": FAIL, "witness": "T=['1']"}


# -- verdicts do not depend on what is kept ------------------------------------

def _squares_of(inst) -> list[DenseSquare]:
    if isinstance(inst, DenseSquare):
        return [inst]
    if isinstance(inst, SquareChain):
        return [inst.outer, inst.upper, inst.lower]
    if isinstance(inst, Triangle):
        return [inst.sq1, inst.sq2, inst.sq3]
    return []


def _unkept(inst):
    """inst with every value it can reach reset: the stores of its frames,
    its squares' adjoint verdicts, and for a context a new one."""
    squares = _squares_of(inst)
    if isinstance(inst, FiniteFrame):
        frames = [inst]
    elif isinstance(inst, RemoteContext):
        frames = [inst.frame]
        inst = RemoteContext(inst.frame, inst.s)
    else:
        frames = [frame for sq in squares for frame in
                  (sq.s_frame, sq.t_frame, sq.l_frame, sq.m_frame)]
    for frame in frames:
        frame.kept.clear()
    for sq in squares:
        sq._commute = None
    return inst


def _report_of(spec: GenSpec, corpus: dict, rows: list) -> str:
    """The suite report of ``rows``, every check on ``corpus``, as
    ``localic suite`` writes it."""
    tallies = {cid: {PASS: 0, HYPOTHESES_NOT_MET: 0, FAIL: 0}
               for cid in REGISTRY}
    for row in rows:
        tallies[row.check_id][row.verdict] += 1
    failures = sorted((row.to_json() for row in rows if row.verdict == FAIL),
                      key=lambda r: (r["statement_id"], r["subject"],
                                     r["witness"]))
    return render_report({
        "schema": 1, "genspec": spec.to_json(), "filter": "*",
        "corpus": {scope: len(items) for scope, items in corpus.items()},
        "checks": tallies, "failures": failures})


def _replay_differences(spec: GenSpec) -> tuple[int, list, str]:
    """Run every check on every instance as the suite does, then replay
    each row with nothing kept; the replays, the rows that differ, and the
    digest of the report of the replayed rows."""
    corpus = generators.build_corpus(spec)
    rows = [(c, inst, c.runner(inst)) for scope in SCOPES
            for inst in corpus[scope] for c in checks_in_scope(scope)]
    wrong, replayed = [], []
    for c, inst, row in rows:
        again = c.runner(_unkept(inst))
        replayed.append(again)
        if (again.verdict, again.witness) != (row.verdict, row.witness):
            wrong.append((c.id, row.subject, row.verdict, again.verdict))
    report = _report_of(spec, corpus, replayed)
    return len(rows), wrong, hashlib.sha256(report.encode()).hexdigest()


# The rows of each pinned report's suite
_REPLAYS = {
    "all-posets-up-to-3": 7_026, "all-posets-up-to-4": 8_172,
    "all-posets-up-to-5": 15_496, "random-poset-12-200-7": 16_642,
    "chain-16": 9_644, "boolean-algebra-16": 914,
}


@pytest.mark.parametrize("name", list(_REPLAYS))
def test_replay_with_nothing_kept(name):
    # each row of every pinned report, replayed with every value it could
    # read from an earlier check reset, gives the same verdict and witness,
    # and the replayed rows give the pinned report
    assert _REPLAYS.keys() == PINNED_REPORTS.keys()
    spec, digest = PINNED_REPORTS[name]
    assert _replay_differences(spec) == (_REPLAYS[name], [], digest)


def test_induced_frames_fill_no_lattice_table(monkeypatch):
    # meets and joins come from the join-irreducible masks: every check
    # run on the posets4 corpus leaves the induced-frame views without a
    # meet or implication table, and no frame, corpus or view, fills a
    # meet table
    built = []
    init = FiniteFrame.__init__

    def recorded(self, *args):
        init(self, *args)
        built.append(self)
    monkeypatch.setattr(FiniteFrame, "__init__", recorded)
    corpus = generators.build_corpus(GenSpec("all-posets-up-to", 4))
    for scope in SCOPES:
        for inst in corpus[scope]:
            for c in checks_in_scope(scope):
                c.runner(inst)
    frames = {id(f) for f in corpus["frame"]}
    views = [f for f in built if id(f) not in frames]
    assert [f for f in views if "impl" in f.kept] == []
    assert [f for f in built if "meet" in f.kept] == []
    assert not hasattr(FiniteFrame, "join_table")
    assert (len(built), len(frames), len(views)) == (93, 25, 68)
    assert sum("impl" in f.kept for f in built) == 25


def test_replay_catches_a_kept_context_keyed_by_frame(monkeypatch):
    # a dense_context keyed by the frame alone hands every S the first
    # context built on L; the replay sees rows that change
    def by_frame(frame, s):
        if "context" not in frame.kept:
            frame.kept["context"] = RemoteContext(frame, s)
        return frame.kept["context"]

    for module in (remoteness, diagrams, generators):
        monkeypatch.setattr(module, "dense_context", by_frame)
    _, wrong, _ = _replay_differences(GenSpec("all-posets-up-to", 3))
    assert wrong


# -- verdicts do not depend on labels ------------------------------------------

def _moved(perm, rel: frozenset) -> frozenset:
    return frozenset((perm[i], perm[j]) for i, j in rel)


def _relabelling(n: int, rel: frozenset):
    """A permutation of the n points that is no automorphism of the order:
    the first, in the order of ``itertools.permutations``, whose downset
    frame has other up-masks, else the first at all; None when every
    permutation is an automorphism, as on an antichain."""
    moved = [p for p in itertools.permutations(range(n))
             if _moved(p, rel) != rel]
    up = generators.downset_frame(n, rel).up
    return next((p for p in moved
                 if generators.downset_frame(n, _moved(p, rel)).up != up),
                next(iter(moved), None))


def _carry(f: FiniteFrame, g: FiniteFrame, perm) -> list[int]:
    """The element map of the isomorphism f -> g that a relabelling of the
    points induces: each down-set, named by its points, to its image."""
    def points(label):
        return [] if label == "o" else [int(c) for c in label]

    return [g.index_of("".join(sorted(str(perm[p]) for p in points(lab)))
                       or "o") for lab in f.labels]


def _carried(at: list[int], mask: int) -> int:
    """A mask of elements moved by an element map."""
    return _mask_of(at[x] for x in bits(mask))


def test_verdicts_survive_a_relabelling():
    # every poset on at most 4 points that some permutation moves, rebuilt
    # from its relabelled order: each frame check, and each context check
    # on every dense S carried across by its points, gives the verdict it
    # gives on the original; squares, chains and triangles are carried
    # across in the test below
    differ, frames, reordered, contexts = [], 0, 0, 0
    for n in range(5):
        for idx, rel in enumerate(generators.all_posets(n)):
            perm = _relabelling(n, rel)
            if perm is None:
                continue
            f = generators.downset_frame(n, rel, name=f"P{n}-{idx}")
            g = generators.downset_frame(n, _moved(perm, rel),
                                         name=f"P{n}-{idx}'")
            carry = _carry(f, g, perm)
            assert all(g.up[carry[a]] == _carried(carry, u)
                       for a, u in enumerate(f.up)), f
            frames += 1
            reordered += f.up != g.up
            pairs = [(f, g, checks_in_scope("frame"))]
            for s in generators.gen_dense_sublocales(f):
                pts = f.points_mask() & s.mask
                t = span(g, _mask_of(carry[p] for p in bits(pts)))
                assert t == _carried(carry, s.mask), s
                pairs.append((dense_context(f, s),
                              dense_context(g, Sublocale(g, t)),
                              checks_in_scope("context")))
                contexts += 1
            differ += [(c.id, a.subject()) for a, b, checks in pairs
                       for c in checks
                       if c.runner(a).verdict != c.runner(b).verdict]
    assert differ == []
    # the five antichains (0 to 4 points) have no such permutation, and on
    # 11 of the others every relabelling rebuilds the same up-masks
    assert (frames, reordered, contexts) == (20, 9, 88)


def _relabelled_frames(max_points: int) -> dict:
    """For each poset on at most ``max_points`` points, under the name
    that ``gen_frames`` gives its frame: the frame rebuilt from its order
    relabelled by ``_relabelling``, and the element map onto it.  A poset
    that every permutation fixes takes the reversal of its points, an
    automorphism: it moves no frame, but it moves the maps and the
    sublocales over it."""
    out = {}
    for n in range(max_points + 1):
        for idx, rel in enumerate(generators.all_posets(n)):
            perm = _relabelling(n, rel) or tuple(reversed(range(n)))
            f = generators.downset_frame(n, rel)
            g = generators.downset_frame(n, _moved(perm, rel),
                                         name=f"P{n}-{idx}'")
            out[f"P{n}-{idx}"] = (g, _carry(f, g, perm))
    return out


def _carried_square(sq: DenseSquare, moved: dict) -> DenseSquare:
    """sq carried across the relabellings of L and M: f's table, S and T
    moved by the element maps, and the square rebuilt from them."""
    (l, at_l), (m, at_m) = moved[sq.l_frame.name], moved[sq.m_frame.name]
    table = [0] * l.n
    for x, y in enumerate(sq.f.table):
        table[at_l[x]] = at_m[y]
    carried = generators.square_from(
        build_map(l, m, table),
        Sublocale(l, _carried(at_l, sq.alpha_image.mask)),
        Sublocale(m, _carried(at_m, sq.omega_image.mask)))
    assert carried is not None, sq
    return carried


def test_section_5_verdicts_survive_a_relabelling():
    # every square of the 3-point space, carried across a relabelling of
    # each of its two frames; each of its chains, matched to a chain of the
    # carried square by the images of R and U, since the two list their
    # chains in mask order; and the triangles over P3-2 -> P2-1 -> P2-1,
    # each carried square by square: every check gives the verdict it
    # gives on the original
    moved = _relabelled_frames(3)
    squares = [(sq, _carried_square(sq, moved))
               for sq in iter_square_space(3)]
    chains = []
    for sq, carried in squares:
        at_l, at_m = moved[sq.l_frame.name][1], moved[sq.m_frame.name][1]
        by_middle = {(ch.lower.alpha_image.mask, ch.lower.omega_image.mask):
                     ch for ch in generators.gen_chains([carried])}
        for ch in generators.gen_chains([sq]):
            chains.append((ch, by_middle.pop(
                (_carried(at_l, ch.lower.alpha_image.mask),
                 _carried(at_m, ch.lower.omega_image.mask)))))
        assert by_middle == {}, sq
    triangles = [(tri, Triangle(_carried_square(tri.sq1, moved),
                                _carried_square(tri.sq2, moved)))
                 for tri in triangle_slice()]
    differ = [(c.id, a.subject())
              for scope, pairs in (("square", squares), ("chain", chains),
                                   ("triangle", triangles))
              for a, b in pairs for c in checks_in_scope(scope)
              if c.runner(a).verdict != c.runner(b).verdict]
    assert differ == []
    # a frame lists its down-sets by size, then mask, so a relabelling
    # moves no element of a totally ordered poset's frame; 546 carried
    # squares have another f table, S mask or T mask than the original
    def masks(sq):
        return sq.f.table, sq.alpha_image.mask, sq.omega_image.mask
    others = sum(masks(a) != masks(b) for a, b in squares)
    assert (len(squares), others, len(chains), len(triangles)) \
        == (1559, 546, 4192, 125)
