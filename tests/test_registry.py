import pytest

from localic import (
    DenseSquare, GenSpec, RemoteContext, SquareChain, Triangle, chain_frame,
    diagrams, generators, registry, remoteness,
)
from localic.frame import FiniteFrame
from localic.registry import CHECKS, REGISTRY, SCOPES, checks_in_scope
from localic.registry import FAIL, HYPOTHESES_NOT_MET, PASS, CheckResult


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

def _kept_frame_slots() -> list[str]:
    """The FiniteFrame slots that a freshly built frame leaves None: every
    value a frame keeps once it is first asked for."""
    fresh = chain_frame(2)
    return [slot for slot in FiniteFrame.__slots__
            if getattr(fresh, slot) is None]


def _squares_of(inst) -> list[DenseSquare]:
    if isinstance(inst, DenseSquare):
        return [inst]
    if isinstance(inst, SquareChain):
        return [inst.outer, inst.upper, inst.lower]
    if isinstance(inst, Triangle):
        return [inst.sq1, inst.sq2, inst.sq3]
    return []


def _unkept(inst, slots: list[str]):
    """inst with every value it can reach reset: the kept slots of its
    frames, its squares' adjoint verdicts, and for a context a new one."""
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
        for slot in slots:
            setattr(frame, slot, None)
    for sq in squares:
        sq._commute = None
    return inst


def _replay_differences(spec: GenSpec) -> tuple[int, list]:
    """Run every check on every instance as the suite does, then replay
    each row with nothing kept; the replays and the rows that differ."""
    corpus = generators.build_corpus(spec)
    rows = [(c, inst, c.runner(inst)) for scope in SCOPES
            for inst in corpus[scope] for c in checks_in_scope(scope)]
    slots = _kept_frame_slots()
    wrong = []
    for c, inst, row in rows:
        again = c.runner(_unkept(inst, slots))
        if (again.verdict, again.witness) != (row.verdict, row.witness):
            wrong.append((c.id, row.subject, row.verdict, again.verdict))
    return len(rows), wrong


@pytest.mark.parametrize("max_size, replays", [(3, 7026), (4, 8172)])
def test_replay_with_nothing_kept(max_size, replays):
    # each row, replayed with every value it could read from an earlier
    # check reset, gives the same verdict and witness
    assert {"_meet", "_views", "_inclusions", "_contexts"} \
        <= set(_kept_frame_slots())
    spec = GenSpec("all-posets-up-to", max_size)
    assert _replay_differences(spec) == (replays, [])


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
    assert [f for f in views if f._impl is not None] == []
    assert [f for f in built if f._meet is not None] == []
    assert not hasattr(FiniteFrame, "join_table")
    assert (len(built), len(frames), len(views)) == (93, 25, 68)
    assert sum(f._impl is not None for f in built) == 25


def test_replay_catches_a_kept_context_keyed_by_frame(monkeypatch):
    # a dense_context keyed by the frame alone hands every S the first
    # context built on L; the replay sees rows that change
    def by_frame(frame, s):
        if frame._contexts is None:
            frame._contexts = {}
        if 0 not in frame._contexts:
            frame._contexts[0] = RemoteContext(frame, s)
        return frame._contexts[0]

    for module in (remoteness, diagrams, generators):
        monkeypatch.setattr(module, "dense_context", by_frame)
    _, wrong = _replay_differences(GenSpec("all-posets-up-to", 3))
    assert wrong
