from localic import registry
from localic.diagrams import CHAIN_CHECKS, SQUARE_CHECKS, TRIANGLE_CHECKS
from localic.registry import REGISTRY, SCOPES, checks_in_scope
from localic.remoteness import CONTEXT_CHECKS, FRAME_CHECKS
from localic.registry import FAIL, HYPOTHESES_NOT_MET, PASS, CheckResult


def test_registry_scopes_match_check_tables():
    tables = {"frame": FRAME_CHECKS, "context": CONTEXT_CHECKS,
              "square": SQUARE_CHECKS, "chain": CHAIN_CHECKS,
              "triangle": TRIANGLE_CHECKS}
    for scope in SCOPES:
        assert {c.id for c in checks_in_scope(scope)} == set(tables[scope])
    assert len(REGISTRY) == 40
    # every entry is (hypotheses, conclusion); 18 statements are conditional
    entries = [e for table in tables.values() for e in table.values()]
    for hypotheses, conclusion in entries:
        assert isinstance(hypotheses, tuple)
        assert all(map(callable, hypotheses)) and callable(conclusion)
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
        monkeypatch.setitem(FRAME_CHECKS, "Lislarge",
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
