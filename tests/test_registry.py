from localic import registry
from localic.diagrams import CHAIN_CHECKS, SQUARE_CHECKS, TRIANGLE_CHECKS
from localic.registry import REGISTRY, SCOPES, checks_in_scope
from localic.remoteness import CONTEXT_CHECKS, FRAME_CHECKS
from localic.result import FAIL, HYPOTHESES_NOT_MET, PASS, CheckResult


def test_registry_scopes_match_check_tables():
    tables = {"frame": FRAME_CHECKS, "context": CONTEXT_CHECKS,
              "square": SQUARE_CHECKS, "chain": CHAIN_CHECKS,
              "triangle": TRIANGLE_CHECKS}
    for scope in SCOPES:
        assert {c.id for c in checks_in_scope(scope)} == set(tables[scope])
    assert len(REGISTRY) == 40


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
    # a check returns None, HYPOTHESES_NOT_MET or its witness; the runner
    # adds the registry id and the instance's subject
    inst = _Instance()
    for out, row in ((None, (PASS, None)),
                     (HYPOTHESES_NOT_MET, (HYPOTHESES_NOT_MET, None)),
                     ("T=['1']", (FAIL, "T=['1']"))):
        monkeypatch.setitem(FRAME_CHECKS, "Lislarge",
                            lambda i, out=out: out if i is inst else "wrong")
        runner = registry._build_registry()["Lislarge"].runner
        assert runner(inst) == CheckResult("Lislarge", "the instance", *row)
