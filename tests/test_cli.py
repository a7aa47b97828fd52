import hashlib
import importlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import localic
from localic import (
    REGISTRY, DenseSquare, FiniteFrame, LocalicError, LocalicMap,
    RemoteContext, SquareChain, Triangle, checks_in_scope, cli,
    enumerate_sublocales,
)
from localic import frame, jsonio
from localic.cli import main
from localic.errors import (
    FrameTooLarge, InvalidDocument, MixedFrames, NotALattice,
    NotAPartialOrder, NotDistributive,
)
from localic.frame import frame_from_leq
from localic.generators import FAMILIES, GenSpec
from localic.jsonio import document_from_json
from localic.remoteness import dense_context
from localic.sublocale import (
    booleanization, subl_join, supplement, whole_subl,
)
from localic.registry import (
    FAIL, HYPOTHESES_NOT_MET, PASS, TheoremCheck,
)

C3_DOC = {
    "type": "frame",
    "name": "C3",
    "elements": ["0", "m", "1"],
    "order": [["0", "m"], ["m", "1"]],
}

N5_DOC = {
    "type": "frame",
    "name": "N5",
    "elements": ["0", "a", "b", "c", "1"],
    "order": [["0", "a"], ["a", "1"], ["0", "b"], ["b", "c"], ["c", "1"]],
}

MAP_DOC = {
    "type": "map",
    "frames": [C3_DOC],
    "source": "C3",
    "target": "C3",
    "table": {"0": "0", "m": "m", "1": "1"},
}

SQUARE_DOC = {
    "type": "square",
    "frames": [
        C3_DOC,
        {"type": "frame", "name": "BL", "elements": ["0", "1"],
         "order": [["0", "1"]]},
    ],
    "maps": {
        "g": {"source": "BL", "target": "BL",
              "table": {"0": "0", "1": "1"}},
        "f": {"source": "C3", "target": "C3",
              "table": {"0": "0", "m": "m", "1": "1"}},
        "alpha": {"source": "BL", "target": "C3",
                  "table": {"0": "0", "1": "1"}},
        "omega": {"source": "BL", "target": "C3",
                  "table": {"0": "0", "1": "1"}},
    },
    "square": {"g": "g", "f": "f", "alpha": "alpha", "omega": "omega"},
}


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_validate_frame(tmp_path, capsys):
    path = _write(tmp_path, "c3.json", C3_DOC)
    assert main(["validate", path]) == 0
    assert "ok: FiniteFrame" in capsys.readouterr().out


def test_validate_rejects_non_distributive(tmp_path, capsys):
    path = _write(tmp_path, "n5.json", N5_DOC)
    assert main(["validate", path]) == 2
    assert "NotDistributive" in capsys.readouterr().err


def test_validate_rejects_bad_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["validate", str(p)]) == 2


def test_validate_map_and_square(tmp_path, capsys):
    assert main(["validate", _write(tmp_path, "map.json", MAP_DOC)]) == 0
    assert main(["validate", _write(tmp_path, "sq.json", SQUARE_DOC)]) == 0
    out = capsys.readouterr().out
    assert "LocalicMap" in out and "DenseSquare" in out


def test_validate_rejects_bad_map_table(tmp_path, capsys):
    # the message names the elements at fault by label
    for table, message in [
        ({"0": "1", "m": "m", "1": "1"}, "NotMeetPreserving: f(0) = 1, but "
         "the images of the points above 0 meet in m"),
        ({"0": "0", "m": "1", "1": "1"}, "AdjointNotFrameHom: point m goes "
         "to 1, which is not a point of C3"),
    ]:
        doc = dict(MAP_DOC, table=table)
        assert main(["validate", _write(tmp_path, "bad_map.json", doc)]) == 2
        assert capsys.readouterr().err == f"invalid: {message}\n"


CHAIN_DOC = dict(SQUARE_DOC, type="chain", chain={
    "i": "g", "k": "g", "phi": "g", "theta": "alpha", "sigma": "omega"})


def _one_line(err: str) -> bool:
    return err.count("\n") == 1 and "Traceback" not in err


def test_validate_chain_names_the_map_at_fault(tmp_path, capsys):
    assert main(["validate", _write(tmp_path, "ch.json", CHAIN_DOC)]) == 0
    assert "ok: SquareChain" in capsys.readouterr().out
    bad = dict(CHAIN_DOC, chain=dict(CHAIN_DOC["chain"], theta="f"))
    assert main(["validate", _write(tmp_path, "bad.json", bad)]) == 2
    err = capsys.readouterr().err
    assert _one_line(err) and "InvalidSquare" in err and "theta" in err


@pytest.mark.parametrize("doc", [
    {"type": "frame", "elements": [[1]], "order": []},
    dict(MAP_DOC, frames=[dict(C3_DOC, name=["F"])]),
    dict(MAP_DOC, table={"0": "0", "m": ["m"], "1": "1"}),
    dict(MAP_DOC, frames=5),
    dict(SQUARE_DOC, maps=[]),
    {"type": "frame", "elements": ["a", "a"], "order": []},
], ids=["list-label", "list-name", "list-image", "int-frames", "list-maps",
        "duplicate-labels"])
def test_validate_rejects_malformed_document(doc, tmp_path, capsys):
    assert main(["validate", _write(tmp_path, "bad.json", doc)]) == 2
    err = capsys.readouterr().err
    assert _one_line(err) and "InvalidDocument" in err


@pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100000],
                         ids=["not-utf8", "too-deep"])
def test_validate_rejects_undecodable_file(raw, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_bytes(raw)
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert _one_line(err) and "InvalidDocument" in err


LABELS = st.sampled_from(["0", "m", "1", "C3", "BL", "g", "f", "alpha"])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | LABELS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(LABELS, kids, max_size=3),
    max_leaves=10)


@st.composite
def _mutants(draw, bases, fields):
    """One of ``bases`` with up to three fields replaced by drawn values."""
    doc = dict(draw(st.sampled_from(bases)))
    for key in draw(st.lists(st.sampled_from(sorted(fields)), unique=True,
                             max_size=3)):
        doc[key] = draw(fields[key] | JSON)
    return doc


FRAME_DOCS = _mutants(SQUARE_DOC["frames"], {
    "name": LABELS,
    "elements": st.lists(LABELS, max_size=4),
    "order": st.lists(st.lists(LABELS, min_size=2, max_size=2),
                      max_size=4),
})
MAP_FIELDS = {
    "source": LABELS,
    "target": LABELS,
    "table": st.dictionaries(LABELS, LABELS, max_size=3),
}
ROLE_NAMES = st.dictionaries(
    st.sampled_from(list(SQUARE_DOC["square"]) + list(CHAIN_DOC["chain"])),
    LABELS)
DOCUMENTS = JSON | _mutants([C3_DOC, MAP_DOC, SQUARE_DOC, CHAIN_DOC], {
    "type": st.sampled_from(["frame", "map", "square", "chain"]),
    "frames": st.lists(FRAME_DOCS, max_size=3),
    "maps": st.dictionaries(
        LABELS, _mutants(list(SQUARE_DOC["maps"].values()), MAP_FIELDS),
        max_size=4),
    "square": ROLE_NAMES,
    "chain": ROLE_NAMES,
    **MAP_FIELDS,
})


@settings(max_examples=200, deadline=None)
@given(DOCUMENTS)
def test_document_from_json_fuzz(doc):
    try:
        out = document_from_json(doc)
    except LocalicError:
        return
    assert isinstance(out, (FiniteFrame, LocalicMap, DenseSquare,
                            SquareChain))


def test_query_booleanization(tmp_path, capsys):
    path = _write(tmp_path, "c3.json", C3_DOC)
    assert main(["query", path, "booleanization"]) == 0
    assert json.loads(capsys.readouterr().out) == ["0", "1"]


def test_query_sublocale_count(tmp_path, capsys):
    path = _write(tmp_path, "c3.json", C3_DOC)
    assert main(["query", path, "sublocale-count"]) == 0
    assert json.loads(capsys.readouterr().out) == 4


def _chain_doc(n):
    labels = [str(i) for i in range(n)]
    return {"type": "frame", "name": f"C{n}", "elements": labels,
            "order": [[a, b] for a, b in zip(labels, labels[1:])]}


def test_sublocale_count_is_the_powerset_of_points(tier1_frames, tmp_path,
                                                   capsys):
    # S(L) is the powerset of the points: the count agrees with the
    # enumeration, and needs none, so a frame above its cap is answered
    for frame in tier1_frames:
        assert cli.answer_query(frame, ["sublocale-count"]) \
            == len(enumerate_sublocales(frame))
    path = _write(tmp_path, "c20.json", _chain_doc(20))
    assert main(["query", path, "sublocale-count"]) == 0
    assert json.loads(capsys.readouterr().out) == 2 ** 19


def test_query_remote_set_with_s(tmp_path, capsys):
    path = _write(tmp_path, "c3.json", C3_DOC)
    assert main(["query", path, "rs", "S=BL"]) == 0
    first = capsys.readouterr().out
    assert main(["query", path, "star-rs", "S=BL"]) == 0
    second = capsys.readouterr().out
    assert main(["query", path, "remote-set", "S=L"]) == 0
    third = json.loads(capsys.readouterr().out)
    assert json.loads(first) == ["0", "1", "m"]   # everything is remote
    assert json.loads(second) == ["1", "m"]
    assert third == [["0", "1"], ["1"]]


def test_query_flags(tmp_path, capsys):
    path = _write(tmp_path, "c3.json", C3_DOC)
    assert main(["query", path, "dense-in-itself?"]) == 0
    assert json.loads(capsys.readouterr().out) is False
    assert main(["query", path, "rare?", "S=BL"]) == 0
    assert json.loads(capsys.readouterr().out) is False


def test_query_unknown_question(tmp_path, capsys):
    path = _write(tmp_path, "c3.json", C3_DOC)
    assert main(["query", path, "no-such-question"]) == 2


def test_query_rejects_non_frame(tmp_path):
    path = _write(tmp_path, "map.json", MAP_DOC)
    assert main(["query", path, "booleanization"]) == 2


def test_suite_small_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["suite", "--family", "chain", "--max-size", "4",
               "--jobs", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["failures"] == []
    assert captured.out == out.read_text()


def test_suite_filter(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["suite", "--family", "chain", "--max-size", "3",
               "--jobs", "1", "--filter", "Rs*", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert set(report["checks"]) == {"RsBL", "RsDense", "RsNd"}


def test_suite_byte_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["suite", "--family", "all-posets-up-to", "--max-size", "3"]
    assert main(args + ["--jobs", "1", "--out", str(a)]) == 0
    assert main(args + ["--jobs", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_suite_rejects_bad_family(capsys):
    # GenSpec alone checks the family.  No family draws finite topologies:
    # each one's frame is the downset frame of a poset that
    # all-posets-up-to holds (tests/test_generators.py)
    for family in ("nope", "finite-topology"):
        assert main(["suite", "--family", family, "--max-size", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"unknown family {family!r}\n"


def test_query_unknown_label(tmp_path, capsys):
    path = _write(tmp_path, "c3.json", C3_DOC)
    assert main(["query", path, "remote-set", "S={x,1}"]) == 2
    err = capsys.readouterr().err
    assert _one_line(err) and "'x'" in err


def test_query_names_a_bad_s_by_its_labels(tmp_path, capsys):
    path = _write(tmp_path, "c3.json", C3_DOC)
    assert main(["query", path, "rs", "S={m}"]) == 2
    err = capsys.readouterr().err
    assert err == "error: {m} is not a sublocale of C3\n"


@pytest.mark.parametrize("words", [
    ["rs", "s={m,1}"],                  # lower-case s is not S=
    ["rs", "S={m,1}", "S=L"],           # a second S=
    ["remote-set", "BL"],
    ["booleanization", "S=L"],          # questions that take no S
    ["sublocale-count", "S=BL"],
    ["dense-in-itself?", "S=L"],
    ["rs", "S={0,,1}"],                 # an empty label
    ["rs", "S=m,1"],                    # labels outside braces
])
def test_query_rejects_stray_words(tmp_path, capsys, words):
    path = _write(tmp_path, "c3.json", C3_DOC)
    assert main(["query", path] + words) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_line(captured.err)


def test_query_nd(tmp_path, capsys):
    # Nd(L) of C3 spans its one dense point, m
    path = _write(tmp_path, "c3.json", C3_DOC)
    assert main(["query", path, "nd", "S=L"]) == 0
    assert json.loads(capsys.readouterr().out) == ["1", "m"]


# The 13 question words of a query: three plain questions, and the five
# about a dense S with S=L and S=BL
QUERY_WORDS = [["booleanization"], ["sublocale-count"],
               ["dense-in-itself?"]] + [
    [q, s] for q in ("remote-set", "rs", "star-rs", "nd", "rare?")
    for s in ("S=L", "S=BL")]


def test_query_answers_fill_no_table(tier1_frames):
    # a frame answers each question on its own here, as on its first load:
    # its answer reads the order and the masks found with it, and never
    # fills a meet, join or implication table.  A kept frame's later
    # queries reuse what the first filled (the document memo's tests)
    for f in tier1_frames:
        for words in QUERY_WORDS:
            fresh = frame_from_leq(f.up, labels=f.labels, name=f.name)
            cli.answer_query(fresh, words)
            assert not {"meet", "impl"} & fresh.kept.keys(), (f, words)


@pytest.mark.parametrize("doc, words, message", [
    (C3_DOC, ["nd", "S={m,1}"], "Nd(S) is defined for dense S"),
    (C3_DOC, ["remote-set", "S={m,1}"],
     "remoteness contexts need a dense sublocale"),
    (_chain_doc(17), ["remote-set"],
     "frame C17 has 17 elements; sublocale enumeration is capped at 16"),
], ids=["nd-non-dense", "remote-set-non-dense", "remote-set-c17"])
def test_query_refusals(doc, words, message, tmp_path, capsys):
    path = _write(tmp_path, "frame.json", doc)
    assert main(["query", path] + words) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_remote_set_answers_up_to_the_cap(tmp_path, capsys):
    # C16's remote set from L is O and BL, found without listing S(L)
    path = _write(tmp_path, "c16.json", _chain_doc(16))
    assert main(["query", path, "remote-set"]) == 0
    assert json.loads(capsys.readouterr().out) == [["0", "15"], ["15"]]


# C3's maps: the identity, and the map sending both points to m
C3_MAPS = {"id": SQUARE_DOC["maps"]["f"],
           "collapse": dict(SQUARE_DOC["maps"]["f"],
                            table={"0": "m", "m": "m", "1": "1"})}


@pytest.mark.parametrize("doc, message", [
    (dict(C3_DOC, order=[["0", "x"]]), "order references unknown element"),
    (dict(SQUARE_DOC, frames=[C3_DOC, C3_DOC]), "duplicate frame name 'C3'"),
    (dict(SQUARE_DOC, square=dict(SQUARE_DOC["square"], alpha="f")),
     "alpha must run from the top-left frame down"),
    (dict(SQUARE_DOC, frames=[C3_DOC], maps=C3_MAPS, square={
        "g": "id", "f": "id", "alpha": "collapse", "omega": "id"}),
     "alpha is not injective"),
    (dict(SQUARE_DOC, frames=[C3_DOC], maps=C3_MAPS, square={
        "g": "id", "f": "collapse", "alpha": "id", "omega": "id"}),
     "square does not commute at element 0"),
], ids=["unknown-element", "duplicate-frame", "alpha-wrong-way",
        "vertical-not-injective", "not-commuting"])
def test_validate_refusals(doc, message, tmp_path, capsys):
    assert main(["validate", _write(tmp_path, "bad.json", doc)]) == 2
    err = capsys.readouterr().err
    assert _one_line(err) and message in err, err


def _elements(n: int) -> list[str]:
    return [f"e{i}" for i in range(n)]


# Frame documents with an error, and what each raises: pair shapes first,
# then labels, then the size cap, then the order
FRAME_DOC_ERRORS = [
    # every pair's shape is checked before any label
    ({"elements": ["a", "b"], "order": [["a", "x"], ["a"]]},
     InvalidDocument, "'order' must be a list of [a, b] pairs"),
    ({"elements": ["a", "b"], "order": [["a", ["x"]], "ab"]},
     InvalidDocument, "'order' must be a list of [a, b] pairs"),
    # the first unknown label, by pair and then by side
    ({"elements": ["a", "b"], "order": [["a", "b"], ["y", "x"], ["z", "a"]]},
     InvalidDocument, "order references unknown element: 'y'"),
    ({"elements": ["a", "b"], "order": [["a", ["x"]]]},
     InvalidDocument, "order references unknown element: unhashable type: "
     "'list'"),
    # labels are checked before the size cap
    ({"elements": _elements(70), "order": [["e0", "e1"], ["e1", "zz"]]},
     InvalidDocument, "order references unknown element: 'zz'"),
    ({"elements": [], "order": [["a", "b"]]},
     InvalidDocument, "order references unknown element: 'a'"),
    ({"elements": [], "order": []},
     NotALattice, "element count must be positive"),
    ({"elements": _elements(70), "order": [["e0", "e1"]]},
     FrameTooLarge, "70 elements exceeds the cap of 64"),
    # pair shape before the size cap
    ({"elements": _elements(70), "order": [["e0"]]},
     InvalidDocument, "'order' must be a list of [a, b] pairs"),
    ({"elements": ["a", "b"], "order": {"a": "b"}},
     InvalidDocument, "'order' must be a list of [a, b] pairs"),
    # orders that the shape check refuses
    ({"elements": ["0", "a", "b", "c", "1"],
      "order": [["0", "a"], ["a", "1"], ["0", "b"], ["b", "c"], ["c", "1"]]},
     NotDistributive, "witness triple (3,1,2): 3/\\(1\\/2)=3 but "
     "(3/\\1)\\/(3/\\2)=2"),
    ({"elements": ["0", "m"], "order": [["0", "m"], ["m", "0"]]},
     NotAPartialOrder, "elements 0 and 1 are in a cycle"),
]
FRAME_DOC_ERROR_IDS = [
    "shape-after-unknown", "shape-after-unhashable", "first-unknown",
    "unhashable", "unknown-in-70", "unknown-in-empty", "empty", "cap",
    "shape-in-70", "order-not-a-list", "n5", "cycle"]


@pytest.mark.parametrize("doc, error, message", FRAME_DOC_ERRORS,
                         ids=FRAME_DOC_ERROR_IDS)
def test_frame_document_errors_fire_in_order(doc, error, message):
    with pytest.raises(error) as info:
        document_from_json({"type": "frame", **doc})
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("doc, error, message", FRAME_DOC_ERRORS,
                         ids=FRAME_DOC_ERROR_IDS)
def test_frame_document_errors_fire_in_order_from_a_file(doc, error, message,
                                                         tmp_path, doc_memo):
    # the same error from a file, loaded cold and again: no error is kept,
    # so an order that the shape check refuses raises on every load
    path = _write(tmp_path, "bad.json", {"type": "frame", **doc})
    for _ in range(2):
        with pytest.raises(error) as info:
            jsonio.load_document(path)
        assert type(info.value) is error and str(info.value) == message
    assert doc_memo == {}


def test_frame_document_cap_before_masks(monkeypatch):
    # a 10,000-element document is refused before the order is closed or
    # any mask is built: its pairs go through no closure and no frame build
    monkeypatch.setattr(frame, "_close_order", None)
    monkeypatch.setattr(frame, "frame_from_leq", None)
    labels = _elements(10_000)
    doc = {"type": "frame", "elements": labels,
           "order": [[a, b] for a, b in zip(labels, labels[1:])]}
    with pytest.raises(FrameTooLarge) as info:
        document_from_json(doc)
    assert str(info.value) == "10000 elements exceeds the cap of 64"


# -- the frame-document memo of load_document ----------------------------------

@pytest.fixture
def doc_memo():
    """load_document's memo, emptied before and after the test."""
    jsonio._FRAME_DOCS.clear()
    yield jsonio._FRAME_DOCS
    jsonio._FRAME_DOCS.clear()


def _slots(f: FiniteFrame) -> list:
    return [getattr(f, slot) for slot in FiniteFrame.__slots__
            if slot != "kept"]


B2_DOC = {"type": "frame", "name": "B2", "elements": ["0", "a", "b", "1"],
          "order": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}


def test_a_kept_document_loads_as_the_same_frame(tmp_path, doc_memo):
    # a hit returns the frame of the first load, with every value it has
    # derived since, and that frame equals a cold build slot for slot
    path = _write(tmp_path, "b2.json", B2_DOC)
    cold = document_from_json(B2_DOC)
    first = jsonio.load_document(path)
    assert len(doc_memo) == 1 and first.kept == {}
    first.index_of("a")
    dense_context(first, booleanization(first)).star()
    filled = dict(first.kept)
    assert {"index", "span", ("context", booleanization(first).mask)} \
        <= filled.keys()
    again = jsonio.load_document(path)
    assert again is first and again.kept.keys() == filled.keys()
    assert all(again.kept[key] is value for key, value in filled.items())
    assert _slots(again) == _slots(cold)


# The downset frame of the 4-point poset p < r > q < s
N4_DOC = {"type": "frame", "name": "N4",
          "elements": ["0", "p", "q", "pq", "qs", "pqs", "pqr", "1"],
          "order": [["0", "p"], ["0", "q"], ["p", "pq"], ["q", "pq"],
                    ["q", "qs"], ["pq", "pqs"], ["qs", "pqs"], ["pq", "pqr"],
                    ["pqs", "1"], ["pqr", "1"]]}


def test_the_document_memo_keys_on_the_bytes(tmp_path, doc_memo):
    # a file rewritten with another order between two loads gives the new
    # frame
    path = _write(tmp_path, "frame.json", C3_DOC)
    assert jsonio.load_document(path).n == 3
    _write(tmp_path, "frame.json", B2_DOC)
    new = jsonio.load_document(path)
    assert _slots(new) == _slots(document_from_json(B2_DOC))
    assert len(doc_memo) == 2


def test_the_cap_is_read_at_each_load_of_a_kept_document(
        tmp_path, doc_memo, monkeypatch):
    path = _write(tmp_path, "c3.json", C3_DOC)
    assert jsonio.load_document(path).n == 3
    monkeypatch.setattr(frame, "MAX_ELEMENTS", 2)
    with pytest.raises(FrameTooLarge) as warm:
        jsonio.load_document(path)
    assert str(warm.value) == "3 elements exceeds the cap of 2"
    doc_memo.clear()    # a cold load raises the same
    with pytest.raises(FrameTooLarge) as cold:
        jsonio.load_document(path)
    assert str(cold.value) == str(warm.value)


@pytest.mark.parametrize("doc, kind", [
    (MAP_DOC, LocalicMap), (SQUARE_DOC, DenseSquare),
], ids=["map", "square"])
def test_other_documents_are_never_kept(doc, kind, tmp_path, doc_memo,
                                        monkeypatch):
    # a map or square document is decoded once on each load, and a frame
    # document only on its first
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads",
                        lambda text: decoded.append(text) or loads(text))
    path = _write(tmp_path, "doc.json", doc)
    for _ in range(2):
        assert type(jsonio.load_document(path)) is kind
    assert len(decoded) == 2 and doc_memo == {}
    path = _write(tmp_path, "c3.json", C3_DOC)
    for _ in range(2):
        jsonio.load_document(path)
    assert len(decoded) == 3 and len(doc_memo) == 1


def test_the_document_memo_is_bounded(tmp_path, doc_memo):
    # one more distinct document than the memo holds: it stays full, and
    # the least recently loaded, evicted, loads anew to an equal frame
    bound = frame._SHAPES
    paths = [_write(tmp_path, f"c3-{i}.json", dict(C3_DOC, name=f"C3-{i}"))
             for i in range(bound + 1)]
    first = jsonio.load_document(paths[0])
    for path in paths[1:]:
        jsonio.load_document(path)
    assert len(doc_memo) == bound
    with open(paths[0], "rb") as fh:
        assert fh.read() not in doc_memo
    again = jsonio.load_document(paths[0])
    assert len(doc_memo) == bound and _slots(again) == _slots(first)


def test_a_miss_builds_one_frame_and_a_hit_none(tmp_path, doc_memo,
                                                 monkeypatch):
    # a miss decodes the document once and builds one frame from it; a hit
    # decodes nothing and builds no frame, by any route
    built, decoded = [], []
    init, loads = FiniteFrame.__init__, json.loads

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FiniteFrame, "__init__", counted)
    monkeypatch.setattr(json, "loads",
                        lambda text: decoded.append(text) or loads(text))
    b2 = _write(tmp_path, "b2.json", B2_DOC)
    jsonio.load_document(b2)
    assert (len(built), len(decoded)) == (1, 1)
    for _ in range(3):
        jsonio.load_document(b2)
    assert (len(built), len(decoded)) == (1, 1)
    jsonio.load_document(_write(tmp_path, "c3.json", C3_DOC))
    assert (len(built), len(decoded)) == (2, 2)


def test_sublocales_of_two_loads_of_one_file_combine(tmp_path, doc_memo):
    # two loads of one file are one frame, so their sublocales are equal
    # and mix; a sublocale of the frame a file held before it was
    # rewritten, even with the same order, does not mix with the new one
    path = _write(tmp_path, "frame.json", N4_DOC)
    first, again = (jsonio.load_document(path) for _ in range(2))
    s, t = booleanization(first), booleanization(again)
    assert s == t and hash(s) == hash(t)
    assert s <= whole_subl(again)
    assert subl_join([s, supplement(again, t)]) == whole_subl(first)
    assert dense_context(again, s) is dense_context(first, t)
    for doc in (B2_DOC, dict(reversed(N4_DOC.items()))):
        _write(tmp_path, "frame.json", doc)
        new = jsonio.load_document(path)
        assert new is not first
        with pytest.raises(MixedFrames):
            dense_context(new, s)
        with pytest.raises(MixedFrames):
            s <= whole_subl(new)


def test_answers_do_not_depend_on_what_a_kept_frame_filled(
        tmp_path, doc_memo, capsys):
    # every question on B2, C3 and the 4-point N4 prints the same bytes
    # whatever its frame filled before: in order on a warm memo, in
    # reverse on a cleared one, and with the memo cleared before each call
    paths = [_write(tmp_path, f"{name}.json", doc) for name, doc in
             (("b2", B2_DOC), ("c3", C3_DOC), ("n4", N4_DOC))]
    calls = [["query", path] + words for path in paths
             for words in QUERY_WORDS]

    def ask(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    frames = [jsonio.load_document(path) for path in paths]
    forward = [ask(argv) for argv in calls]
    kept = [set(f.kept) for f in frames]
    assert [ask(argv) for argv in calls] == forward
    assert [set(f.kept) for f in frames] == kept    # a repeat adds nothing
    assert all(jsonio.load_document(p) is f for p, f in zip(paths, frames))
    doc_memo.clear()
    backward = [ask(argv) for argv in reversed(calls)][::-1]
    cold = []
    for argv in calls:
        doc_memo.clear()
        cold.append(ask(argv))
    assert backward == cold == forward
    assert all(code == 0 and err == "" for code, _, err in forward)


def test_a_document_over_the_byte_cap_is_refused(tmp_path, capsys,
                                                 doc_memo):
    # a file is read only until it passes the cap, so one byte too long
    # is refused before it is decoded, and so is /dev/zero, which never
    # ends: exit 2 and one line from validate and from query
    cap = jsonio._MAX_BYTES
    text = json.dumps(C3_DOC)
    path = tmp_path / "c3.json"
    path.write_text(text + " " * (cap - len(text)))
    assert main(["validate", str(path)]) == 0
    path.write_text(text + " " * (cap + 1 - len(text)))
    for p in [str(path)] + ["/dev/zero"] * os.path.exists("/dev/zero"):
        message = f"{p} is longer than {cap} bytes\n"
        assert main(["validate", p]) == 2
        captured = capsys.readouterr()
        assert captured.err == "invalid: InvalidDocument: " + message
        assert main(["query", p, "booleanization"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: " + message
    assert len(doc_memo) == 1


def test_non_ascii_labels_round_trip(tmp_path, capsys):
    doc = {"type": "frame", "name": "Ç3",
           "elements": ["∅", "é", "全"], "order": [["∅", "é"], ["é", "全"]]}
    path = tmp_path / "c3.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok: FiniteFrame\n"
    assert main(["query", str(path), "booleanization"]) == 0
    assert json.loads(capsys.readouterr().out) == ["∅", "全"]
    assert main(["query", str(path), "nd", "S={∅,é,全}"]) == 0
    assert json.loads(capsys.readouterr().out) == ["é", "全"]


@pytest.mark.parametrize("encode", [
    lambda text: b"\xef\xbb\xbf" + text.encode("utf-8"),
    lambda text: text.encode("utf-16"),
], ids=["utf-8-bom", "utf-16"])
def test_frame_document_must_be_plain_utf8(encode, tmp_path, capsys):
    path = tmp_path / "c3.json"
    path.write_bytes(encode(json.dumps(C3_DOC)))
    for words in ([], ["booleanization"]):
        command = "query" if words else "validate"
        assert main([command, str(path)] + words) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and _one_line(captured.err)
        assert "not valid JSON" in captured.err


@pytest.mark.parametrize("command", [["validate"], ["query"]])
def test_unreadable_path(command, tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    words = ["booleanization"] if command == ["query"] else []
    assert main(command + [missing] + words) == 2
    err = capsys.readouterr().err
    assert _one_line(err) and f"cannot read {missing}" in err


def test_parser_reuse_leaks_nothing(tmp_path, capsys):
    # one parser serves every call of main in a process
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["suite", "--family", "chain", "--max-size", "3", "--jobs", "1"]
    assert main(args + ["--filter", "beta*", "--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert len(json.loads(a.read_text())["checks"]) == 4
    report = json.loads(b.read_text())
    assert report["filter"] == "*" and len(report["checks"]) == 40
    capsys.readouterr()
    assert main(["query"]) == 2
    assert _one_line(capsys.readouterr().err)
    path = _write(tmp_path, "c3.json", C3_DOC)
    assert main(["query", path, "booleanization"]) == 0
    assert json.loads(capsys.readouterr().out) == ["0", "1"]


@pytest.mark.parametrize("flags", [
    ["--family", "chain", "--max-size", "-3"],
    ["--family", "random-poset", "--max-size", "8", "--count", "-1"],
    ["--family", "random-poset", "--max-size", "1"],
    ["--family", "random-poset", "--max-size", "0"],
    ["--family", "random-poset", "--max-size", "17"],
    ["--family", "chain", "--max-size", "0"],
    ["--family", "boolean-algebra", "--max-size", "0"],
    ["--family", "chain", "--max-size", "3", "--jobs", "-5"],
    ["--family", "all-posets-up-to", "--max-size", "7"],
    ["--family", "chain", "--max-size", "3", "--count", "7"],
    ["--family", "boolean-algebra", "--max-size", "4", "--count", "1"],
    ["--family", "all-posets-up-to", "--max-size", "2", "--count", "3"],
    ["--family", "chain", "--max-size", "100"],
])
def test_suite_rejects_negative_sizes(flags, capsys):
    assert main(["suite", "--jobs", "1"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_line(captured.err)


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["query"],
    ["query", "FILE"],
    ["validate"],
    ["validate", "FILE", "FILE"],
    ["suite", "--max-size", "3"],
    ["suite", "--family", "chain"],
    ["suite", "--family", "chain", "--max-size"],
    ["suite", "--family", "--max-size", "3"],
    ["suite", "--family", "chain", "--max-size", "3", "--jobs", "two"],
    ["suite", "--family", "chain", "--max-size", "3", "--verbose"],
    ["suite", "--family", "chain", "--max", "3"],     # no abbreviations
    ["suite", "--family", "nope", "--max-size", "3"],
    ["suite", "--family", "chain", "--max-size", "2", "--out="],
    ["suite", "--family", "chain", "--max-size", "2", "--out", ""],
    ["suite", "--family=", "--max-size", "2"],
    ["suite", "--family", "chain", "--max-size", "2", "--family",
     "boolean-algebra"],
    ["suite", "--family", "chain", "--max-size", "2", "--jobs", "1",
     "--jobs=1"],
], ids=["none", "unknown-command", "query-no-file", "query-no-question",
        "validate-no-file", "validate-two-files", "no-family",
        "no-max-size", "no-value-at-end", "option-as-value",
        "non-integer-jobs", "unknown-option", "abbreviated-option",
        "unknown-family", "empty-out-after-equals", "empty-out",
        "empty-family", "repeated-family", "repeated-jobs"])
def test_bad_argv_is_one_line(argv, tmp_path, capsys):
    path = _write(tmp_path, "c3.json", C3_DOC)
    argv = [path if w == "FILE" else w for w in argv]
    if argv[:1] == ["suite"] and not any(
            w.partition("=")[0] == "--jobs" for w in argv):
        argv[1:1] = ["--jobs=1"]    # no worker pool, should one slip by
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_line(captured.err)


def test_help_prints_the_usage(capsys):
    for argv in (["--help"], ["-h"], ["suite", "--help"], ["query", "-h"]):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: localic validate FILE\n")
        assert captured.err == ""
        listed = captured.out.split("FAMILY is one of")[1].split(";")[0]
        assert tuple(" ".join(listed.split()).split(", ")) == FAMILIES


def test_option_value_after_equals_sign(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["suite", "--family", "chain", "--max-size", "3",
                 "--jobs", "1", "--out", str(a)]) == 0
    spaced = capsys.readouterr().out
    assert main(["suite", "--family=chain", "--max-size=3", "--jobs=1",
                 f"--out={b}"]) == 0
    assert capsys.readouterr().out == spaced
    assert a.read_bytes() == b.read_bytes() == spaced.encode()


def test_suite_rejects_filter_matching_nothing(monkeypatch, capsys):
    def no_corpus(spec):
        raise AssertionError("corpus built for an empty filter")

    monkeypatch.setattr(cli, "build_corpus", no_corpus)
    assert main(["suite", "--family", "chain", "--max-size", "3",
                 "--jobs", "1", "--filter", "zzz"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_line(captured.err)
    assert "'zzz'" in captured.err


def test_suite_rejects_unbounded_count(monkeypatch, capsys):
    def no_corpus(spec):
        raise AssertionError("corpus built for an unbounded count")

    monkeypatch.setattr(cli, "build_corpus", no_corpus)
    assert main(["suite", "--family", "random-poset", "--max-size", "3",
                 "--jobs", "1", "--count", "99999999999999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_line(captured.err)
    assert "99999999999999" in captured.err


def _refuses_out_before_the_run(out, monkeypatch, capsys):
    def no_corpus(spec):
        raise AssertionError("corpus built for an unwritable --out")

    monkeypatch.setattr(cli, "build_corpus", no_corpus)
    assert main(["suite", "--family", "chain", "--max-size", "3",
                 "--jobs", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_line(captured.err)
    assert str(out) in captured.err


def test_suite_rejects_unwritable_out(tmp_path, monkeypatch, capsys):
    out = tmp_path / "missing" / "r.json"
    _refuses_out_before_the_run(out, monkeypatch, capsys)
    assert list(tmp_path.iterdir()) == []


def test_suite_rejects_out_that_is_a_directory(tmp_path, monkeypatch,
                                               capsys):
    _refuses_out_before_the_run(tmp_path, monkeypatch, capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def inline_pool(monkeypatch):
    """An in-process stand-in for the forked shard workers; it records the
    worker counts asked for, and nothing is forked."""
    pools = []

    def inline(shards):
        pools.append(len(shards))
        return [cli._run_shard(args) for args in shards]

    monkeypatch.setattr(cli, "_fork_shards", inline)
    return pools


def _usable(monkeypatch, cores, affinity):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(cli.os, "sched_getaffinity",
                        lambda pid: set(range(affinity)), raising=False)


@pytest.fixture
def corpora(monkeypatch):
    """Every corpus the suite builds, in order of building."""
    built = []
    build = cli.build_corpus

    def kept(spec):
        built.append(build(spec))
        return built[-1]
    monkeypatch.setattr(cli, "build_corpus", kept)
    return built


def test_suite_clamps_workers_to_cores(monkeypatch, inline_pool):
    _usable(monkeypatch, 3, 3)
    spec = GenSpec("chain", 3)
    serial = cli.render_report(cli.run_suite(spec, "*", 1))
    assert cli.render_report(cli.run_suite(spec, "*", 1000)) == serial
    assert cli.render_report(cli.run_suite(spec, "*", 2)) == serial
    assert inline_pool == [3, 2]
    # a process pinned to fewer CPUs than the host has gets no more
    # workers than it may use, by default or when asked
    _usable(monkeypatch, 4, 1)
    assert cli.render_report(cli.run_suite(spec, "*", 4)) == serial
    args = ["suite", "--family", "chain", "--max-size", "3"]
    assert main(args) == 0
    _usable(monkeypatch, 4, 2)
    assert main(args) == 0
    assert inline_pool == [3, 2, 2]


def test_suite_runs_in_process_where_fork_is_missing(monkeypatch,
                                                     inline_pool):
    _usable(monkeypatch, 2, 2)
    monkeypatch.delattr(cli.os, "fork")
    spec = GenSpec("chain", 3)
    assert cli.run_suite(spec, "*", 2) == cli.run_suite(spec, "*", 1)
    assert inline_pool == []


def test_failing_suite_is_identical_across_jobs(monkeypatch, inline_pool,
                                                corpora):
    # adjoints that always commute make square checks fail on posets3;
    # two in-process shards must write the serial report byte for byte
    monkeypatch.setattr(DenseSquare, "adjoints_commute", lambda self: True)
    _usable(monkeypatch, 2, 2)
    spec = GenSpec("all-posets-up-to", 3)
    serial = cli.run_suite(spec, "*", 1)
    assert cli.render_report(cli.run_suite(spec, "*", 2)) \
        == cli.render_report(serial)
    assert inline_pool == [2]
    fails = serial["failures"]
    assert fails and fails == sorted(
        fails, key=lambda r: (r["statement_id"], r["subject"], r["witness"]))
    corpus = corpora[0]
    for row in fails:
        check = REGISTRY[row["statement_id"]]
        assert any(check.runner(i).to_json() == row
                   for i in corpus[check.scope]
                   if i.subject() == row["subject"]), row


@pytest.fixture
def alarm():
    """Fail the test, rather than hang it, if a fork waits too long."""
    def expired(signum, frame):
        raise TimeoutError("the forked suite did not finish within 60 s")
    before = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, before)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_forked_workers_are_reaped_and_their_errors_raised(monkeypatch,
                                                           alarm):
    _usable(monkeypatch, 2, 2)
    spec = GenSpec("chain", 3)
    # a runner that raises on one instance: its forked shard gives the
    # parent the very error that --jobs 1 raises
    target = cli.build_corpus(spec)["context"][-1].subject()
    check = REGISTRY["remS"]

    def raising(inst):
        if inst.subject() == target:
            raise ValueError(f"no verdict on {target}")
        return check.runner(inst)
    monkeypatch.setitem(REGISTRY, "remS",
                        TheoremCheck(check.id, check.scope, raising))
    errors = []
    for jobs in (1, 2):
        with pytest.raises(ValueError) as raised:
            cli.run_suite(spec, "*", jobs)
        errors.append((type(raised.value), str(raised.value)))
    assert errors == [(ValueError, f"no verdict on {target}")] * 2
    monkeypatch.setitem(REGISTRY, "remS", check)
    # a shard whose worker dies sends nothing: one error names it
    run = cli._run_shard

    def dying(args):
        if args[2] == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return run(args)
    monkeypatch.setattr(cli, "_run_shard", dying)
    with pytest.raises(RuntimeError, match=r"^suite shard 1 of 2 sent no "
                       r"result: its worker's exit code was -9$"):
        cli.run_suite(spec, "*", 2)
    monkeypatch.setattr(cli, "_run_shard", run)
    assert cli.run_suite(spec, "*", 2) == cli.run_suite(spec, "*", 1)
    # every worker of the passing and failing runs was reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_k_starts_on_the_kth_usable_cpu(monkeypatch):
    # a set of these CPUs lists 64 first: worker k takes the k-th in
    # order, and then gets every CPU back
    placed = []
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {64, 1, 3},
                        raising=False)
    monkeypatch.setattr(cli.os, "sched_setaffinity",
                        lambda pid, cpus: placed.append(set(cpus)),
                        raising=False)
    for k in range(3):
        cli._start_on_own_cpu(k)
    assert placed == [{1}, {1, 3, 64}, {3}, {1, 3, 64}, {64}, {1, 3, 64}]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity")
def test_worker_on_a_missing_cpu_still_reports(monkeypatch, alarm):
    # worker 1 is sent to a CPU that the host lacks: it runs where it is
    real = min(os.sched_getaffinity(0))
    monkeypatch.setattr(cli.os, "sched_getaffinity",
                        lambda pid: {real, os.cpu_count()})
    spec = GenSpec("all-posets-up-to", 3)
    serial = cli.render_report(cli.run_suite(spec, "*", 1))
    assert cli.render_report(cli.run_suite(spec, "*", 2)) == serial


def _run_child(child: str, *args: str) -> list[str]:
    """Run ``child`` in a fresh interpreter, so that modules loaded by
    other tests don't count; the lines that it prints."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", child, *args], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def test_serial_suite_imports_no_pool_or_dataclasses():
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from localic.cli import main\n"
        "rc = main(['suite', '--family', 'chain', '--max-size', '3',"
        " '--jobs', '1'])\n"
        "print(' '.join(set(sys.modules) - before))\n"
        "sys.exit(rc)\n")
    loaded = set(_run_child(child)[-1].split())
    assert "localic.cli" in loaded
    assert not loaded & {"concurrent.futures", "multiprocessing",
                         "dataclasses", "inspect"}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_forked_suite_imports_no_pool():
    # two forked shards need pickle, and only they; neither pool module
    child = (
        "import os, sys\n"
        "from localic.cli import main\n"
        "print(' '.join(sys.modules))\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "os.cpu_count = lambda: 2\n"
        "rc = main(['suite', '--family', 'chain', '--max-size', '3',"
        " '--jobs', '2'])\n"
        "print(' '.join(sys.modules))\n"
        "sys.exit(rc)\n")
    lines = _run_child(child)
    imported, ran = set(lines[0].split()), set(lines[-1].split())
    assert "localic.cli" in imported and "pickle" not in imported
    assert "pickle" in ran
    assert not ran & {"concurrent.futures", "multiprocessing"}


def test_query_and_validate_import_no_suite_module(tmp_path):
    # a frame's query and validate leave the suite's modules unloaded, and
    # no loaded module defines a check or a check table; a map document
    # loads locmap, and only that
    child = (
        "import sys\n"
        "from localic.cli import main\n"
        "frame, map_doc = sys.argv[1:]\n"
        "assert main(['validate', frame]) == 0\n"
        "assert main(['query', frame, 'booleanization']) == 0\n"
        "for q in ('remote-set', 'rs', 'star-rs', 'nd', 'rare?'):\n"
        "    assert main(['query', frame, q, 'S=BL']) == 0\n"
        "print('loaded', *sys.modules)\n"
        "print('checks', *(f'{m}.{n}' for m in list(sys.modules)\n"
        "      if m.split('.')[0] == 'localic' for n in vars(sys.modules[m])\n"
        "      if n.startswith('check_') or n.endswith('_CHECKS')))\n"
        "assert main(['validate', map_doc]) == 0\n"
        "print('loaded', *sys.modules)\n")
    frame = _write(tmp_path, "c3.json", C3_DOC)
    map_doc = _write(tmp_path, "map.json", MAP_DOC)
    lines = _run_child(child, frame, map_doc)
    assert [line for line in lines if line.startswith("checks")] == ["checks"]
    frame_run, map_run = (set(line.split()) for line in lines
                          if line.startswith("loaded "))
    suite_only = {"localic.generators", "localic.diagrams",
                  "localic.locmap", "localic.registry"}
    assert "localic.remoteness" in frame_run
    assert not frame_run & suite_only
    assert map_run & suite_only == {"localic.locmap"}


def test_package_names_are_their_modules_objects():
    # each name is the object of the module that defines it; a constant
    # has no __module__, and comes from the module the package names
    for name in localic.__all__:
        obj = getattr(localic, name)
        home = (getattr(obj, "__module__", None)
                or f"localic.{localic._MODULE_OF[name]}")
        assert getattr(importlib.import_module(home), name) is obj, name
    assert set(localic.__all__) <= set(dir(localic))
    with pytest.raises(AttributeError):
        localic.no_such_name


def test_suite_formats_only_failing_subjects(monkeypatch, corpora):
    # a row is named only when it is written out: a passing suite formats
    # no subject, and a failing one only those of the failing instances
    # and of the squares that their subjects name
    named = []
    for cls in (RemoteContext, DenseSquare, SquareChain, Triangle):
        def counted(self, plain=cls.subject):
            named.append(self)
            return plain(self)
        monkeypatch.setattr(cls, "subject", counted)
    spec = GenSpec("all-posets-up-to", 3)
    assert cli.run_suite(spec, "*", 1)["failures"] == []
    assert named == []

    monkeypatch.setattr(DenseSquare, "adjoints_commute", lambda self: True)
    failures = cli.run_suite(spec, "*", 1)["failures"]
    seen = {id(i) for i in named}
    corpus = corpora[-1]
    failing = [i for scope in ("context", "square", "chain", "triangle")
               for i in corpus[scope]
               if any(c.runner(i).verdict == FAIL
                      for c in checks_in_scope(scope))]
    # a chain's subject names its outer square, a triangle's its two squares
    parts = [sq for i in failing if isinstance(i, SquareChain)
             for sq in [i.outer]]
    parts += [sq for i in failing if isinstance(i, Triangle)
              for sq in (i.sq1, i.sq2)]
    assert failures and failing
    assert {id(i) for i in failing} <= seen
    assert seen <= {id(i) for i in failing + parts}


# Per-check (pass, hypotheses-not-met) tallies of
# `localic suite --family all-posets-up-to --max-size 3`; no row fails.
SIZE3_TALLIES = {
    "BLandL1": (18, 0), "BLandL4": (18, 0), "BLisremote": (18, 0),
    "Lislarge": (9, 0), "NDSremotefrom": (18, 0), "RsBL": (18, 0),
    "RsDense": (9, 0), "RsNd": (18, 0), "SRemLemma": (18, 0),
    "SRemandSRemLS": (18, 0), "SisBL": (18, 0), "beta": (274, 126),
    "beta1": (307, 93), "beta1star": (197, 203), "betastar": (187, 213),
    "bvl": (240, 0), "for": (307, 93), "for1": (39, 361),
    "for1star": (43, 357), "forstar": (197, 203),
    "gammapreservationlemma": (400, 0), "gammaremotepreserving": (358, 42),
    "gfremote": (177, 63), "obsfremote": (120, 120), "obsremotefrom": (9, 0),
    "obsremotefromstar": (9, 0), "opendensefrom": (18, 0),
    "rareequality": (1, 17), "remS": (18, 0),
    "remotepreservation": (358, 42), "remotesets": (18, 0),
    "rempropBL": (9, 0), "rempropBLstar": (9, 0), "starbvl": (240, 0),
    "stargammaremotepreserving": (358, 42), "starobsgfremote": (29, 211),
    "sublocale": (18, 0), "tfg-1": (198, 42), "tfg-2": (188, 52),
    "tfg-3": (18, 222),
}


def test_suite_tallies_are_pinned():
    report = cli.run_suite(GenSpec("all-posets-up-to", 3), "*", 1)
    assert report["corpus"] == {"chain": 240, "context": 18, "frame": 9,
                                "square": 400, "triangle": 240}
    got = {cid: (t[PASS], t[HYPOTHESES_NOT_MET])
           for cid, t in report["checks"].items()}
    assert got == SIZE3_TALLIES
    assert all(set(t) == {PASS, HYPOTHESES_NOT_MET, FAIL} and t[FAIL] == 0
               for t in report["checks"].values())


@pytest.mark.parametrize("max_size", [3, 4])
def test_each_check_alone_matches_the_full_run(max_size):
    # run alone, on a corpus of its own, a check sees no value that another
    # check kept; it must give the tally and fail rows of the full run
    spec = GenSpec("all-posets-up-to", max_size)
    full = cli.run_suite(spec, "*", 1)
    for cid in REGISTRY:
        alone = cli.run_suite(spec, cid, 1)
        assert alone["checks"] == {cid: full["checks"][cid]}, cid
        assert alone["failures"] == [row for row in full["failures"]
                                     if row["statement_id"] == cid], cid


# Each report byte for byte, written by `localic suite --jobs 1 --out`;
# two forked shards (a case id ending in -jobs2) write the same bytes.
PINNED_REPORTS = {
    "all-posets-up-to-3": (
        GenSpec("all-posets-up-to", 3),
        "8e2deb09adc790a152884159cd84f117e9186d80db4b39f598a590f224cbca66"),
    "all-posets-up-to-4": (
        GenSpec("all-posets-up-to", 4),
        "975f1cf582c642db0468f1df1524f6f2bef4a62b3233ecd43780699e9973f3d7"),
    "all-posets-up-to-5": (
        GenSpec("all-posets-up-to", 5),
        "2f385d96873abcdb1bba17334a735acd10f86291a1a95c2b7673a81b9b869207"),
    "random-poset-12-200-7": (
        GenSpec("random-poset", 12, seed=7, count=200),
        "433a2e98a8a3c2ca78d05cad32a8e7e34825d8214e3fe6c92f43610e3f022873"),
    "chain-16": (
        GenSpec("chain", 16),
        "84fa852b68ee3109dae47dd0eef252debd641dce48bd60e01e9993b1efb3919e"),
    "boolean-algebra-16": (
        GenSpec("boolean-algebra", 16),
        "bd8522bce74b86309f1507802b67fc2357f54c424f895ce7a3659cc914509fb2"),
}


@pytest.mark.parametrize("spec, digest, jobs", [
    pytest.param(spec, digest, jobs, id=name + ("" if jobs == 1 else "-jobs2"))
    for jobs in (1, 2) for name, (spec, digest) in PINNED_REPORTS.items()])
def test_report_is_pinned(spec, digest, jobs, tmp_path, monkeypatch,
                          capsys):
    _usable(monkeypatch, jobs, jobs)  # so that two shards fork on any host
    out = tmp_path / "report.json"
    assert main(["suite", "--family", spec.family,
                 "--max-size", str(spec.max_size), "--seed", str(spec.seed),
                 "--count", str(spec.count), "--jobs", str(jobs),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_report_does_not_depend_on_the_shape_memo(tmp_path, capsys):
    # posets4's report is the same bytes whether each frame order is
    # validated afresh or, after a posets5 run, every one is read from the
    # shape memo
    def report(spec, name):
        out = tmp_path / name
        assert main(["suite", "--family", spec.family,
                     "--max-size", str(spec.max_size), "--jobs", "1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        return out.read_bytes()

    spec, digest = PINNED_REPORTS["all-posets-up-to-4"]
    frame._shape.cache_clear()
    cold = report(spec, "cold.json")
    report(PINNED_REPORTS["all-posets-up-to-5"][0], "posets5.json")
    misses = frame._shape.cache_info().misses
    warm = report(spec, "warm.json")
    assert frame._shape.cache_info().misses == misses
    assert cold == warm
    assert hashlib.sha256(warm).hexdigest() == digest
