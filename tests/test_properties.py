"""Property-based invariants on randomly generated frames."""

from hypothesis import given, settings, strategies as st

from localic import (
    GenSpec, RemoteContext, Sublocale, booleanization,
    enumerate_sublocales, is_sublocale, nucleus_map, subl_join, subl_meet,
    supplement, whole_subl,
)
from localic.generators import gen_frames, gen_maps

from oracles import remote_scan

FRAME_POOL = gen_frames(GenSpec("random-poset", 10, seed=42, count=12)) \
    + gen_frames(GenSpec("all-posets-up-to", 3))

frames = st.sampled_from(FRAME_POOL)


@st.composite
def frame_and_elements(draw, k=3):
    f = draw(frames)
    xs = [draw(st.integers(0, f.n - 1)) for _ in range(k)]
    return f, xs


@st.composite
def frame_and_sublocales(draw, k=2):
    f = draw(frames)
    subs = enumerate_sublocales(f)
    picks = [subs[draw(st.integers(0, len(subs) - 1))] for _ in range(k)]
    return f, picks


@settings(max_examples=120, deadline=None)
@given(frame_and_elements())
def test_heyting_adjunction(data):
    f, (a, b, c) = data
    assert f.leq(f.meet(c, a), b) == f.leq(c, f.heyting(a, b))


@settings(max_examples=120, deadline=None)
@given(frame_and_elements())
def test_distributivity(data):
    f, (a, b, c) = data
    assert f.meet(a, f.join(b, c)) == f.join(f.meet(a, b), f.meet(a, c))


@settings(max_examples=80, deadline=None)
@given(frame_and_elements(k=1))
def test_double_pseudocomplement(data):
    f, (a,) = data
    assert f.leq(a, f.pseudocomplement(f.pseudocomplement(a)))
    ppp = f.pseudocomplement(
        f.pseudocomplement(f.pseudocomplement(a)))
    assert ppp == f.pseudocomplement(a)


@settings(max_examples=80, deadline=None)
@given(frame_and_sublocales())
def test_meet_join_are_sublocales(data):
    f, (s, t) = data
    assert is_sublocale(f, subl_meet([s, t]).members())
    assert is_sublocale(f, subl_join([s, t]).members())
    assert subl_meet([s, t]) <= s <= subl_join([s, t])


@settings(max_examples=80, deadline=None)
@given(frame_and_sublocales(k=1))
def test_supplement_property(data):
    f, (s,) = data
    t = supplement(f, s)
    assert subl_join([s, t]).is_whole()


@settings(max_examples=80, deadline=None)
@given(frame_and_sublocales(k=1))
def test_nucleus_is_reflective(data):
    f, (s,) = data
    for a in range(f.n):
        na = nucleus_map(s, a)
        assert (1 << na) & s.mask
        assert f.leq(a, na)


@settings(max_examples=60, deadline=None)
@given(frame_and_sublocales(k=1))
def test_booleanization_below_dense(data):
    f, (s,) = data
    if s.is_dense():
        assert booleanization(f) <= s


@settings(max_examples=40, deadline=None)
@given(frames, st.integers(0, 10_000))
def test_remote_set_downward_closed_under_remoteness(f, salt):
    ctx = RemoteContext(f, whole_subl(f))
    rem = remote_scan(ctx)
    pick = rem[salt % len(rem)]
    for t in enumerate_sublocales(f):
        if t <= pick:
            assert ctx.is_remote_from(t)


@settings(max_examples=30, deadline=None)
@given(frames, frames, st.integers(0, 10_000))
def test_generated_maps_are_adjoint_pairs(src, tgt, seed):
    for mp in gen_maps(src, tgt, limit=3, seed=seed):
        for x in range(src.n):
            for y in range(tgt.n):
                assert src.leq(mp.adjoint(y), x) == tgt.leq(y, mp(x))


@settings(max_examples=60, deadline=None)
@given(frames, frames, st.integers(0, 10_000), st.integers(0, 40))
def test_seeded_draw_is_distinct_maps_from_the_listing(src, tgt, seed, limit):
    every = {mp.table for mp in gen_maps(src, tgt)}
    drawn = [mp.table for mp in gen_maps(src, tgt, limit=limit, seed=seed)]
    assert len(set(drawn)) == len(drawn) \
        == (min(limit, len(every)) if limit else len(every))
    assert set(drawn) <= every
