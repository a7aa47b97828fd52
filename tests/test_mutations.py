"""Mutation table for the map and remoteness layers: each break must show.

Every row breaks one method of a frame, a localic map, a square or a
remoteness context and runs the suite on all posets up to 3 points.  The listed
check ids are exactly the ones that then report a fail row, so each of
those methods is one that some report check can catch, and a check that
starts failing too shows.  A kill that the suite's budgeted squares miss
is made on the whole square space of those frames instead, and one that
its triangles miss on the triangles over one frame triple.
"""

from collections import Counter

import pytest

from localic import REGISTRY, InvalidSquare, cli
from localic.diagrams import DenseSquare, Triangle
from localic.frame import FiniteFrame
from localic.generators import (
    GenSpec, gen_dense_sublocales, gen_frames, gen_maps, square_from,
)
from localic.locmap import LocalicMap
from localic.registry import checks_in_scope
from localic.remoteness import RemoteContext
from localic.registry import FAIL
from localic.sublocale import Sublocale, span, whole_subl

SPEC = GenSpec("all-posets-up-to", 3)
IMAGE = LocalicMap.image_subl
PREIMAGE = LocalicMap.preimage_subl
POINT_IMAGE = LocalicMap.point_image
CONTEXT_INIT = RemoteContext.__init__
ORACLE = RemoteContext.pred_nwd_oracle
RMT = RemoteContext.rmt_elements
RS = RemoteContext.rs
SKELETAL = LocalicMap.is_skeletal


def image_is_whole(f, a):
    return IMAGE(f, a) if a.is_void() else whole_subl(f.target)


def preimage_drops_lowest_point(f, b):
    pts = PREIMAGE(f, b).mask & f.source.points_mask()
    return Sublocale(f.source, span(f.source, pts & (pts - 1)))


def preimage_is_whole(f, b):
    return whole_subl(f.source)


def image_drops_lowest_point(f, a):
    img = IMAGE(f, a)
    pts = img.mask & f.target.points_mask()
    return Sublocale(f.target, img.mask & ~(pts & -pts))


def point_image_drops_lowest_point(f, mask):
    img = POINT_IMAGE(f, mask)
    return img & (img - 1)


def skeletal_negated(f):
    return not SKELETAL(f)


def always_true(self):
    return True


def always_false(self):
    return False


def _points_above(ctx, dense):
    """The points above the given dense elements, as the fast path masks."""
    mask = 0
    for x in dense:
        mask |= ctx.frame.up[x]
    return mask & ctx.frame.points_mask()


def miss_mask_ignores_w(self, frame, dense_subl, within=None):
    CONTEXT_INIT(self, frame, dense_subl, within)
    self._miss_mask = _points_above(self, self.s_dense)


def miss_mask_from_dense_of_l(self, frame, dense_subl, within=None):
    CONTEXT_INIT(self, frame, dense_subl, within)
    dense = [x for x in range(frame.n) if frame.is_dense_element(x)]
    self._miss_mask = (_points_above(self, dense)
                       | frame.points_mask() & ~self.within.mask)


def oracle_closes_all_of_s(self, t):
    # fill the oracle's mask first, with no isolated points taken out
    if self._oracle_mask is None:
        f = self.frame
        pts = f.points_mask()
        cl = pts
        for a in range(f.n):
            if pts & self.s.mask & ~f.up[a] == 0:
                cl &= f.up[a]
        self._oracle_mask = cl | pts & ~self.within.mask
    return ORACLE(self, t)


def oracle_drops_points_outside_w(self, t):
    ORACLE(self, t)    # fills the mask, then W is forgotten
    self._oracle_mask &= self.within.mask
    return ORACLE(self, t)


def oracle_holds_the_top(self, t):
    ORACLE(self, t)    # fills the mask, then the top joins it
    self._oracle_mask |= 1 << self.frame.top
    return ORACLE(self, t)


def rmt_ignores_w(self, oracle=False):
    if oracle:
        return RMT(self, oracle=True)
    f = self.frame
    return {a for a in range(f.n)
            if all(f.join(a, x) == f.top for x in self.s_dense)}


def rs_drops_lowest_point(self, oracle=False):
    pts = RS(self, oracle).mask & self.frame.points_mask()
    return Sublocale(self.frame, span(self.frame, pts & (pts - 1)))


def star_is_plain(self):
    return self


MUTATIONS = {
    "image-is-whole": (
        LocalicMap, "image_subl", image_is_whole,
        {"beta", "beta1", "bvl", "for", "gammapreservationlemma",
         "gammaremotepreserving", "remotepreservation"}),
    "preimage-is-whole": (
        LocalicMap, "preimage_subl", preimage_is_whole,
        {"for", "forstar", "gammapreservationlemma"}),
    "preimage-drops-lowest-point": (
        LocalicMap, "preimage_subl", preimage_drops_lowest_point, {"for1"}),
    "adjoints-always-commute": (
        DenseSquare, "adjoints_commute", always_true,
        {"beta", "betastar", "for1", "for1star", "gammaremotepreserving",
         "remotepreservation"}),
    "always-skeletal": (
        LocalicMap, "is_skeletal", always_true, {"beta1", "for"}),
    "skeletal-negated": (
        LocalicMap, "is_skeletal", skeletal_negated, {"beta1", "for"}),
    "adjoint-always-skeletal": (
        LocalicMap, "adjoint_is_skeletal", always_true,
        {"beta", "for1", "for1star"}),
    "point-image-drops-lowest-point": (
        LocalicMap, "point_image", point_image_drops_lowest_point,
        {"beta", "beta1", "betastar", "for", "gammaremotepreserving",
         "remotepreservation", "stargammaremotepreserving"}),
    "always-surjective": (
        LocalicMap, "is_surjective", always_true,
        {"for1", "for1star", "obsfremote"}),
    "frame-never-boolean": (
        FiniteFrame, "is_boolean", always_false, {"obsremotefrom"}),
    "miss-mask-ignores-w": (
        RemoteContext, "__init__", miss_mask_ignores_w,
        {"obsremotefromstar", "rempropBLstar"}),
    "miss-mask-from-dense-of-l": (
        RemoteContext, "__init__", miss_mask_from_dense_of_l,
        {"RsNd", "SisBL", "beta1", "for", "opendensefrom", "rempropBL",
         "rempropBLstar"}),
    "oracle-closes-all-of-s": (
        RemoteContext, "pred_nwd_oracle", oracle_closes_all_of_s,
        {"BLisremote", "Lislarge", "NDSremotefrom", "RsDense",
         "opendensefrom", "remS", "rempropBL", "rempropBLstar",
         "sublocale"}),
    "oracle-drops-points-outside-w": (
        RemoteContext, "pred_nwd_oracle", oracle_drops_points_outside_w,
        {"RsDense", "remotesets", "rempropBLstar", "sublocale"}),
    "oracle-holds-the-top": (
        RemoteContext, "pred_nwd_oracle", oracle_holds_the_top,
        {"BLandL1", "BLisremote", "NDSremotefrom", "opendensefrom",
         "rempropBL", "rempropBLstar", "sublocale"}),
    "rmt-ignores-w": (
        RemoteContext, "rmt_elements", rmt_ignores_w, {"sublocale"}),
    "rs-drops-lowest-point": (
        RemoteContext, "rs", rs_drops_lowest_point,
        {"Lislarge", "RsBL", "RsDense", "RsNd", "gammaremotepreserving",
         "stargammaremotepreserving", "tfg-3"}),
    "star-is-plain": (
        RemoteContext, "star", star_is_plain,
        {"obsremotefromstar", "rempropBLstar"}),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_its_checks(name, monkeypatch):
    cls, attr, mutant, must_fail = MUTATIONS[name]
    monkeypatch.setattr(cls, attr, mutant)
    report = cli.run_suite(SPEC, "*", 1)
    failed = {cid for cid, t in report["checks"].items() if t[FAIL]}
    assert failed == must_fail, (sorted(must_fail - failed),
                                 sorted(failed - must_fail))


# Per row, the square checks that fail on the square space, with how many
# squares each fails on.
SQUARE_SPACE_KILLS = {
    # posets3's squares make no betastar kill
    "adjoint-always-skeletal": {"beta": 492, "betastar": 10, "for1": 50,
                                "for1star": 50},
    # nor a beta1star or forstar kill
    "skeletal-negated": {"beta1": 353, "beta1star": 11, "for": 353,
                         "forstar": 11},
}


@pytest.mark.parametrize("name", sorted(SQUARE_SPACE_KILLS))
def test_mutation_fails_on_the_square_space(name, monkeypatch, square_space):
    def failures():
        squares = square_space()    # fresh, so no verdict part is kept
        assert len(squares) == 1559
        return Counter(c.id for c in checks_in_scope("square")
                       for sq in squares if c.runner(sq).verdict == FAIL)

    assert not failures()
    cls, attr, mutant, _ = MUTATIONS[name]
    monkeypatch.setattr(cls, attr, mutant)
    assert failures() == SQUARE_SPACE_KILLS[name]


def triangle_slice() -> list[Triangle]:
    """The triangles over the frames P3-2 -> P2-1 -> P2-1 of posets3, on
    fresh frames: each square over P3-2 -> P2-1 with every square that
    starts at its (M, T) and ends at P2-1 (125 triangles)."""
    frames = {f.name: f for f in gen_frames(SPEC)}
    l, m = frames["P3-2"], frames["P2-1"]
    ss, ts = gen_dense_sublocales(l), gen_dense_sublocales(m)
    seconds = gen_maps(m, m)
    out = []
    for f in gen_maps(l, m):
        for s in ss:
            for t in ts:
                sq1 = square_from(f, s, t)
                if sq1 is None:
                    continue
                for p in seconds:
                    for u in ts:
                        sq2 = square_from(p, t, u)
                        if sq2 is not None:
                            out.append(Triangle(sq1, sq2))
    return out


def triangle_slice_failures() -> Counter:
    triangles = triangle_slice()    # fresh, so no verdict part is kept
    assert len(triangles) == 125
    return Counter(c.id for c in checks_in_scope("triangle")
                   for tri in triangles if c.runner(tri).verdict == FAIL)


# Per row, the triangle checks that fail on the triangle slice, with how
# many triangles each fails on; the other rows make none fail there.
TRIANGLE_SLICE_KILLS = {
    "always-skeletal": {"tfg-2": 22},
    "point-image-drops-lowest-point": {"tfg-1": 2, "tfg-2": 21},
    "skeletal-negated": {"tfg-2": 22},
}


def test_triangle_slice_passes():
    assert not triangle_slice_failures()


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_on_the_triangle_slice(name, monkeypatch):
    cls, attr, mutant, _ = MUTATIONS[name]
    monkeypatch.setattr(cls, attr, mutant)
    assert triangle_slice_failures() == TRIANGLE_SLICE_KILLS.get(name, {})


# The ids that no row makes fail; BLandL4 holds by construction.
UNKILLED = {"BLandL4", "SRemLemma", "SRemandSRemLS", "gfremote",
            "rareequality", "starbvl", "starobsgfremote"}


def test_rows_kill_all_but_the_listed_ids():
    killed = set().union(*(row[3] for row in MUTATIONS.values()),
                         *SQUARE_SPACE_KILLS.values(),
                         *TRIANGLE_SLICE_KILLS.values())
    assert set(REGISTRY) - killed == UNKILLED
    assert len(killed) == 33


def test_image_that_is_no_sublocale_stops_the_corpus(monkeypatch):
    # a generator must not skip a diagram its constructor rejects
    monkeypatch.setattr(LocalicMap, "image_subl", image_drops_lowest_point)
    with pytest.raises(InvalidSquare):
        cli.build_corpus(SPEC)
