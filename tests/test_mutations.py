"""Mutation table for the map layer: each broken map method must show.

Every row breaks one method of a localic map or square and runs the suite
on all posets up to 3 points.  The listed check ids are the ones that
must then report a fail row, so each of those methods is one that some
report check can catch.
"""

import pytest

from localic import InvalidSquare, cli
from localic.diagrams import DenseSquare
from localic.generators import GenSpec
from localic.locmap import LocalicMap
from localic.result import FAIL
from localic.sublocale import Sublocale, span, whole_subl

SPEC = GenSpec("all-posets-up-to", 3)
IMAGE = LocalicMap.image_subl
PREIMAGE = LocalicMap.preimage_subl


def image_is_whole(f, a):
    return IMAGE(f, a) if a.is_void() else whole_subl(f.target)


def preimage_drops_lowest_point(f, b):
    pts = PREIMAGE(f, b).mask & f.source.points_mask()
    return Sublocale(f.source, span(f.source, pts & (pts - 1)))


def image_drops_lowest_point(f, a):
    img = IMAGE(f, a)
    pts = img.mask & f.target.points_mask()
    return Sublocale(f.target, img.mask & ~(pts & -pts))


def always_true(self):
    return True


MUTATIONS = {
    "image-is-whole": (
        LocalicMap, "image_subl", image_is_whole,
        {"beta", "beta1", "bvl", "for", "gammapreservationlemma",
         "remotepreservation"}),
    "preimage-drops-lowest-point": (
        LocalicMap, "preimage_subl", preimage_drops_lowest_point, {"for1"}),
    "adjoints-always-commute": (
        DenseSquare, "adjoints_commute", always_true,
        {"beta", "betastar", "for1", "for1star", "gammaremotepreserving",
         "remotepreservation"}),
    "always-skeletal": (
        LocalicMap, "is_skeletal", always_true, {"beta1", "for"}),
    "adjoint-always-skeletal": (
        LocalicMap, "adjoint_is_skeletal", always_true,
        {"beta", "betastar", "for1", "for1star"}),
    "image-always-surjective": (
        LocalicMap, "image_is_surjective", always_true, {"for1"}),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_its_checks(name, monkeypatch):
    cls, attr, mutant, must_fail = MUTATIONS[name]
    monkeypatch.setattr(cls, attr, mutant)
    report = cli.run_suite(SPEC, "*", 1)
    failed = {cid for cid, t in report["checks"].items() if t[FAIL]}
    assert must_fail <= failed, sorted(must_fail - failed)


def test_image_that_is_no_sublocale_stops_the_corpus(monkeypatch):
    # a generator must not skip a diagram its constructor rejects
    monkeypatch.setattr(LocalicMap, "image_subl", image_drops_lowest_point)
    with pytest.raises(InvalidSquare):
        cli.build_corpus(SPEC)
