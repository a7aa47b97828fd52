import pytest

from localic import GenSpec, chain_frame, boolean_frame
from localic.generators import (
    gen_dense_sublocales, gen_frames, gen_maps, square_from,
)


@pytest.fixture(scope="session")
def tier1_frames():
    """Downset frames of all posets with at most 4 points."""
    return gen_frames(GenSpec("all-posets-up-to", 4))


@pytest.fixture(scope="session")
def square_space():
    """A builder of every square over the frames of posets with at most 3
    points: each localic map f : L -> M with each pair of dense S of L and
    T of M (1,559 squares).  Each call builds fresh frames and squares, so
    no value kept on an instance by one call answers for the next."""
    def build():
        frames = gen_frames(GenSpec("all-posets-up-to", 3))
        dense = [gen_dense_sublocales(f) for f in frames]
        out = []
        for l, ss in zip(frames, dense):
            for m, ts in zip(frames, dense):
                for f in gen_maps(l, m):
                    out += filter(None, (square_from(f, s, t)
                                         for s in ss for t in ts))
        return out
    return build


@pytest.fixture(scope="session")
def c3():
    return chain_frame(3)


@pytest.fixture(scope="session")
def c4():
    return chain_frame(4)


@pytest.fixture(scope="session")
def b2():
    return boolean_frame(2)
