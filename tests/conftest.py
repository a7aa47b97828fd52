import pytest

from localic import GenSpec, chain_frame, boolean_frame
from localic.generators import gen_frames

from oracles import iter_square_space


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
    return lambda: list(iter_square_space(3))


@pytest.fixture(scope="session")
def c3():
    return chain_frame(3)


@pytest.fixture(scope="session")
def c4():
    return chain_frame(4)


@pytest.fixture(scope="session")
def b2():
    return boolean_frame(2)
