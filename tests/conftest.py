import itertools
import math

import pytest

import thermomap as tm

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
LOG_GOLDEN = math.log(GOLDEN)

# acip of the golden-mean fixture: piecewise-constant density
ACIP_CA = 9.0 / 8.0
ACIP_CB = 3.0 / 4.0
ACIP_LYAP = 0.75 * math.log(1.5) + 0.25 * math.log(2.0)


def partition_function_exact(model, n: int, base: int, shift: float) -> float:
    """Z_n summed over located periodic points of the underlying map.

    Enumerates every n-word of scheme branches that starts at the base
    branch and adds exp(-t log|Df^tau| - S*tau) at the periodic point of
    the concatenated map word: an oracle independent of the weight
    brackets, for small families only.
    """
    scheme = model.scheme
    total = 0.0
    for rest in itertools.product(range(model.n), repeat=n - 1):
        brs = [scheme.branches[i] for i in (base,) + rest]
        pp = tm.periodic_point(scheme.map, sum((b.word for b in brs), ()))
        if pp is None:
            continue
        total += math.exp(-model.t * math.log(pp.multiplier)
                          - shift * sum(b.tau for b in brs))
    return total


@pytest.fixture(scope="session")
def golden_map():
    return tm.fixture("markov_golden")


@pytest.fixture(scope="session")
def tent_map():
    return tm.fixture("tent2")


@pytest.fixture(scope="session")
def quad_map():
    return tm.fixture("quad4")


@pytest.fixture(scope="session")
def full_map():
    return tm.fixture("markov_full")


@pytest.fixture(scope="session")
def golden_tower(golden_map):
    return tm.build_tower(golden_map, 5)


@pytest.fixture(scope="session")
def golden_scheme(golden_map):
    return tm.first_return_scheme(golden_map, (0.0, 2.0 / 3.0), 10)


@pytest.fixture(scope="session")
def tent_trivial_scheme(tent_map):
    return tm.first_return_scheme(tent_map, (0.0, 1.0), 5)


@pytest.fixture(scope="session")
def full_trivial_scheme(full_map):
    return tm.first_return_scheme(full_map, (0.0, 1.0), 5)


@pytest.fixture(scope="session")
def quad_x_cylinder(quad_map):
    word = tm.itinerary(quad_map, 0.3, 2, side="left")
    return tm.cylinder_of_word(quad_map, word)


@pytest.fixture(scope="session")
def quad_scheme(quad_map, quad_x_cylinder):
    return tm.extendible_return_scheme(
        quad_map, (quad_x_cylinder.lo, quad_x_cylinder.hi), 0.5, 14)
