import pytest
from hypothesis import settings

from sislip import sis
from sislip.poly import parse_poly

AV = ("x", "y", "z")

CUSPIDAL_CUBIC = "y^3+x*z^2-x^4"
TWO_CUBICS = "(z*x^2+y^3)*(x^3+z*y^2)+z^7"
PAIR_A = "(y^3-z^2*x)*(y^3+z^2*x)+(x+y+z)^7"
PAIR_B = "(y^3-z^2*x)*(y^3+2*z^2*x)+(x+y+z)^7"

# Same examples on every run and machine; nothing is read from or stored in
# a local example database.
settings.register_profile("sislip", derandomize=True, database=None)
settings.load_profile("sislip")


def make_surface(expr):
    return sis.from_polynomial(parse_poly(expr, vars=AV))


@pytest.fixture(scope="session")
def s_cubic():
    return make_surface(CUSPIDAL_CUBIC)


@pytest.fixture(scope="session")
def s_two_cubics():
    return make_surface(TWO_CUBICS)


@pytest.fixture(scope="session")
def s_pair_a():
    return make_surface(PAIR_A)


@pytest.fixture(scope="session")
def s_pair_b():
    return make_surface(PAIR_B)
