"""The bundled surfaces as the tests read them.

Each bundled surface has one source, its JSON config in ``qfsurface.data``:
the loaders here parse that text, and a graph comes from the config as every
command takes it, shared by equal gluings.  ``complex_coordinate`` draws
coordinates near them for the property tests.
"""

from importlib import resources

from hypothesis import strategies as st

from qfsurface.config import parse_config
from qfsurface.surface import holonomy

BUNDLED = ("genus2_fuchsian", "genus2_quasifuchsian", "genus2_separating", "genus3")


def text(stem):
    """The JSON text of the bundled config ``<stem>.json``."""
    return resources.files("qfsurface.data").joinpath(f"{stem}.json").read_text()


def config(stem):
    return parse_config(text(stem))


def graph(stem):
    return config(stem).graph()


def fn(stem):
    return config(stem).fn()


def representation(stem):
    """The holonomy of the bundled coordinates."""
    surface = config(stem)
    graph = surface.graph()
    return holonomy(graph, surface.fn(graph))


def complex_coordinate(real_lo, real_hi, imag=0.3):
    """Complex numbers with real part in [real_lo, real_hi] and imaginary
    part in [-imag, imag]."""
    return st.builds(complex, st.floats(real_lo, real_hi), st.floats(-imag, imag))
