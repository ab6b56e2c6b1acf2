import pytest

from qfsurface import presentation


@pytest.fixture(scope="module", autouse=True)
def cold_graph_cache():
    """Empty the graph cache after each module, so that no later module or
    suite in the same session starts from graphs, or the plans they keep,
    built here."""
    yield
    presentation._graph_of.cache_clear()
