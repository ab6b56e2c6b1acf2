import pytest

from qfsurface import presentation


@pytest.fixture(scope="module", autouse=True)
def cold_plan_cache():
    """Empty the plan and graph caches after each module, so that no later
    module or suite in the same session starts from plans or graphs built
    here."""
    yield
    presentation._plan_of.cache_clear()
    presentation._graph_of.cache_clear()
