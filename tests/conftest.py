import pytest

from racnshare import rainbow


@pytest.fixture
def set_node_budget(monkeypatch):
    """A setter for ``rainbow.NODE_BUDGET``, the budget every search reads.

    Each call sets it anew; the test's end restores the default.
    """
    def set_budget(n: int) -> None:
        monkeypatch.setattr(rainbow, "NODE_BUDGET", n)
    return set_budget
