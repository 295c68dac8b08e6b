import hypothesis
import pytest

from rankmetric import matfq

hypothesis.settings.register_profile("default", max_examples=60, deadline=None)
hypothesis.settings.load_profile("default")


@pytest.fixture
def force_batching(monkeypatch):
    """force_batching(True) sends every ``matfq._batched`` decision to numpy,
    force_batching(False) to the scalar loops, whether or not numpy is loaded."""

    def force(batched: bool) -> None:
        floor = 0 if batched else 1 << 60
        monkeypatch.setattr(matfq, "_BATCH_MIN", floor)
        monkeypatch.setattr(matfq, "_BATCH_MIN_LOADED", floor)

    return force
