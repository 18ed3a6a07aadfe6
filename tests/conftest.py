import pytest

from quantloss import trainer


@pytest.fixture(autouse=True)
def _no_worker_pool_between_tests():
    """Every test starts without the process's worker pool, as a fresh process would."""
    yield
    trainer._close_pool()


@pytest.fixture
def toy_csv(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("a,b,target\n1.0,2.0,0.5\n3.0,4.0,1.5\n5.0,6.0,2.5\n")
    return p
