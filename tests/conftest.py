import pytest


@pytest.fixture
def toy_csv(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("a,b,target\n1.0,2.0,0.5\n3.0,4.0,1.5\n5.0,6.0,2.5\n")
    return p
