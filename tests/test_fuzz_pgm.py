"""Property test: ``read_pgm`` on arbitrary bytes either returns a valid
image or raises ``ValueError``; nothing else escapes."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ipalm.imageops import read_pgm  # noqa: E402

FUZZ = settings(max_examples=300, deadline=None, database=None)

# headers close to valid reach the size, maxval, raster and sample checks,
# which arbitrary bytes rarely get past the magic number to exercise
near_valid = st.builds(
    lambda w, h, maxval, sep, raster: b"P5" + sep + f"{w} {h}\n{maxval}\n".encode() + raster,
    st.integers(-3, 6),
    st.integers(-3, 6),
    st.integers(-1, 300),
    st.sampled_from([b"\n", b" ", b"\n# comment\n", b""]),
    st.binary(max_size=40),
)


def check_read(path, content):
    path.write_bytes(content)
    try:
        img = read_pgm(path)
    except ValueError:
        return
    assert img.ndim == 2 and min(img.shape) >= 1
    assert np.isfinite(img).all()
    assert img.min() >= 0.0 and img.max() <= 1.0


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.pgm"


@FUZZ
@given(content=st.binary(max_size=64))
def test_read_pgm_arbitrary_bytes(fuzz_path, content):
    check_read(fuzz_path, content)


@FUZZ
@given(content=near_valid)
def test_read_pgm_near_valid_headers(fuzz_path, content):
    check_read(fuzz_path, content)
