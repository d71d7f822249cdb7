"""Fixtures shared by several test modules."""

import numpy as np
import pytest

_TRANSFORMS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
               "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")


@pytest.fixture
def transforms(monkeypatch):
    """Names of the ``np.fft`` transforms called while the test runs.  A
    memo built on a transform (``imageops.image_spectrum``) holds the
    function it wrapped, so the count does not see it."""
    calls = []
    for name in _TRANSFORMS:
        def counted_transform(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted_transform)
    return calls
