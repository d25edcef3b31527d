"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """Record every numpy FFT as (name, N): fft, ifft, rfft or irfft, and
    the number of grid samples it transforms (irfft's output length)."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(a, n=None, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, n if _name == "irfft" else len(a)))
            return _original(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
