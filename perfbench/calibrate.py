"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed swings by
1.3-1.9x over stretches of seconds to a minute (other tenants; the
process's own CPU time swings with it, so it is not steal).  A 40-s run
can sit in a slow or a fast stretch, which alone moves wall-clock
``jobs_per_s`` by a third from run to run.  To take that out, the timed
loop interleaves the jobs with a fixed calibration unit: after each job it
runs units until their time reaches ``SHARE`` of the job's time, so the
units sample the host's speed in step with the jobs.  A time is then
reported at reference speed: measured time divided by the speed factor,
the units' mean time over their time in a quiet stretch.

The swings do not slow all code alike.  Measured side by side on a
2-vCPU Xeon, interpreted Python (float-to-text and text-to-float) swings
about 3x as much as a vectorised complex exponential and matrix-vector
product, with FFTs and ``np.convolve`` in between.  So the unit is made of
the same four kinds of work as the jobs, with numpy and Python alone (no
shiftspec code, so no change to shiftspec moves it), and each workload
weights them by the share of its job time they stand for (``MIXES``).
"""

from __future__ import annotations

import time

import numpy as np

SHARE = 0.25

_rng = np.random.default_rng(20261017)
_SIGNAL = _rng.standard_normal(32768)
_FREQS = _rng.uniform(-8.0, 8.0, 16)
_X = np.linspace(-40.0, 40.0, 4096, endpoint=False)
_TEXT = "\n".join(map("{!r},{!r},{!r}".format, _X[:1500].tolist(), _SIGNAL[:1500].tolist(),
                      _X[:1500].tolist()))


def _text():
    """CSV rows to text and back (the CSV writer and reader)."""
    rows = "\n".join(map("{!r},{!r},{!r}".format, _X[:1500].tolist(), _SIGNAL[:1500].tolist(),
                         _X[:1500].tolist()))
    return len(rows) + np.array(_TEXT.replace("\n", ",").split(","), dtype=float).size


def _fft():
    """A forward and an inverse FFT (transforms, solves, apply_T)."""
    return np.fft.ifft(np.fft.fft(_SIGNAL))[7].real


def _offgrid():
    """Dense complex-exponential phase matrix times a vector (off-grid transforms)."""
    return (np.exp(-1j * np.outer(_FREQS, _X)) @ _SIGNAL[:4096])[3].real


def _convolve():
    """Direct sliding sum (the direct-sum residual)."""
    return np.convolve(_SIGNAL[:1500], _SIGNAL[1500:3000])[1499]


PRIMITIVES = {"text": _text, "fft": _fft, "offgrid": _offgrid, "convolve": _convolve}

# Per workload: repetitions of each primitive in one unit, chosen so that
# each kind of work takes about the share of the unit that it takes of the
# workload's job time (from a traced run at definition time).
MIXES = {
    # CSV write/read 46%, off-grid 24%, transforms and elementwise 19%, direct sum 9%
    "cli-solves": {"text": 2, "offgrid": 1, "fft": 2, "convolve": 5},
    # off-grid 64%, transforms and elementwise 30%, direct sum 3%, text 2%
    "sequences": {"offgrid": 3, "fft": 3, "convolve": 2},
}

# Mean unit time per workload on the 2-vCPU Xeon the benchmark was defined
# on, in a quiet stretch; only sets the scale of the reported times.
NOMINAL_UNIT_S = {"cli-solves": 0.02, "sequences": 0.015}


class Calibrator:
    def __init__(self, workload: str):
        self.steps = [(PRIMITIVES[name], reps) for name, reps in MIXES[workload].items()]
        self.nominal_s = NOMINAL_UNIT_S[workload]
        self.check = None

    def unit(self) -> float:
        """One unit of fixed work; returns its wall time."""
        t0 = time.perf_counter()
        results = [fn() for fn, reps in self.steps for _ in range(reps)]
        dt = time.perf_counter() - t0
        if self.check is None:
            self.check = results
        elif results != self.check:
            raise RuntimeError("calibration unit computed another result than before")
        return dt

    def top_up(self, seconds: float) -> tuple[int, float]:
        """Run units until they took ``seconds`` (at least one unit)."""
        n, spent = 0, 0.0
        while n == 0 or spent < seconds:
            spent += self.unit()
            n += 1
        return n, spent

    def speed_factor(self, units: int, seconds: float) -> float:
        """Host speed factor from ``units`` units that took ``seconds``:
        above 1 on a stretch slower than the reference."""
        return seconds / units / self.nominal_s
