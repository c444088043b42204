"""Operation timing in reference seconds.

The speed of this kind of shared box changes by up to 1.6x within tens of
seconds, and a single operation can last 10 s.  So while an operation
runs, the clock samples the speed of the box: at the start and end of the
operation, and whenever the program calls ``numpy.linalg.eigh`` or
``numpy.linalg.det`` at least ``INTERVAL_S`` after the previous sample, it
times a fixed reference kernel of the same kind of work as the workload's
hot spot.  Each stretch of the operation between two samples is rescaled
by ``nominal / mean(the two samples)``; the samples themselves are not
counted.  The result is the operation's time on a box where the kernel
takes its nominal time, which is its typical time on the box the
benchmark was sized on.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.5

_EIGH, _DET = np.linalg.eigh, np.linalg.det  # unwrapped, for the kernels
_rng = np.random.default_rng(12345)
_H147 = _rng.normal(size=(147, 147)) + 1j * _rng.normal(size=(147, 147))
_H147 = _H147 + _H147.conj().T
_U15 = _rng.normal(size=(15, 15)) + 1j * _rng.normal(size=(15, 15))
_ROWS3 = np.array([(a, b, c) for a in range(15) for b in range(a + 1, 15)
                   for c in range(b + 1, 15)])[:200]
_M = _rng.normal(size=(256, 256)) + 1j * _rng.normal(size=(256, 256))


def _python_loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s


def _sector_kernel():
    """Gather of 3x3 minors and their determinants, as in the sector lift."""
    sub = _U15[_ROWS3[:, None, :, None], _ROWS3[None, :, None, :]]
    _DET(sub.reshape(-1, 3, 3))
    _python_loop(10000)


def _dense_kernel():
    """Dense complex products and index arithmetic, as in the gate algebra."""
    _M @ _M @ _M
    idx = np.arange(2**16)
    np.bitwise_count(idx & 0x5A5A) & 1
    _python_loop(20000)


def _eigh_kernel():
    """147 x 147 Hermitian eigendecompositions, as in the CF4 propagator."""
    for _ in range(2):
        w, v = _EIGH(_H147)
    (v * np.exp(-1j * w)) @ v.conj().T[:, :8]
    _python_loop(2000)


# kernel and its typical time on a 2-vCPU Xeon VM (2.1 GHz), single-threaded BLAS
KERNELS = {
    "sector": (_sector_kernel, 0.013),
    "dense": (_dense_kernel, 0.0065),
    "eigh": (_eigh_kernel, 0.011),
}


class Clock:
    def __init__(self, kernel: str):
        self._kernel, self.nominal = KERNELS[kernel]
        self.samples: list = []
        self._op = None
        self._restore: list = []

    def reference(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        ref = time.perf_counter() - t0
        self.samples.append(ref)
        return ref

    # -- sampling inside the program's numpy calls ------------------------

    def __enter__(self):
        eigh, det = np.linalg.eigh, np.linalg.det

        def sampled_eigh(*args, **kwargs):
            out = eigh(*args, **kwargs)
            self._tick()
            return out

        def sampled_det(*args, **kwargs):
            out = det(*args, **kwargs)
            self._tick()
            return out

        np.linalg.eigh, np.linalg.det = sampled_eigh, sampled_det
        self._restore = [("eigh", eigh), ("det", det)]
        return self

    def __exit__(self, *exc):
        for name, fn in self._restore:
            setattr(np.linalg, name, fn)
        self._restore = []
        return False

    def _tick(self, force: bool = False) -> None:
        op = self._op
        if op is None:
            return
        t, c = time.perf_counter(), time.process_time()
        if not force and t - op["t"] < INTERVAL_S:
            return
        ref = self.reference()
        scale = 2 * self.nominal / (op["ref"] + ref)
        op["raw_wall"] += t - op["t"]
        op["raw_cpu"] += c - op["c"]
        op["wall"] += (t - op["t"]) * scale
        op["cpu"] += (c - op["c"]) * scale
        op.update(ref=ref, t=time.perf_counter(), c=time.process_time())

    @contextmanager
    def op(self):
        """Time the block; yields a dict that holds, once the block ends,
        ``wall``/``cpu`` in reference seconds and ``raw_wall``/``raw_cpu``
        as measured."""
        rec = {"wall": 0.0, "cpu": 0.0, "raw_wall": 0.0, "raw_cpu": 0.0}
        rec["ref"] = self.reference()
        rec.update(t=time.perf_counter(), c=time.process_time())
        self._op = rec
        try:
            yield rec
        finally:
            self._tick(force=True)
            self._op = None
