"""A clock in reference seconds: work time corrected for the machine's speed.

The shared machines this benchmark runs on change speed by up to 1.6x over
seconds to minutes, whatever process runs. Run-to-run spread of plain wall
times is then set by the machine, not by the program. The clock here runs
a fixed pure-Python kernel (`kernel`) every `PERIOD_S` of CPU time, from a
`SIGPROF` handler in the measured process itself, and scales the work time
since the last sample by `REF_S / t`, where t is the median kernel time of
the last three samples. The time the kernel itself takes is left out of
both clocks:

- `raw()`: plain seconds of work, the kernel's runs excluded;
- `ref()`: reference seconds of work, the time the work would take at the
  speed at which one kernel run takes `REF_S` seconds.

Over ten seeds of 25 s runs on a 2-vCPU Xeon KVM guest, the interquartile
range of wall_s went from 0.126 of its median in plain seconds to 0.029 in
reference seconds on the products workload, from 0.059 to 0.039 on
lie-n2-wide-primes and from 0.116 to 0.015 on lie-n3-small-primes.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# the kernel's time at the usual speed of the 2-vCPU Xeon KVM guest the
# benchmark was written on; it only fixes the unit of ref()
REF_S = 0.0032
PERIOD_S = 0.1


def kernel() -> int:
    """Gaussian elimination mod 7 and dict updates, like hallq's own loops."""
    p = 7
    rank_sum = 0
    for s in range(40):
        rows = [[(i * 31 + j * 17 + s * 7 + i * j) % p for j in range(8)] for i in range(8)]
        r = 0
        for c in range(8):
            piv = next((k for k in range(r, 8) if rows[k][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = pow(rows[r][c], p - 2, p)
            rows[r] = [(v * inv) % p for v in rows[r]]
            for k in range(8):
                if k != r and rows[k][c]:
                    f = rows[k][c]
                    rows[k] = [(a - f * b) % p for a, b in zip(rows[k], rows[r])]
            r += 1
        rank_sum += r
    d: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        d[key] = d.get(key, 0) + i
    return rank_sum + len(d)


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class RefClock:
    """Raw and reference work clocks of this process; see the module doc.

    Until `start`, the clock only scales by the sample given to it; after
    `stop`, the last scale stays in force.
    """

    def __init__(self, first_sample: float) -> None:
        self.samples = [first_sample]
        # (ref seconds, raw seconds, perf_counter, scale) at the end of the
        # last sample; replaced as one tuple, so a reader between two
        # bytecodes never sees half an update
        self.state = (0.0, 0.0, perf_counter(), REF_S / first_sample)
        self._busy = False
        self._stopped = False

    def ref(self) -> float:
        ref_s, _, since, scale = self.state
        return ref_s + (perf_counter() - since) * scale

    def raw(self) -> float:
        _, raw_s, since, _ = self.state
        return raw_s + (perf_counter() - since)

    def sample(self, *_: object) -> None:
        if self._busy or self._stopped:
            return
        self._busy = True
        try:
            ref_s, raw_s, since, scale = self.state
            t0 = perf_counter()
            self.samples.append(time_kernel())
            typical = statistics.median(self.samples[-3:])
            self.state = (ref_s + (t0 - since) * scale, raw_s + (t0 - since), perf_counter(), REF_S / typical)
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        # the handler stays installed, so a signal already on its way is
        # dropped instead of ending the process
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._stopped = True
