"""Host-speed probe and the rescaling of times to a reference host speed.

The probe is a fixed pure-Python and zlib loop shaped like the workloads
(DEFLATE, n-gram sets, dict counting) and independent of the program, so
its time tracks only how fast the host runs at the moment. On a 2-vCPU
2.1 GHz Xeon VM each vCPU switches, on its own, between two speed states
about 1.5x apart; the probe therefore runs in the worker process itself,
right after the timed jobs, on the vCPU the jobs most likely ran on.
"""

from __future__ import annotations

import time
import zlib

# Probe seconds at the reference host speed: a typical reading on a 2-vCPU
# 2.1 GHz Xeon VM (about 0.055 s in its faster state, 0.09 s in its slower).
PROBE_REF_S = 0.08


def host_probe() -> float:
    """Seconds for one pass of the probe loop.

    Its working set stays near 1 MB, so it does not raise the peak RSS that
    the worker reports for its jobs.
    """
    start = time.perf_counter()
    words = [f"w{i}" for i in range(997)]
    for rep in range(3):
        tokens = [words[(i * 7919 + rep) % 997] for i in range(50_000)]
        zlib.compress(" ".join(tokens).encode("ascii"), 6)
        grams = {tuple(tokens[i:i + 3]) for i in range(len(tokens) - 2)}
        counts: dict[str, int] = {}
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
        del grams, tokens
    return time.perf_counter() - start


def at_reference_speed(wall_s: float, probe_s: float, fixed_wait_s: float = 0.0) -> float:
    """Wall time rescaled to the reference host speed.

    Everything but ``fixed_wait_s`` (the scorer peer's nominal service
    delay, which no host speed changes) is scaled by PROBE_REF_S / probe_s:
    CPU work, and the scheduling latency that grows with host contention.
    """
    return fixed_wait_s + (wall_s - fixed_wait_s) * PROBE_REF_S / probe_s
