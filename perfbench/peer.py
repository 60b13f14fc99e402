"""Batched teacher peer for the ``score-external`` workload.

Speaks the external-scorer protocol (one JSON object per line on stdin,
one reply per line on stdout). It behaves like a batched accelerator
teacher: it blocks until at least one request arrives, takes every request
that has been read so far as one batch, waits one fixed service delay, and
answers the whole batch. The log-probability of a token depends only on the
token (see ``logprob``), so the client's average NLL can be checked exactly.

It exits when stdin closes and then writes its counters as JSON to the
``--stats`` file: requests, batches, largest batch, bytes read and written,
and the time spent idle waiting for the next request.

Usage: python3 peer.py --delay-ms 2 --stats peer_stats.json
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import sys
import time
import zlib


def logprob(token: str) -> float:
    """Deterministic log-probability in [-8.0, -0.5] derived from the token's CRC."""
    return -0.5 - (zlib.crc32(token.encode("utf-8")) % 1024) / 1024.0 * 7.5


def serve(delay_s: float, stats: dict) -> None:
    fd_in = sys.stdin.fileno()
    fd_out = sys.stdout.fileno()
    buffer = b""
    while True:
        idle_start = time.monotonic()
        select.select([fd_in], [], [])
        stats["idle_s"] += time.monotonic() - idle_start
        batch = []
        eof = False
        # Drain everything readable now; that is the batch.
        while True:
            chunk = os.read(fd_in, 1 << 16)
            if not chunk:
                eof = True
                break
            stats["bytes_read"] += len(chunk)
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            batch.extend(line for line in lines if line.strip())
            if not select.select([fd_in], [], [], 0)[0]:
                break
        if batch:
            time.sleep(delay_s)
            out = []
            for line in batch:
                req = json.loads(line)
                out.append(json.dumps(
                    {"id": req["id"], "logprobs": [logprob(t) for t in req["tokens"]]}
                ).encode("utf-8") + b"\n")
            payload = b"".join(out)
            view = memoryview(payload)
            while view:
                view = view[os.write(fd_out, view):]
            stats["bytes_written"] += len(payload)
            stats["requests"] += len(batch)
            stats["batches"] += 1
            stats["max_batch"] = max(stats["max_batch"], len(batch))
        if eof:
            return


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, required=True)
    parser.add_argument("--stats", required=True)
    args = parser.parse_args()
    stats = {"requests": 0, "batches": 0, "max_batch": 0, "bytes_read": 0,
             "bytes_written": 0, "idle_s": 0.0}

    # The client closes stdin and then sends SIGTERM at once; ending on EOF
    # alone keeps that signal from cutting the stats file short.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    try:
        serve(args.delay_ms / 1000.0, stats)
    except BrokenPipeError:
        pass
    tmp = args.stats + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    os.replace(tmp, args.stats)


if __name__ == "__main__":
    main()
