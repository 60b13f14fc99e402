"""Scriptable external scorer for protocol tests.

Speaks the newline-delimited JSON protocol on stdin/stdout. Modes:
    const      reply -1.0 per token, immediately
    positive   reply +0.1 per token (protocol violation)
    value V    reply float(V) per token, e.g. ``value nan``
    reorder3   buffer the first 3 requests, answer them in reverse order
    short      reply with one fewer logprob than requested
    wrongid    reply under an id that was never requested
    noid       reply with logprobs but no id
    strings    reply with logprobs that are strings, not numbers
    logprobs J reply with the JSON text J as logprobs, whatever the request
    badjson    reply with a non-JSON line
    garbage    reply with a line of bytes that are not UTF-8
    silent     never reply
    drip       after reading one request, write "{" every 0.1 s and never a
               newline, then exit with status 0 after about 3 s
    flood      after reading one request, write 1 MiB of spaces at a time and
               never a newline, then exit with status 0 after 8 MiB
    die        exit with status 3 after reading one request
    noisy      after reading one request, write about 1 MB to stderr ending
               in the line "fatal: out of memory", then exit with status 3
    batch4     hold requests until 4 are unanswered, or stdin has been idle
               for 3 s, then answer the held ones in order
    stubborn   ignore SIGTERM, reply like const, and linger after stdin closes
"""

import json
import os
import select
import signal
import sys
import time


def reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def batch4():
    # Reads raw bytes, so select sees every request that has arrived.
    fd = sys.stdin.fileno()
    buffer = b""
    held = []
    while True:
        if held and not select.select([fd], [], [], 3.0)[0]:
            answer(held)
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            answer(held)
            return
        *lines, buffer = (buffer + chunk).split(b"\n")
        for line in lines:
            if line.strip():
                held.append(json.loads(line))
                if len(held) == 4:
                    answer(held)


def answer(held):
    for req in held:
        reply({"id": req["id"], "logprobs": [-1.0] * len(req["tokens"])})
    held.clear()


def main():
    mode = sys.argv[1] if len(sys.argv) > 1 else "const"
    if mode == "batch4":
        batch4()
        return
    stubborn = mode == "stubborn"
    if stubborn:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    buffered = []
    for line in sys.stdin:
        if not line.strip():
            continue
        req = json.loads(line)
        if mode == "die":
            sys.exit(3)
        if mode == "noisy":
            for i in range(16384):
                sys.stderr.write(f"progress {i:05d} " + "." * 48 + "\n")
            sys.stderr.write("fatal: out of memory\n")
            sys.stderr.flush()
            sys.exit(3)
        if mode == "silent":
            time.sleep(3600)
        if mode == "drip":
            for _ in range(30):
                sys.stdout.write("{")
                sys.stdout.flush()
                time.sleep(0.1)
            return
        if mode == "flood":
            for _ in range(8):
                sys.stdout.write(" " * (1 << 20))
                sys.stdout.flush()
            return
        if mode == "badjson":
            sys.stdout.write("not json\n")
            sys.stdout.flush()
            continue
        if mode == "garbage":
            sys.stdout.buffer.write(b"\xff\xfe\x80\n")
            sys.stdout.flush()
            continue
        if mode == "positive":
            reply({"id": req["id"], "logprobs": [0.1] * len(req["tokens"])})
            continue
        if mode == "value":
            reply({"id": req["id"], "logprobs": [float(sys.argv[2])] * len(req["tokens"])})
            continue
        if mode == "short":
            reply({"id": req["id"], "logprobs": [-1.0] * (len(req["tokens"]) - 1)})
            continue
        if mode == "wrongid":
            reply({"id": "never-sent", "logprobs": [-1.0] * len(req["tokens"])})
            continue
        if mode == "noid":
            reply({"logprobs": [-1.0] * len(req["tokens"])})
            continue
        if mode == "logprobs":
            sys.stdout.write(f'{{"id": {json.dumps(req["id"])}, "logprobs": {sys.argv[2]}}}\n')
            sys.stdout.flush()
            continue
        if mode == "strings":
            reply({"id": req["id"], "logprobs": ["-1.0"] * len(req["tokens"])})
            continue
        if mode == "reorder3" and len(buffered) < 2:
            buffered.append(req)
            continue
        if mode == "reorder3":
            buffered.append(req)
            for pending in reversed(buffered):
                reply({"id": pending["id"], "logprobs": [-1.0] * len(pending["tokens"])})
            buffered = []
            mode = "const"
            continue
        reply({"id": req["id"], "logprobs": [-1.0] * len(req["tokens"])})
    if stubborn:
        time.sleep(3600)


if __name__ == "__main__":
    main()
