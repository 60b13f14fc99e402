"""Client for an external scorer: a process or socket that speaks a
newline-delimited JSON protocol, one request or response object per line,
matched by id.

``syntheticity.external_scorer_connect`` opens one and imports this module
only then, so a run that scores with ``none`` or ``kgram:`` loads none of
the socket, subprocess or poll machinery below.
"""

from __future__ import annotations

import collections
import contextlib
import fcntl
import json
import os
import select
import shlex
import socket
import subprocess
import time
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import decode, encode
from .errors import ProtocolError, ScorerError

# Tokens an external scorer may have outstanding at a time, counting those
# awaiting an answer and those answered ahead of their turn; one window is
# always let go, so a larger window still goes through.
MAX_IN_FLIGHT_TOKENS = 1 << 16
# Bytes a subprocess scorer's stdin and stdout pipes are grown to, where the
# OS allows: a default 64 KiB pipe holds only a few requests.
PIPE_BYTES = 1 << 20
# Bytes of a subprocess scorer's stderr kept to explain its death.
STDERR_TAIL = 4096
# An unfinished response line may hold this many bytes per token of the
# longest window awaiting an answer, plus LINE_SLACK, before it is refused.
LINE_BYTES_PER_TOKEN = 64
LINE_SLACK = 1 << 16


class ExternalScorer:
    """Client for an external scorer process or socket.

    The peer must answer each ``{"id": ..., "tokens": [...]}`` request line
    with a ``{"id": ..., "logprobs": [...]}`` line; responses may arrive in
    any order and are matched back by id. Requests are pipelined, so a
    batching peer sees many at once: up to ``MAX_IN_FLIGHT_TOKENS`` tokens
    are outstanding at a time, plus one window, and a subprocess scorer's
    stdin and stdout pipes are grown to ``PIPE_BYTES`` where the OS allows
    (the default size is kept otherwise). The peer must make progress, by
    accepting request bytes or completing a response line, within
    ``timeout`` seconds of its last progress, and a response line may not
    outgrow ``LINE_BYTES_PER_TOKEN`` bytes per token of the longest window
    awaiting an answer plus ``LINE_SLACK``; either failure is a
    ``ProtocolError``. A target that cannot be reached or started raises
    ``ScorerError``.

    A subprocess scorer's stderr is read while its responses are awaited,
    so a chatty child never blocks on a full pipe; only the last
    ``STDERR_TAIL`` bytes are kept, to name in the error if it dies.
    """

    def __init__(self, target: str, context_len: int, timeout: float):
        self.context_len = context_len
        self.timeout = timeout
        self._next_id = 0
        self._closed = None  # why the scorer was closed, once it is
        self._buffer = bytearray()
        self._efd = None  # a subprocess scorer's stderr, until it ends
        self._stderr_tail = b""
        # Both directions are non-blocking: the duplex loop waits in poll,
        # and a write may be partial.
        if target.startswith("tcp://"):
            host, colon, port = target[len("tcp://") :].rpartition(":")
            if not colon or not port:
                raise ScorerError(f"endpoint {target!r} is missing a port")
            try:
                conn = socket.create_connection((host.strip("[]"), int(port)), timeout=timeout)
            except (OSError, OverflowError, ValueError) as exc:
                raise ScorerError(f"cannot connect to scorer {target!r}: {exc}") from exc
            conn.setblocking(False)
            self._proc = None
            self._conn = conn
            self._rfd = self._wfd = conn.fileno()
        else:
            try:
                argv = shlex.split(target)
                if not argv:
                    raise ValueError("empty command")
                self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                              stderr=subprocess.PIPE)
            except (OSError, ValueError) as exc:
                raise ScorerError(f"cannot start scorer {target!r}: {exc}") from exc
            self._conn = None
            self._rfd = self._proc.stdout.fileno()
            self._wfd = self._proc.stdin.fileno()
            self._efd = self._proc.stderr.fileno()
            for fd in (self._wfd, self._rfd):
                with contextlib.suppress(AttributeError, OSError):  # no such call, or refused
                    fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            os.set_blocking(self._wfd, False)
            os.set_blocking(self._efd, False)

    def close(self):
        self._closed = self._closed or "close() was called"
        if self._proc is not None:
            try:
                self._proc.stdin.close()
            except Exception:
                pass
            self._proc.terminate()
            try:
                self._proc.wait(timeout=self.timeout)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()
            self._proc.stderr.close()
        if self._conn is not None:
            self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _exit_status(self, when: str = "") -> str:
        """Say how a scorer ended, for a stream it closed: ``when`` (such as
        " before responding") follows the status, and a subprocess scorer's
        last stderr line ends the message."""
        if self._proc is None:
            return f"scorer closed the connection{when}"
        try:
            status = self._proc.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            return f"scorer closed its output but is still running{when}"
        while self._drain_stderr():
            pass
        lines = self._stderr_tail.decode("utf-8", "replace").strip().splitlines()
        last = f"; its stderr ends: {lines[-1].strip()!r}" if lines else ""
        return f"scorer exited with status {status}{when}{last}"

    def _drain_stderr(self) -> bool:
        """Read what a subprocess scorer has written to stderr, keeping the
        last ``STDERR_TAIL`` bytes; return whether more may be waiting."""
        if self._efd is None:
            return False
        try:
            chunk = os.read(self._efd, 1 << 16)
        except OSError:  # nothing to read yet; a broken pipe just ends the tail
            return False
        if not chunk:
            self._efd = None
            return False
        self._stderr_tail = (self._stderr_tail + chunk)[-STDERR_TAIL:]
        return True

    def _wait(self, writing: bool, deadline: float) -> tuple[bool, bool]:
        """Wait until the ``time.monotonic()`` ``deadline`` for the peer to
        have output to read or, if ``writing``, room for input; drain stderr
        meanwhile. Return (readable, writable); both False means the
        deadline passed."""
        while (left := deadline - time.monotonic()) > 0:
            watched = [self._rfd] if self._efd is None else [self._rfd, self._efd]
            masks = dict.fromkeys(watched, select.POLLIN)
            if writing:
                masks[self._wfd] = masks.get(self._wfd, 0) | select.POLLOUT
            poller = select.poll()
            for fd, mask in masks.items():
                poller.register(fd, mask)
            # A hang-up or error counts as ready: the read or write that follows reports it.
            ready = dict(poller.poll(left * 1000))
            if ready.get(self._efd):
                self._drain_stderr()
            readable = bool(ready.get(self._rfd, 0) & ~select.POLLOUT)
            writable = writing and bool(ready.get(self._wfd, 0) & ~select.POLLIN)
            if readable or writable:
                return readable, writable
        return False, False

    def _parse_response(self, line: bytes) -> tuple[str, object]:
        """Check one response line's wire format, a JSON object with ``id``
        and ``logprobs``; return the id and ``logprobs`` as sent, for
        ``score_corpus`` to check."""
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise ProtocolError(f"invalid JSON from scorer: {exc}") from exc
        if not isinstance(obj, dict) or "id" not in obj or "logprobs" not in obj:
            raise ProtocolError("response missing id or logprobs")
        return str(obj["id"]), obj["logprobs"]

    def _read_lines(self) -> list[bytes]:
        """Read what the peer has sent; return the complete lines in it and
        keep the unfinished rest in ``_buffer``."""
        try:
            chunk = os.read(self._rfd, 1 << 16)
        except BlockingIOError:  # poll may report a socket ready spuriously
            return []
        except OSError as exc:
            raise ProtocolError(f"cannot read from scorer: {exc}") from exc
        if not chunk:
            raise ProtocolError(self._exit_status(" before responding"))
        self._buffer += chunk
        lines = []
        if b"\n" in chunk:
            *lines, self._buffer = self._buffer.split(b"\n")
        return [bytes(line) for line in lines]

    def _write(self, data: memoryview) -> memoryview:
        """Write what the peer will take now; return the unwritten rest."""
        try:
            return data[os.write(self._wfd, data) :]
        except BlockingIOError:
            return data
        except BrokenPipeError as exc:
            raise ProtocolError(f"cannot send to scorer: {self._exit_status()}") from exc
        except OSError as exc:
            raise ProtocolError(f"cannot send to scorer: {exc}") from exc

    def score_windows(self, windows: Iterable[np.ndarray]) -> Iterator[list[float]]:
        """Score id windows, yielding their log-probabilities in input order.

        Each window's ids are decoded to tokens as its request is built.
        Windows are drawn from ``windows`` only as requests are sent, and
        only while fewer than ``MAX_IN_FLIGHT_TOKENS`` tokens are
        outstanding, sent but not yet yielded; the first window is always
        drawn. So at most that many tokens plus one window are outstanding,
        and neither the input nor the output is held in memory as a whole.
        The ``timeout`` counts from the peer's last progress, or from when
        the caller resumes the generator. A call that ends with a request
        unanswered closes the scorer. The line cap, never below ``LINE_SLACK``,
        scans the requests outstanding, but only once an unfinished line is
        longer than that.
        """
        if self._closed:
            raise ScorerError(f"scorer is closed: {self._closed}")
        windows = iter(windows)
        # request id -> tokens, in the order sent: first is due next, found without
        # passing the slots that a plain dict's pops leave at its front
        pending: collections.OrderedDict[str, int] = collections.OrderedDict()
        answered: dict[str, list[float]] = {}  # request id -> logprobs, until yielded
        held = 0  # tokens of the windows in pending
        out = memoryview(b"")
        exhausted = False
        deadline = time.monotonic() + self.timeout
        try:
            while True:
                if not out and not exhausted and held < MAX_IN_FLIGHT_TOKENS:
                    window = next(windows, None)
                    if window is None:
                        exhausted = True
                    else:
                        req_id = f"q{self._next_id}"
                        self._next_id += 1
                        # An empty window counts as one token, so the budget bounds them too.
                        pending[req_id] = max(len(window), 1)
                        held += pending[req_id]
                        request = json.dumps({"id": req_id, "tokens": decode(window)}) + "\n"
                        out = memoryview(request.encode("utf-8"))
                due = next(iter(pending), None)
                if due in answered:
                    held -= pending.pop(due)
                    yield answered.pop(due)
                    deadline = time.monotonic() + self.timeout
                    continue
                if due is None and exhausted:
                    return
                readable, writable = self._wait(bool(out), deadline)
                if not readable and not writable:
                    if out:
                        raise ProtocolError(f"cannot send to scorer: timed out after {self.timeout}s")
                    raise ProtocolError(f"scorer timed out after {self.timeout}s")
                if writable:
                    rest = self._write(out)
                    if len(rest) < len(out):
                        deadline = time.monotonic() + self.timeout
                    out = rest
                if readable:
                    lines = self._read_lines()
                    if len(self._buffer) > LINE_SLACK:
                        longest = max(n for i, n in pending.items() if i not in answered)
                        cap = LINE_BYTES_PER_TOKEN * longest + LINE_SLACK
                        if len(self._buffer) > cap:
                            raise ProtocolError(f"scorer response line is longer than {cap} bytes")
                    for line in lines:
                        resp_id, logprobs = self._parse_response(line)
                        if resp_id not in pending or resp_id in answered:
                            raise ProtocolError(f"unknown response id {resp_id!r}")
                        answered[resp_id] = logprobs
                        deadline = time.monotonic() + self.timeout
        finally:
            if unanswered := len(pending) - len(answered):  # a later call would read its answer
                self._closed = f"an earlier call left {unanswered} of its requests unanswered"
                self.close()

    def log_probs(self, tokens: Sequence[str]) -> list[float]:
        """The values the scorer returns for one window of tokens, as sent:
        only the line's format is checked, not their type, count or range."""
        (logprobs,) = self.score_windows([encode(tokens)])
        return logprobs
