"""Fork server: one fresh child process per memcat CLI call.

The server imports memcat.cli once, then forks a child for every request
read from stdin.  The child starts with memcat already imported and with
nothing computed, as a CLI user's process does, runs `memcat <argv>`
with its stdout captured, times the call itself, and sends the result
back.  The server times the calibration kernel (calib.py) just before
each fork and again once the child has ended, and replies on stdout with
both kernel times and the child's peak RSS.  It runs no threads, so
forking it is safe, and it handles one child at a time.  It exits when
stdin closes.

Requests and replies are length-prefixed pickles exchanged only with the
benchmark's own run.py.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import struct
import sys
from pathlib import Path
from time import perf_counter

import calib
import spans

ROOT = Path(__file__).resolve().parent.parent
_LEN = struct.Struct("<Q")


def send(stream, obj):
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_LEN.pack(len(data)) + data)
    stream.flush()


def receive(stream):
    head = stream.read(_LEN.size)
    if len(head) < _LEN.size:
        return None
    (size,) = _LEN.unpack(head)
    return pickle.loads(stream.read(size))


def _run_call(argv, call_id, trace):
    import memcat.cli  # imported by main() before the fork

    tracer = spans.Tracer(call_id) if trace else None
    if tracer:
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            memcat.cli.main.main(args=list(argv), prog_name="memcat")
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        t1 = perf_counter()
    return {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "start": t0,
        "end": t1,
        "spans": tracer.spans if tracer else [],
    }


def _serve_one(request, reply_stream):
    calib_s = calib.measure()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        status = 0
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            result = _run_call(request["argv"], request["call_id"], request["trace"])
            with os.fdopen(w, "wb") as stream:
                send(stream, result)
        except BaseException:  # report, then leave without unwinding the server's frames
            import traceback

            traceback.print_exc()
            status = 1
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as stream:
        result = receive(stream)
    _, status, usage = os.wait4(pid, 0)
    calib_after = calib.measure()
    if result is None:
        result = {"code": None, "stdout": "", "stderr": f"child died, status {status}",
                  "start": 0.0, "end": 0.0, "spans": []}
    result["maxrss_kb"] = usage.ru_maxrss
    result["calib_s"] = (calib_s, calib_after)
    send(reply_stream, result)


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import memcat.cli  # noqa: F401

    calib.measure()  # warm-up
    requests, replies = sys.stdin.buffer, os.fdopen(os.dup(1), "wb")
    sys.stdout = sys.stderr  # the protocol owns fd 1
    send(replies, "ready")
    while (request := receive(requests)) is not None:
        _serve_one(request, replies)


if __name__ == "__main__":
    main()
