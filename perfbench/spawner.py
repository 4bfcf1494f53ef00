"""Run commands one at a time and report each one's wall time and peak RSS.

On Linux a child's ``ru_maxrss`` is at least the high-water mark of the
address space it replaced at exec, which for ``fork``/``vfork`` is its
parent's. The benchmark's own process grows large (the checker holds
arrays over the whole collection), so it starts this small process first
and has it spawn every timed command.

Protocol: one JSON request per line on stdin, ``{"argv", "env", "err"}``;
one JSON reply per line on stdout, ``{"wall", "rss_mb", "code"}``. The
process ends at end of input.
"""

import json
import os
import signal
import sys
import threading
import time

CHILD_TIMEOUT_S = 60


def run(argv: list[str], env: dict, err: str) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024,
            "code": os.waitstatus_to_exitcode(status)}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(run(req["argv"], req["env"], req["err"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
