"""Starts the benchmark's processes from a small process of its own.

    python bench/spawner.py        (requests on stdin, replies on stdout)

On Linux a process's peak resident set (``ru_maxrss``) starts at the peak
of the process that spawned it: exec records the high-water mark of the
address space it replaces, which for a spawned child is its parent's.
``run.py`` holds the package, the set-up's trees and the reference checks,
so a command it spawned itself would report at least their size.  This
process imports only the standard library, and what it reports for a
command is the command's own peak whenever that is above this process's
(about 13 MB; every command imports ``treeshift`` and peaks above 20 MB).

Each request is one JSON line ``[argv, stdout path, stderr path]``; the
reply is one JSON line ``[wall seconds from spawn to exit, exit status,
peak resident set in KiB]``.  Children get this process's environment.
It exits at the end of its input.
"""
import json
import os
import sys
import time


def spawn(argv: list, out: str, err: str) -> list:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return [time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss]


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(spawn(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
