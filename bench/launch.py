"""Run one command and report its wall time, exit code and peak RSS.

A child's peak RSS as the kernel reports it never falls below the RSS of
the process that spawned it, because the spawning process's memory is
counted until the child's exec.  The benchmark process holds the checked
outputs, so it starts every measured command through this launcher,
which imports nothing beyond the standard library and stays small.

The peak RSS is that of the largest process among the command and the
descendants it waited for (pool workers included).

Usage: python3 bench/launch.py STDOUT STDERR -- COMMAND...
Prints one JSON line: started (time.monotonic() at spawn), wall, code, rss_mb.
"""
import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    out_path, err_path, sep, *command = argv
    if sep != "--" or not command:
        print("usage: launch.py STDOUT STDERR -- COMMAND...", file=sys.stderr)
        return 2
    with open(out_path, "w") as out, open(err_path, "w") as err:
        started = time.monotonic()
        t0 = time.perf_counter()
        pid = os.posix_spawnp(command[0], command, os.environ,
                              file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                            (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
    print(json.dumps({"started": started, "wall": wall,
                      "code": os.waitstatus_to_exitcode(status),
                      "rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
