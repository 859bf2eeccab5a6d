"""Run CLI commands on request and report wall time, exit code and peak RSS.

The benchmark starts this script once, before it imports numpy, and sends
it one JSON request per line on stdin: ``{"argv": [...], "cwd": "..."}``.
For each request it starts the command, waits for it with ``os.wait4`` and
answers on stdout with one JSON line:
``{"wall_s": ..., "exit": ..., "maxrss_kb": ..., "stderr": "..."}``.

A child started by a large process inherits that process's resident set
in its ``ru_maxrss``. Starting the commands from this small process keeps
each child's reported peak RSS its own. The script exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time

# A command that runs longer than this is killed and reported with the
# exit code of the kill signal.
COMMAND_TIMEOUT_S = 150.0


def run(argv, cwd):
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    killer = threading.Timer(COMMAND_TIMEOUT_S, child.kill)
    killer.start()
    try:
        stderr = child.stderr.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        killer.cancel()
        child.stderr.close()
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit": child.returncode,
        "maxrss_kb": usage.ru_maxrss,
        "stderr": stderr.decode("utf-8", "replace")[-2000:],
    }


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["cwd"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
