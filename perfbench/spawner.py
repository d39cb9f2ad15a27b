"""Start commands on request and report each one's exit, output and memory.

A child process inherits the memory high-water mark of the process that
starts it: the pages of the starting process count until the child's exec.
So ``po2`` is started from this small process, begun before the benchmark
grows, and each command's peak memory is read from its own rusage.

Protocol: one JSON request per input line, ``{"argv": [...], "env": {...},
"out": path, "err": path}``; one JSON reply per output line, ``{"returncode",
"stdout", "stderr", "maxrss_kb"}``.  The process ends when its input closes.
"""

import json
import os
import subprocess
import sys

for line in sys.stdin:
    request = json.loads(line)
    with open(request["out"], "w+b") as out, open(request["err"], "w+b") as err:
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, env=request["env"])
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        reply = {
            "returncode": proc.returncode,
            "stdout": out.read().decode("utf-8", "replace"),
            "stderr": err.read().decode("utf-8", "replace"),
            "maxrss_kb": usage.ru_maxrss,
        }
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
