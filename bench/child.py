"""One arcring CLI invocation, timed from the inside.

Usage: python3 child.py MODE TIMING_FILE RUN_ID [CLI ARGS...]

MODE is ``probe`` (import only), ``run`` (untraced invocation) or
``trace`` (invocation with the outside-in tracer installed).  The
process does what the ``arcring`` console script does, ``from
arcring.cli import main; main(argv)``, and records two clock readings
in TIMING_FILE: when ``import arcring.cli`` finished and when the
report was written and flushed.  ``time.perf_counter`` reads the
system-wide monotonic clock on Linux, so the parent can subtract its
own spawn time from the first reading.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import arcring.cli  # noqa: E402

t_import = time.perf_counter()


def peak_rss_kib() -> int:
    """This process image's peak resident set (VmHWM), in KiB.

    Not ru_maxrss: on Linux that also counts the spawning process's
    memory at the time of the exec, so it would grow with the parent.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    import json

    mode, timing_file, run_id = sys.argv[1], sys.argv[2], int(sys.argv[3])
    argv = sys.argv[4:]
    if mode == "probe":
        with open(timing_file, "w") as fh:
            json.dump({"t_import": t_import}, fh)
        return 0
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install()
    code = arcring.cli.main(argv)
    sys.stdout.flush()
    t_done = time.perf_counter()
    header = {
        "t_import": t_import,
        "t_done": t_done,
        "exit": code,
        "peak_rss_kib": peak_rss_kib(),
    }
    if tracer is None:
        with open(timing_file, "w") as fh:
            json.dump(header, fh)
    else:
        tracer.write(timing_file, header)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
