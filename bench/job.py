"""Run one quiverhom CLI job in this fresh process and describe it on stdout.

    python3 bench/job.py <trace 0|1> <quiverhom argv...>

The report the CLI prints is captured, and one JSON line goes to stdout:
exit code, report, the `time.monotonic()` reading after `import quiverhom`
(a system-wide clock, so the parent can subtract its own start reading), the
command time, the peak RSS of this process image, and with tracing on, the
tracer summary.
"""

import contextlib
import io
import json
import sys
import time


def peak_rss_kb() -> int:
    """High-water RSS of this process image.

    Not `ru_maxrss`: that survives exec and so includes the driver's memory
    at the moment it spawned this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    import quiverhom  # noqa: F401  (set-up ends once the package is imported)
    from quiverhom import cli

    ready = time.monotonic()
    if trace:
        import tracer

        collector = tracer.Tracer()
        tracer.install(collector)  # rebinds cli.main to a span wrapper
    out = io.StringIO()
    started = time.monotonic()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv
            code = exc.code
    done = time.monotonic()
    result = {
        "exit": code,
        "report": out.getvalue(),
        "ready": ready,
        "command_s": done - started,
        "maxrss_kb": peak_rss_kb(),
    }
    if trace:
        result["trace"] = collector.summary()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
