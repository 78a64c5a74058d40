"""One ``bertini`` CLI call in a fresh interpreter, measured from the inside.

usage: python3 perfbench/child.py MEASUREMENTS.json SPANS.npz|- -- CLI-ARGS...

Imports ``bertinilab`` from the ``src`` directory of the checkout this
file sits in, runs ``bertinilab.cli.main(CLI-ARGS)`` once and writes
MEASUREMENTS.json with the exit status, the monotonic time at which the
import finished, the wall and CPU seconds of ``main`` and the peak RSS.
With a SPANS path instead of ``-`` the call runs under the tracer and the
spans are saved there after ``main`` returns.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

from bertinilab import cli  # noqa: E402

t_imported = time.monotonic()


def peak_rss_kb():
    """High-water RSS of this process image.

    ``ru_maxrss`` would not do: Linux carries the image that existed before
    ``exec`` into it, and that image is the parent's.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    out_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bertinilab was imported from {cli.__file__}, not {SRC}")
    tracer = None
    if spans_path != "-":
        sys.path.insert(0, HERE)
        from tracer import Tracer
        tracer = Tracer().install()
    w0 = time.perf_counter()
    c0 = time.process_time()
    status = cli.main(argv)
    cpu_s = time.process_time() - c0
    run_s = time.perf_counter() - w0
    if tracer is not None:
        tracer.save(spans_path)
    doc = {"status": status, "t_imported": t_imported, "run_s": run_s,
           "cpu_s": cpu_s,
           "maxrss_kb": peak_rss_kb()}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
