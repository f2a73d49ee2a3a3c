"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: python3 setup_probe.py SRC_DIR INSTANCE ALGO OUT

Times ``import pmssc.cli`` plus one warm-up solve of a tiny instance (which
pays any import the program defers to its first solve) and prints the
elapsed time in reference seconds (see hostspeed.py) and the solve's exit
code as one JSON line.
"""

import json
import sys
import time
from pathlib import Path


def main(argv):
    src, instance, algo, out = argv
    sys.path.insert(0, src)
    started = time.perf_counter()
    from pmssc import cli

    rc = cli.main(["solve", "--instance", instance, "--algo", algo, "--seed", "0", "--out", out])
    elapsed = time.perf_counter() - started
    # Imported only now, so that its imports do not shorten the timed import.
    import hostspeed

    slowdown = (hostspeed.slowdown() + hostspeed.slowdown()) / 2
    if Path(cli.__file__).resolve().parents[1] != Path(src).resolve():
        rc = "pmssc imported from %s, not %s" % (cli.__file__, src)
    print(json.dumps({"setup_s": elapsed / slowdown, "rc": rc}))


if __name__ == "__main__":
    main(sys.argv[1:])
