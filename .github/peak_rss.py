"""Run a command and fail if its peak resident set size exceeds a bound.

    python .github/peak_rss.py MIB COMMAND [ARG ...]

The command's stdout is discarded.  The peak is ``ru_maxrss`` of the waited-for
child, read through ``resource`` (KiB on Linux), so no GNU ``time`` is needed.
Exits 1 if the command fails or its peak exceeds MIB mebibytes.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    bound, command = float(argv[0]), argv[1:]
    code = subprocess.run(command, stdout=subprocess.DEVNULL).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"{' '.join(command)}: exit {code}, peak {peak:.1f} MiB (bound {bound:g})")
    return int(code != 0 or peak > bound)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
