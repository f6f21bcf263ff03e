#!/usr/bin/env python3
"""Check that a binary rejects bad input cleanly: exit code 1 (not a
signal, not 0) and an `error: ...` line on stderr.

    python3 tests/scripts/expect_cli_error.py BINARY [ARG...]
"""

import subprocess
import sys


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    proc = subprocess.run(argv[1:], capture_output=True, text=True, timeout=60)
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
    if proc.returncode == 1 and errors:
        print(f"ok: exit 1, {errors[0]}")
        return 0
    print(f"FAIL: {' '.join(argv[1:])} exited {proc.returncode} "
          f"(want 1 with an 'error: ' line on stderr)", file=sys.stderr)
    print(f"stderr:\n{proc.stderr}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
