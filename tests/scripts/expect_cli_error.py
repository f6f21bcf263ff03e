#!/usr/bin/env python3
"""Check that a binary rejects bad input cleanly: exit code 1 (not a
signal, not 0) and an `error: ...` line on stderr. With --expect=TEXT, the
first error line must also contain TEXT.

    python3 tests/scripts/expect_cli_error.py [--expect=TEXT] BINARY [ARG...]
"""

import subprocess
import sys


def main(argv):
    args = argv[1:]
    expect = None
    if args and args[0].startswith("--expect="):
        expect = args.pop(0)[len("--expect="):]
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    proc = subprocess.run(args, capture_output=True, text=True, timeout=60)
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
    if proc.returncode == 1 and errors and (expect is None or expect in errors[0]):
        print(f"ok: exit 1, {errors[0]}")
        return 0
    want = "an 'error: ' line" + (f" containing {expect!r}" if expect is not None else "")
    print(f"FAIL: {' '.join(args)} exited {proc.returncode} "
          f"(want 1 with {want} on stderr)", file=sys.stderr)
    print(f"stderr:\n{proc.stderr}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
