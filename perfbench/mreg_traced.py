"""Run the mreg command with layer spans recorded, for the traced benchmark run.

    python3 perfbench/mreg_traced.py SPANS_FILE <mreg arguments...>

Behaves like `mreg <arguments>` (same output and exit code) and writes the
spans of the invocation to SPANS_FILE when it ends.
"""

import json
import sys
from pathlib import Path

import tracing


def main():
    out = Path(sys.argv[1])
    tracer = tracing.Tracer()
    tracer.install()
    import mreg.cli

    try:
        code = mreg.cli.run(sys.argv[2:])
    finally:
        out.write_text(json.dumps(tracer.dump()))
    sys.exit(code)


if __name__ == "__main__":
    main()
