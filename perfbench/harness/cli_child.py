"""Run one cvcat CLI command in this process with the layer tracer installed.

Usage: python cli_child.py SUMS.json CLI-ARGS...

Stdout, stderr and the exit code are those of ``python -m cvcat.cli
CLI-ARGS...``; the op-phase span sums go to SUMS.json when the command ends.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from harness import tracer  # noqa: E402


def main() -> int:
    sums_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import cvcat.cli

    tr = tracer.Tracer()
    tr.install()
    code = 0
    try:
        cvcat.cli.main(args=argv, prog_name="cvcat")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        restored = tr.uninstall()
        sums = tracer.summarize(tr.spans)
        sums["restored_cleanly"] = int(tracer.restored_cleanly(restored))
        sums_path.write_text(json.dumps(sums))
    return code


if __name__ == "__main__":
    sys.exit(main())
