"""Run one topobelief CLI command, timing its import and its dispatch.

Used in place of `python -m topobelief.cli` by traced passes.  Standard
output and the exit code are the command's own; the two timings go to
standard error as the last line, a JSON object.
"""

import json
import sys
import time

started = time.perf_counter()
from topobelief.cli import main  # noqa: E402

imported = time.perf_counter()
code = main(sys.argv[1:])
done = time.perf_counter()
sys.stdout.flush()
print(json.dumps({"import_s": imported - started, "command_s": done - imported}), file=sys.stderr)
sys.exit(code)
