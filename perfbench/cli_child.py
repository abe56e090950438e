"""Run one ``cyclemill`` CLI command as ``python -m cyclemill.cli`` would, with
a speed Sampler active, and write the sampler's timings to a JSON file.

    python3 perfbench/cli_child.py SAMPLES.json COMMAND [ARGS...]

The exit code, standard output and standard error are the command's; an
exception still ends the process with a traceback and exit code 1.
"""

import json
import sys
from pathlib import Path

from speed import Sampler

from cyclemill import cli

sampler = Sampler()
try:
    with sampler:
        code = cli.main(sys.argv[2:])
finally:
    Path(sys.argv[1]).write_text(json.dumps({"samples": sampler.samples, "own_s": sampler.own_s}))
sys.exit(code)
