"""Set-up probe: import steinkit, generate one workload's round and parse
every spec in it, then exit.

    python3 perfbench/setup_probe.py certify 1

`run.py` times fresh interpreters running this for `setup_s`.  It imports
only the standard library, the round generators and the program, so the
time is the program's own start-up plus the parsing of its inputs.
"""

import sys
from pathlib import Path

import rounds

sys.path.insert(0, str(Path.cwd().resolve() / "src"))
import steinkit  # noqa: E402

for op in rounds.build(sys.argv[1], int(sys.argv[2])):
    steinkit.parse_spec(op.text)
