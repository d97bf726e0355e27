"""Fuzz the CLI with the cli_argv strategy of test_cli.py, outside tier-1.

    PYTHONPATH=src python tests/fuzz_cli.py [EXAMPLES [SEED]]

Draws EXAMPLES argument lists (default 1000) from a random seed (default 0),
runs each through cli.main in process, and prints the count of every exit
code, the wall time and each input that ended outside the documented exit
codes or raised.  Exits 1 if there was any such input.  pytest does not
collect this file; the tier-1 test draws 50 fixed inputs from the same
strategy.
"""

import collections
import contextlib
import io
import sys
import time

from hypothesis import HealthCheck, Phase, given, seed, settings

from rmbetti import cli
from test_cli import DOCUMENTED_EXITS, cli_argv


def main(argv: list[str]) -> int:
    examples = int(argv[0]) if argv else 1000
    random_seed = int(argv[1]) if len(argv) > 1 else 0
    counts: collections.Counter = collections.Counter()
    bad = []

    @seed(random_seed)
    @settings(max_examples=examples, deadline=None, database=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(args=cli_argv())
    def draw(args):
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(args)
        except Exception as exc:          # an escaped exception is a finding too
            code = f"raised {type(exc).__name__}"
        counts[code] += 1
        if code not in DOCUMENTED_EXITS:
            bad.append((args, code, err.getvalue()[-300:]))

    started = time.monotonic()
    draw()
    print(f"{sum(counts.values())} inputs in {time.monotonic() - started:.1f} s, "
          f"seed {random_seed}; exit codes: "
          + ", ".join(f"{code}: {n}" for code, n in sorted(counts.items(), key=str)))
    for args, code, err in bad:
        print(f"UNDOCUMENTED {code}: {' '.join(args)}\n  {err.strip()}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
