"""Fuzz the CLI with the cli_argv strategy of test_cli.py.

    PYTHONPATH=src python tests/fuzz_cli.py [EXAMPLES [SEED]]

Draws EXAMPLES argument lists (default 1000) from a random seed (default 0),
runs each through cli.main in process, and prints the count of every exit
code, the wall time and each input that ended outside the documented exit
codes or raised.  Every `betti` draw also gets a `--backend` (fast,
homology or both) and a `--char` (2, 3, 5, 4 or 0); 4 and 0 exit 2 on
every backend, and exit 5, a disagreement between two routes, is a finding
on any input.  Some draws (64 of the 1000 at seed 0) are malformed: an
unknown or missing first token, `-h` at any place, or one of --q, --m and
--r (or --r-all) dropped.  argparse ends those with SystemExit, whose code
is counted apart as an argparse exit; one other than 0 (help) or 2 (usage
error) is a finding.  The `certificate` object of every
`certificate ... --output=json` that exits 0 is re-checked, as json.loads
reads it, with check_certificate under the report's own guards; a failed
re-check is a finding too.  So is, for each of its integer keys, a copy
with that key deleted or its value turned into a string or into true
that check_certificate passes or raises on, instead of failing it, and a
copy from test_verify.NON_INTEGER_TAMPERS (an array entry made a float, a
bool or a string; a witness coefficient or exponent that is not an
integer; a witness term repeated or zero) that does not fail with exactly
its reason, matrix_shapes or witness_terms.  So is JSON
stdout that json.dumps(json.loads(out), indent=2) does not write back byte
for byte, and a verify-theorem or verify-mds report whose `match` is not
whether the sweep exited 0.  Exits 1 if there was any finding.  pytest
does not collect this file: test_cli.py runs main(["300", "0"]) and
asserts that it finds nothing and re-checks at least one certificate,
beside its own 50 fixed draws.
"""

import collections
import contextlib
import io
import json
import sys
import time

from hypothesis import HealthCheck, Phase, given, seed, settings
from hypothesis import strategies as st

from rmbetti import cli, verify
from test_cli import DOCUMENTED_EXITS, cli_argv
from test_verify import NON_INTEGER_TAMPERS


@st.composite
def fuzz_argv(draw):
    """cli_argv, with a backend and a homology prime on every betti draw;
    some draws broken as the module docstring says."""
    argv = draw(cli_argv())
    if draw(st.sampled_from((False, False, False, False, True))):
        broken = draw(st.sampled_from(("unknown", "missing", "help", "dropped")))
        if broken == "unknown":
            argv[0] = draw(st.sampled_from(("frobnicate", "Dim", "verify", "", "--q=2")))
        elif broken == "missing":
            del argv[0]
        elif broken == "help":
            argv.insert(draw(st.integers(0, len(argv))), "-h")
        else:                              # argv[1:4] are --q, --m and --r or --r-all
            del argv[draw(st.integers(1, 3))]
        return argv
    if argv[0] == "betti":
        backend = draw(st.sampled_from(("fast", "homology", "both")))
        char = draw(st.sampled_from((2, 3, 5, 4, 0)))
        argv[-1:-1] = [f"--backend={backend}", f"--char={char}"]
    return argv


def main(argv: list[str]) -> int:
    examples = int(argv[0]) if argv else 1000
    random_seed = int(argv[1]) if len(argv) > 1 else 0
    counts: collections.Counter = collections.Counter()
    argparse_exits: collections.Counter = collections.Counter()
    bad = []
    rechecked = []
    round_tripped = []

    @seed(random_seed)
    @settings(max_examples=examples, deadline=None, database=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(args=fuzz_argv())
    def draw(args):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(args)
        except SystemExit as exc:         # argparse: 0 after help, 2 on a usage error
            argparse_exits[exc.code] += 1
            if exc.code not in (0, 2):
                bad.append((f"ARGPARSE EXIT {exc.code}", args, err.getvalue()[-300:]))
            return
        except Exception as exc:          # an escaped exception is a finding too
            code = f"raised {type(exc).__name__}"
        counts[code] += 1
        stdout = out.getvalue()
        if code not in DOCUMENTED_EXITS:
            bad.append((f"UNDOCUMENTED {code}", args, err.getvalue()[-300:]))
            return
        if code == 5:
            bad.append(("CROSS-CHECK FAILED", args, err.getvalue()[-300:]))
        if args[-1] == "--output=json" and stdout:
            round_tripped.append(args)
            try:
                same = stdout == json.dumps(json.loads(stdout), indent=2) + "\n"
            except ValueError:            # not JSON at all
                same = False
            if not same:
                bad.append(("JSON ROUND TRIP DIFFERS", args, stdout[-300:]))
            elif args[0].startswith("verify-") and json.loads(stdout)["match"] != (code == 0):
                bad.append(("SWEEP MATCH IS NOT EXIT 0", args, f"exit {code}"))
        if code == 0 and args[0] == "certificate" and args[-1] == "--output=json":
            report = json.loads(stdout)
            guards = verify.Guards(report["guards"]["max_n_betti"],
                                   report["guards"]["max_enum"])
            check = verify.check_certificate(report["certificate"], guards)
            rechecked.append(args)
            if not check.ok:
                bad.append(("RE-CHECK FAILED", args, ", ".join(check.reasons)))
            cert = report["certificate"]
            for key in [key for key, value in cert.items() if type(value) is int]:
                for tampered in ({name: v for name, v in cert.items() if name != key},
                                 {**cert, key: str(cert[key])}, {**cert, key: True}):
                    try:
                        passed = verify.check_certificate(tampered, guards).ok
                    except Exception as exc:
                        passed = f"raised {type(exc).__name__}"
                    if passed is not False:
                        bad.append((f"MALFORMED {key!r} NOT REFUSED", args, str(passed)))
            for name, tamper, reason in NON_INTEGER_TAMPERS:
                try:
                    reasons = verify.check_certificate(tamper(cert), guards).reasons
                except Exception as exc:
                    reasons = f"raised {type(exc).__name__}"
                if reasons != (reason,):
                    bad.append((f"NON-INTEGER {name} NOT REFUSED", args, str(reasons)))

    started = time.monotonic()
    draw()
    inputs = sum(counts.values()) + sum(argparse_exits.values())
    print(f"{inputs} inputs in {time.monotonic() - started:.1f} s, "
          f"seed {random_seed}; exit codes: "
          + ", ".join(f"{code}: {n}" for code, n in sorted(counts.items(), key=str))
          + "; argparse exits: "
          + ", ".join(f"{code}: {n}" for code, n in sorted(argparse_exits.items(), key=str))
          + f"; {len(round_tripped)} JSON outputs written back byte for byte"
          + f"; {len(rechecked)} certificates re-checked from their JSON")
    for heading, args, detail in bad:
        print(f"{heading}: {' '.join(args)}\n  {detail.strip()}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
