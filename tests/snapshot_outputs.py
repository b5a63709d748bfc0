"""Output snapshot of the CLI: exit code, stdout, stderr and DOT file of
every run, recorded to JSON, and a diff of two such records.

Run by hand from the root of a checkout (tier-1 does not collect it):

    python tests/snapshot_outputs.py record before.json
    python tests/snapshot_outputs.py diff before.json after.json

record runs, through cli.main of the checkout's src/polyorbit,

- every job of the three benchmark workloads at seeds 1-5, built by
  polybench.workloads.build(name, seed, 10, dir) into a temporary
  directory,
- count on every file of MALFORMED, a corpus of H and V files that the
  parser refuses, written into the same directory, and
- the ten COMMANDS on every fixture under tests/fixtures except
  santos.ext.

tests/audit_reach.py runs the same runs, at fewer seeds.

The temporary directory is written as {dir} in every argv and output, so
two checkouts' records compare run by run.  To compare a change with its
parent, copy this file into a checkout of each, record in both, and diff:
diff prints each run whose record differs and exits 1 if any does.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Iterator, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 10.0
SKIPPED_FIXTURES = {"santos.ext"}
COMMANDS = (["automorphisms"], ["convert"], ["convert", "--adjacencies"],
            ["convert", "--idm-adm-level", "1", "1"], ["convert", "--idm-adm-level", "0", "2"],
            ["count"], ["count", "--symmetric"], ["ehrhart"], ["volume"], ["ilp"])
# files the parser refuses, one fault each: bad tokens, short rows, bad
# headers and linearity lines, a V row that is neither point nor ray, and
# bytes that are not UTF-8
MALFORMED = {
    "token.ine": b"H-representation\nbegin\n2 3 rational\n1 -1 0\n1 0 x\nend\n",
    "sign.ine": b"H-representation\nbegin\n1 2 rational\n+-1 1\nend\n",
    "underscore.ine": b"H-representation\nbegin\n2 2 rational\n1 -1\n1_0 1\nend\n",
    "zero-denominator.ine": b"H-representation\nbegin\n1 3 rational\n1 -1 2/0\nend\n",
    "decimal.ext": b"V-representation\nbegin\n2 3 rational\n1 0 0\n1 0.5 1\nend\n",
    "short-row.ine": b"H-representation\nbegin\n2 3 rational\n1 -1 0\n1 0\nend\n",
    "short-row.ext": b"V-representation\nbegin\n2 3 rational\n1 0 0\n1 1 0 1\nend\n",
    "kind.ine": b"G-representation\nbegin\n1 2 rational\n1 -1\nend\n",
    "header.ine": b"H-representation\nbegin\n1 two rational\n1 -1\nend\n",
    "header-word.ext": b"V-representation\nbegin\n1 2 real\n1 0\nend\n",
    "linearity.ine": b"H-representation\nlinearity 2 1\nbegin\n1 2 rational\n1 -1\nend\n",
    "linearity-range.ine": b"H-representation\nlinearity 1 3\nbegin\n1 2 rational\n1 -1\nend\n",
    "linearity-vertex.ext": b"V-representation\nlinearity 1 1\nbegin\n1 2 rational\n1 0\nend\n",
    "v-row.ext": b"V-representation\nbegin\n2 3 rational\n1 0 0\n2 1 1\nend\n",
    "no-end.ext": b"V-representation\nbegin\n1 2 rational\n1 0\n",
    "option.ine": b"H-representation\nbegin\n1 2 rational\n1 -1\nend\nblocks 0\n",
    "latin1.ine": b"H-representation\nbegin\n1 2 rational\n1 \xff\nend\n",
    "latin1.ext": b"V-representation\r\nbegin\r\n1 2 rational\r\n1 \xe9\r\nend\r\n",
}


def runs(seeds) -> Iterator[tuple[str, list, Optional[str], str]]:
    """(key, argv, DOT path or None, directory to write as {dir}) of every
    run: each workload job at each seed, each malformed file, then each
    command on each fixture.  A seed's jobs are built as its turn comes."""
    from polybench import workloads

    with tempfile.TemporaryDirectory() as workdir:
        for name in workloads.SETTINGS:
            for seed in seeds:
                where = Path(workdir, f"{name}-{seed}")
                where.mkdir()
                for job in workloads.build(name, seed, SECONDS, str(where)):
                    yield f"{name}/{seed}/{job.name}", job.argv, job.dot, workdir
        for name, data in MALFORMED.items():
            Path(workdir, name).write_bytes(data)
            yield f"malformed/{name}", ["count", str(Path(workdir, name))], None, workdir
    for fixture in sorted((ROOT / "tests" / "fixtures").iterdir()):
        if fixture.name not in SKIPPED_FIXTURES:
            for cmd in COMMANDS:
                yield (f"fixture/{fixture.name}/{' '.join(cmd)}",
                       [cmd[0], str(fixture)] + cmd[1:], None, str(ROOT))


def run_one(argv: list, dot: Optional[str], workdir: str) -> dict:
    """The record of one cli.main run, with workdir written as {dir}.  A run
    that raises records code "raised" and the exception as its stderr."""
    from polyorbit import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "raised"
            err = io.StringIO(f"{type(exc).__name__}: {exc}")
    text = Path(dot).read_text() if dot is not None and Path(dot).exists() else None
    record = {"argv": " ".join(argv), "code": code, "stdout": out.getvalue(),
              "stderr": err.getvalue(), "dot": text}
    return {key: value.replace(workdir, "{dir}") if isinstance(value, str) else value
            for key, value in record.items()}


def record(path: str) -> int:
    records = {key: run_one(argv, dot, workdir) for key, argv, dot, workdir in runs(SEEDS)}
    Path(path).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"{len(records)} runs recorded to {path}")
    return 0


def diff(before: str, after: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (before, after))
    differ = 0
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) == b.get(key):
            continue
        differ += 1
        if key in a and key in b:
            print(f"differs: {key}: {', '.join(f for f in a[key] if a[key][f] != b[key].get(f))}")
        else:
            print(f"differs: {key}: recorded on one side only")
    print(f"{len(a)} runs before, {len(b)} after, {differ} differ")
    return 1 if differ else 0


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "record":
        return record(argv[1])
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
