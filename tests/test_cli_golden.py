"""Byte-for-byte CLI outputs: exit code, stdout and stderr of a fixed argv list.

The expected outputs in `cli_golden.json` were recorded from a known-good
tree.  They cover every `classify`, `spectrum`, `threshold`, `eigenvalue`
and `secular` subcommand in both formats, and the domain-error argvs.  The
`tq` and `verify` commands are left out: their floats come from
numpy/LAPACK and may move by ulps between builds.

Re-record (only on a tree whose outputs are known to be right):

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import io
import json
import pathlib

import pytest

from topext import cli

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

_QUERIES = [
    *(("interval", "classify", f"--b={b}") for b in ("-100", "-4", "-1", "-1e-16", "0", "0.5", "50")),
    *(("interval", "spectrum", "--t", t) for t in ("12", "0", "-50", "200")),
    ("interval", "spectrum", "--t", "12", "--cutoff", "1000"),
    ("interval", "secular", "--min", "-10", "--max", "60", "--samples", "50"),
    ("interval", "secular", "--min", "39.47841760435743", "--max", "39.47841760435744",
     "--samples", "3"),
    *(("point", cmd, f"--alpha={a}") for cmd in ("classify", "spectrum")
      for a in ("-0.5", "-1e-3", "0", "1", "inf")),
    *(("coulomb", "threshold", "--nu", nu) for nu in ("0.1", "1", "10")),
    *(("coulomb", cmd, "--nu", "1", f"--alpha={a}") for cmd in ("eigenvalue", "classify")
      for a in ("-1", "0.0122", "0.5", "inf")),
    ("coulomb", "classify", "--nu", "2", "--alpha=-0.3"),
]

_DOMAIN_ERRORS = [
    ("interval", "classify", "--b", "nan"),
    ("interval", "spectrum", "--t", "nan"),
    ("point", "classify", "--alpha", "nan"),
    ("point", "spectrum", "--alpha", "nan"),
    ("coulomb", "classify", "--nu", "1", "--alpha", "nan"),
    ("coulomb", "classify", "--alpha", "0", "--nu", "nan"),
    ("coulomb", "eigenvalue", "--nu", "1", "--alpha", "nan"),
    ("point", "classify", "--alpha=-inf"),
    ("point", "spectrum", "--alpha=-inf"),
    ("point", "spectrum", "--alpha=-1e200"),
    ("point", "spectrum", "--alpha=-1.7e308"),
    ("coulomb", "classify", "--nu", "1", "--alpha=-inf"),
    ("coulomb", "eigenvalue", "--nu", "1", "--alpha=-inf"),
    ("coulomb", "threshold", "--nu", "inf"),
    ("coulomb", "threshold", "--nu", "1e308"),
    ("interval", "classify", "--b", "1e308"),
    ("interval", "classify", "--b", "inf"),
    ("interval", "classify", "--b=-inf"),
    ("interval", "spectrum", "--t", "inf"),
    ("interval", "spectrum", "--t=-inf"),
    ("interval", "spectrum", "--t=-1e300"),
    ("interval", "spectrum", "--t", "12", "--cutoff", "1e20"),
    ("interval", "tq", "--terms", "0"),
    ("interval", "secular", "--min", "0", "--max", "inf"),
]

ARGVS = [(*q, *fmt) for q in _QUERIES for fmt in ((), ("--format", "records"))]
ARGVS += _DOMAIN_ERRORS


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "code": code, "out": out.getvalue(), "err": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return {tuple(g["argv"]): g for g in json.loads(GOLDEN.read_text())}


def test_golden_covers_argvs(golden):
    assert set(golden) == set(ARGVS)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_output_matches_golden(golden, argv):
    assert run(argv) == golden[argv]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(a) for a in ARGVS], indent=1) + "\n")
