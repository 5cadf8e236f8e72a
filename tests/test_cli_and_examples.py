"""Smoke tests: the CLI subcommands and every example script run clean."""

import pathlib
import runpy
import sys
import zlib

import pytest

from repro.cli import build_parser, main

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_quickstart(capsys):
    assert main(["quickstart"]) == 0
    out = capsys.readouterr().out
    assert "bob consumed" in out


def test_cli_demo(capsys):
    assert main(["--seed", "3", "demo", "--nodes", "4",
                 "--duration", "20"]) == 0
    out = capsys.readouterr().out
    assert "success rate" in out


def test_cli_compare(capsys):
    assert main(["compare", "--systems", "tiamat,peers", "--nodes", "4",
                 "--duration", "20"]) == 0
    out = capsys.readouterr().out
    assert "tiamat" in out and "peers" in out


def test_cli_compare_rejects_unknown_system(capsys):
    assert main(["compare", "--systems", "nonsense"]) == 2


def test_cli_trace(capsys):
    assert main(["trace"]) == 0
    out = capsys.readouterr().out
    assert "query_reply" in out
    assert "claim_accept" in out


def test_cli_chaos(capsys):
    assert main(["--seed", "1", "chaos", "--items", "6"]) == 0
    out = capsys.readouterr().out
    assert "power cycle: crashes=1 restarts=1" in out
    assert "drops:" in out
    assert "reliability[client]" in out
    assert "rel_ack" in out  # the sublayer is visible in the trace


def test_cli_wal_inspect(tmp_path, capsys):
    from repro.tuples import Tuple
    from repro.tuples.serialization import encode_tuple_binary
    from repro.tuples.storage import WALBackend
    from repro.tuples.storage.wal import _HEADER

    base = str(tmp_path / "node")
    wal = WALBackend(base, compact_every=0)
    for i in (1, 2, 3):
        wal.record_out(i, Tuple("note", i), expires_at=50.0, at=0.1 * i)
    wal.compact(at=1.0)
    wal.record_out(4, Tuple("note", 4), expires_at=None, at=1.5)
    wal.record_remove(2, "consumed", at=2.0)
    with open(wal.wal_path, "ab") as f:
        f.write(b"\x07\x00\x00")              # a torn, half-written header
    assert main(["wal", "inspect", base]) == 0
    out = capsys.readouterr().out
    assert f"wal:  {base}.wal (" in out and " bytes, 2 records)" in out
    assert f"snap: {base}.snap (3 entries, taken at t=1.0)" in out
    assert "torn tail: 3 trailing bytes do not frame" in out
    assert "live entries after replay: 3" in out     # #1 and #3 snapped, #4
    assert "  out  #4 at t=1.5 exp=None tup=" in out
    assert "  rm   #2 at t=2.0 why=consumed" in out

    # A CRC-valid frame that is not a JSON record: refused, exit status 1.
    payload = encode_tuple_binary(Tuple("note", 1))
    with open(wal.snap_path, "wb") as f:
        f.write(_HEADER.pack(len(payload), zlib.crc32(payload)) + payload)
    assert main(["wal", "inspect", base]) == 1
    assert f"refused: {base}.snap: the frame at byte 0 " in capsys.readouterr().out


def test_cli_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# ---------------------------------------------------------------------------
# Examples (run as scripts; they must complete without exceptions)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("script", [
    "quickstart.py",
    "web_proxy_demo.py",
    "fractal_farm.py",
    "pervasive_campus.py",
    "threaded_workers.py",
    "persistence_powercycle.py",
    "service_discovery.py",
])
def test_example_runs_clean(script, capsys):
    path = EXAMPLES / script
    assert path.exists(), f"missing example {script}"
    saved_argv = sys.argv
    sys.argv = [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = saved_argv
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"
