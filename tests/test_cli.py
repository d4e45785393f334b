"""Tests for the command-line experiment runner (repro.cli)."""

import hashlib
import json

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_resources_command(capsys):
    assert main(["resources", "--grid", "4", "4", "4"]) == 0
    out = capsys.readouterr().out
    assert "808" in out and "56" in out and "14.4x" in out


def test_scope_command(capsys):
    assert main(["scope"]) == 0
    out = capsys.readouterr().out
    assert "TBD" in out
    assert "partitioned" in out
    assert "mirroring" in out  # usability table


def test_msgrate_command(capsys):
    assert main(["msgrate", "--modes", "threads-original",
                 "threads-endpoints", "--cores", "1", "4",
                 "--messages", "24"]) == 0
    out = capsys.readouterr().out
    assert "threads-original" in out and "threads-endpoints" in out


def test_msgrate_rejects_bad_mode():
    with pytest.raises(SystemExit):
        main(["msgrate", "--modes", "bogus"])


#: Recorded on the commit before ``sweep msgrate`` became ``msgrate``
#: (its host wall-clock line, on stdout then, dropped): the pivot's title,
#: row and column order and number format, and the CSV's columns and row
#: order (mode-major, in the order given).
MSGRATE_ARGV = ["msgrate", "--modes", "everywhere", "threads-original",
                "threads-comms", "--cores", "1", "2", "4", "--messages", "8"]
MSGRATE_PIVOT = """\
== msgrate sweep: rate_Mmsgs ==
         cores      everywhere    threads-original    threads-comms
-------------------------------------------------------------------
             1            3.14                3.14             3.14
             2            6.27                3.98             3.98
             4            12.5                4.59             12.5
"""
MSGRATE_CSV = """\
mode,cores,rate_Mmsgs\r
everywhere,1,3.14\r
everywhere,2,6.27\r
everywhere,4,12.5\r
threads-original,1,3.14\r
threads-original,2,3.98\r
threads-original,4,4.59\r
threads-comms,1,3.14\r
threads-comms,2,3.98\r
threads-comms,4,12.5\r
"""


def test_msgrate_pivot_and_csv_are_byte_exact(tmp_path, capsys):
    path = tmp_path / "fig1a.csv"
    assert main(MSGRATE_ARGV + ["--csv", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out == MSGRATE_PIVOT + f"[csv written to {path}]\n"
    assert err.startswith("[9 points in ") and err.endswith(
        "s host wall-clock, jobs=1]\n")
    assert path.read_bytes() == MSGRATE_CSV.encode()


@pytest.mark.parametrize("asked, ran", [("1", 1), ("2", 2), ("8", 2)])
def test_msgrate_names_the_worker_count_that_ran(monkeypatch, capsys,
                                                 asked, ran):
    monkeypatch.setattr("repro.serve.service.usable_cpus", lambda: 2)
    assert main(["msgrate", "--modes", "everywhere", "--cores", "1", "2",
                 "--messages", "4", "--jobs", asked]) == 0
    assert capsys.readouterr().err.endswith(f", jobs={ran}]\n")


def test_profile_chrome_traces_keep_a_dotted_directory(tmp_path, capsys):
    """One trace per point: the point goes before the file's extension,
    never into a directory name that has a dot."""
    out_dir = tmp_path / "out.d"
    out_dir.mkdir()
    assert main(["msgrate", "--modes", "everywhere", "--cores", "1", "2",
                 "--messages", "4", "--chrome-trace",
                 str(out_dir / "trace")]) == 0
    assert "lockwait(us)" in capsys.readouterr().out
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "trace.everywhere.c1", "trace.everywhere.c2"]
    assert json.loads((out_dir / "trace.everywhere.c2").read_text())[
        "traceEvents"]


#: Each input ended in a Python traceback before ``main`` had one handler.
BAD_INPUTS = [
    (["submit", "/missing.yaml"], 2, "error: [Errno 2]"),
    (["check", "/missing.py"], 2, "error: [Errno 2]"),
    (["replay", "/missing.py", "--until", "1e-5"], 2, "error: [Errno 2]"),
    (["analyze", "/missing.py"], 2, "error: [Errno 2]"),
    (["msgrate", "--cores", "0"], 2, "error: argument --cores"),
    (["msgrate", "--messages", "0"], 2, "error: argument --messages"),
    (["msgrate", "--jobs", "0"], 2, "error: argument --jobs"),
    (["campaign", "run", "/missing", "--jobs", "-3"], 2,
     "error: argument --jobs"),
    (["scope", "--threads", "0", "3"], 2, "error: grid dimensions"),
    (["resources", "--grid", "0", "1", "1"], 2, "error: thread-grid"),
    (["campaign", "report", "/missing"], 2, "error: '/missing' has no"),
    (["stencil", "--plan", "drop=oops"], 2, "error: bad fault plan:"),
    (["jobs", "--state-dir", "/missing"], 1, "error: no running service"),
    (["jobs", "--socket", "/missing.sock"], 1,
     "error: service at /missing.sock unreachable"),
]


@pytest.mark.parametrize("argv, status, message", BAD_INPUTS,
                         ids=[" ".join(argv) for argv, _, _ in BAD_INPUTS])
def test_an_input_error_is_one_line_and_no_traceback(capsys, argv, status,
                                                     message):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag's value
        code = exc.code
    err = capsys.readouterr().err
    assert code == status
    assert message in err.splitlines()[-1] and "Traceback" not in err


def test_stencil_command(capsys):
    assert main(["stencil", "--mechanisms", "endpoints", "--threads",
                 "2", "2", "--patch", "4", "--iters", "2"]) == 0
    out = capsys.readouterr().out
    assert "endpoints" in out and "True" in out


def test_legion_command(capsys):
    assert main(["legion", "--threads", "4", "--messages", "6"]) == 0
    out = capsys.readouterr().out
    assert "communicators" in out


def test_vasp_command(capsys):
    assert main(["vasp", "--nodes", "2", "--threads", "4", "--elems",
                 "1024", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "funneled" in out and "KiB" in out


def test_device_command(capsys):
    assert main(["device", "--blocks", "4", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert "device-partitioned" in out


def test_graph_command(capsys):
    assert main(["graph", "--vertices", "60", "--iters", "2"]) == 0
    out = capsys.readouterr().out
    assert "conflicts" in out


def test_nwchem_command(capsys):
    assert main(["nwchem", "--threads", "4", "--tasks", "3"]) == 0
    out = capsys.readouterr().out
    assert "window-relaxed" in out


def test_circuit_command(capsys):
    assert main(["circuit", "--threads", "4", "--steps", "2",
                 "--wires", "4"]) == 0
    out = capsys.readouterr().out
    assert "time/step" in out


def test_stencil_3d_command(capsys):
    assert main(["stencil", "--points", "27", "--procs", "2", "2", "2",
                 "--threads", "2", "2", "2", "--patch", "3", "--iters",
                 "2", "--mechanisms", "endpoints"]) == 0
    out = capsys.readouterr().out
    assert "True" in out


def test_stencil_dimension_mismatch_errors(capsys):
    assert main(["stencil", "--points", "27", "--procs", "2", "2",
                 "--threads", "2", "2"]) == 2
    assert "3-D" in capsys.readouterr().err


# ------------------------------------------------------- byte-exact goldens
#
# Recorded on the commit before the app subcommands were folded into one
# table-driven ``_cmd_app`` (PR 16): titles, column order, widths, number
# formats and mechanism order are all part of the CLI's contract.

CLI_GOLDENS = {
    "stencil": (
        ["stencil", "--threads", "2", "2", "--patch", "4", "--iters", "2"],
        """\
== stencil halo exchange ==
     mechanism   wall(us)   halo(us)   resources   vcis   correct
-----------------------------------------------------------------
      original        6.1        6.1           1      1      True
          tags        4.9        4.8           1      5      True
 communicators        5.0        4.9          14     13      True
     endpoints        4.9        4.8           4      5      True
"""),
    "legion": (
        ["legion", "--nodes", "2", "--threads", "2", "--messages", "3"],
        """\
== event-runtime polling ==
     mechanism   rate(M/s)   cost/evt(ns)   probes/evt
------------------------------------------------------
      original        0.19           2554         29.2
 communicators        0.18           3427         40.7
     endpoints        0.19           2520         29.3
"""),
    "circuit": (
        ["circuit", "--nodes", "2", "--threads", "2", "--steps", "2",
         "--wires", "2"],
        """\
== Legion circuit proxy ==
     mechanism   time/step(us)
------------------------------
      original             4.4
 communicators             4.7
     endpoints             4.4
"""),
    "graph": (
        ["graph", "--nodes", "2", "--threads", "2", "--vertices", "40",
         "--iters", "2"],
        """\
== dynamic graph communication (Vite proxy) ==
     mechanism   exchange(us)   messages   conflicts
----------------------------------------------------
      original           11.6         16           0
          tags           10.8         16           0
 communicators           10.8         16           2
     endpoints           10.8         16           0
"""),
    "nwchem": (
        ["nwchem", "--nodes", "2", "--threads", "2", "--tasks", "2"],
        """\
== get-compute-update over RMA ==
      mechanism   wall(us)   channels   imbalance
-------------------------------------------------
         window       13.0          3        2.00
 window-relaxed       12.3          4        1.33
      endpoints       11.5          3        1.43
"""),
    "vasp": (
        ["vasp", "--nodes", "2", "--threads", "2", "--elems", "2048",
         "--repeats", "1"],
        """\
== multithreaded allreduce ==
    mechanism   t/allreduce(us)   result KiB/node
-------------------------------------------------
     funneled               9.5                16
     existing               7.4                16
    endpoints               9.1                32
  partitioned               7.4                16
"""),
    "device": (
        ["device", "--blocks", "2", "--steps", "2"],
        """\
== device-initiated communication (Lesson 20) ==
          mechanism   time/step(us)   kernel launches
-----------------------------------------------------
        host-driven           14.62                 2
 device-partitioned           11.28                 1
         device-mpi           18.72                 1
"""),
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_app_command_stdout_is_byte_exact(name, capsys):
    argv, expected = CLI_GOLDENS[name]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


#: sha-256 of the stdout of the two instrumented reports: every series a
#: profiled Fig 1(a) point records (metrics reach each layer through the
#: simulator), and the fault and transport tallies of a lossy stencil.
REPORT_PINS = {
    "msgrate-profile": (
        ["msgrate", "--profile", "--full", "--modes", "threads-original",
         "threads-endpoints", "--cores", "4", "8"],
        "b0c04e101f094b123ee7821523054342269ae89da260b2a7920320835b7f7900"),
    "stencil-plan": (
        ["stencil", "--plan", "drop=0.05,dup=0.02,corrupt=0.01",
         "--points", "5", "--threads", "2", "2"],
        "e91602f763cb96f53e5101e78a2b4c4aa3575164293b3caba5d8e54018396ef3"),
}


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_instrumented_report_stdout_is_pinned(name, capsys):
    argv, digest = REPORT_PINS[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
