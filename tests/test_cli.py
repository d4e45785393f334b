"""Tests for the command-line experiment runner (repro.cli)."""

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
