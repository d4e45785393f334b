"""The opcode-census gate (``benchmarks/opcount.py --check``): its table
parser and its comparator on synthetic tables, with no tracing, plus the
collector state the census hands back."""

import gc
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "opcount", ROOT / "benchmarks" / "opcount.py")
opcount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(opcount)

TABLE = """\
Executed opcodes per simulated message: Fig 1(a) grid (quick: 5 modes x \
cores [1, 4, 16], 8 msgs/core, 840 messages), CPython 3.11.7

module                                unchecked    checked
all                                        3971       5161
repro/sim/core.py                          1410       1435
repro/check/checker.py                        0        596
other (stdlib, numpy)                       146        149

repro/check/ per message, by mode (checked run)

function                                    everywhere
repro/check/ (all)                                 857
"""


def test_parse_table_reads_the_gated_rows_only():
    table = opcount.parse_table(TABLE)
    assert table["size"] == "quick"
    assert table["python"] == "CPython 3.11.7"
    assert table["rows"] == {
        "all": [3971.0, 5161.0],
        "repro/sim/core.py": [1410.0, 1435.0],
        "repro/check/checker.py": [0.0, 596.0],
        "other (stdlib, numpy)": [146.0, 149.0],
    }


def test_parse_table_round_trips_render_layout():
    rows = {"all": [10.4, 20.0], "repro/sim/core.py": [6.0, 7.0]}
    text = ("Executed opcodes per simulated message: Fig 1(a) grid (full: "
            "...), CPython 3.12.1\n\n"
            f"{'module':<36} {'unchecked':>10} {'checked':>10}\n"
            + "".join(f"{name:<36} {a:>10.0f} {b:>10.0f}\n"
                      for name, (a, b) in rows.items()))
    table = opcount.parse_table(text)
    assert table["size"] == "full" and table["python"] == "CPython 3.12.1"
    assert table["rows"] == {"all": [10.0, 20.0],
                             "repro/sim/core.py": [6.0, 7.0]}


def test_compare_passes_equal_and_falling_rows():
    committed = opcount.parse_table(TABLE)["rows"]
    assert opcount.compare(committed, committed) == []
    fresh = {name: [a * 0.9, b * 0.9] for name, (a, b) in committed.items()}
    assert opcount.compare(committed, fresh) == []
    # A module gone from the fresh census reads 0: a fall, not a rise.
    del fresh["other (stdlib, numpy)"]
    assert opcount.compare(committed, fresh) == []


def test_compare_flags_a_module_row_risen_3_percent_in_either_column():
    committed = opcount.parse_table(TABLE)["rows"]
    fresh = {name: list(values) for name, values in committed.items()}
    fresh["repro/sim/core.py"][1] = 1435 * 1.03
    assert opcount.compare(committed, fresh) == [
        "repro/sim/core.py (checked): 1435 -> 1478 (+3.0%)"]
    # The same table lowered 3 % is what a rise looks like from above.
    lowered = {name: list(values) for name, values in committed.items()}
    lowered["repro/sim/core.py"][0] = round(1410 * 0.97)
    assert opcount.compare(lowered, committed) == [
        "repro/sim/core.py (unchecked): 1368 -> 1410 (+3.1%)"]


def test_compare_tolerates_2_percent_and_compares_whole_opcodes():
    committed = {"all": [1000.0, 2000.0]}
    assert opcount.compare(committed, {"all": [1020.0, 2040.4]}) == []
    assert opcount.compare(committed, {"all": [1020.6, 2000.0]}) == [
        "all (unchecked): 1000 -> 1021 (+2.1%)"]
    # A row at zero may not start costing anything.
    assert opcount.compare({"m": [0.0, 5.0]}, {"m": [1.0, 5.0]}) == [
        "m (unchecked): 0 -> 1"]


HOST_OBJECT_TABLES = TABLE + """
Generators started per simulated message, by function (unchecked grid by \
mode, and the grid)

generator                                         everywhere              grid
(all)                                                   4.29              4.51
repro/mpi/comm.py:Communicator.Isend                    1.00              1.00

Host objects alive at the busiest step of the 64-core everywhere point, by \
type (512 messages; step 2432 of 3841, sampled every 32 steps)

type                                                    live
(all)                                                  12876
repro.sim.core.Event                                    1086
"""


def test_parse_table_reads_every_gated_table():
    table = opcount.parse_table(HOST_OBJECT_TABLES)
    assert table["rows"] == opcount.parse_table(TABLE)["rows"]
    assert sorted(table["tables"]) == ["generator", "module", "type"]
    generators = table["tables"]["generator"]
    assert generators["columns"] == ["everywhere", "grid"]
    assert generators["rows"] == {
        "(all)": [4.29, 4.51],
        "repro/mpi/comm.py:Communicator.Isend": [1.0, 1.0]}
    assert table["tables"]["type"]["rows"] == {
        "(all)": [12876.0], "repro.sim.core.Event": [1086.0]}


def test_compare_holds_a_per_message_count_to_its_printed_decimals():
    committed = {"(all)": [4.29, 4.51]}
    columns = ("everywhere", "grid")
    assert opcount.compare(committed, {"(all)": [4.3749, 4.51]},
                           columns=columns, digits=2) == []
    assert opcount.compare(committed, {"(all)": [4.29, 4.6051]},
                           columns=columns, digits=2) == [
        "(all) (grid): 4.51 -> 4.61 (+2.2%)"]


def test_check_refuses_a_table_from_another_minor_version(tmp_path, capsys):
    path = tmp_path / "opcount_quick.txt"
    path.write_text(TABLE.replace("CPython 3.11.7", "CPython 3.99.0"))
    assert opcount.check(str(path), top=12) == 2
    out = capsys.readouterr().out
    assert "CPython 3.99.0" in out and opcount.PYTHON in out


@pytest.mark.parametrize("enabled", [True, False])
def test_count_opcodes_restores_the_callers_collector_state(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        result, counts = opcount.count_opcodes(lambda: 7)
        assert result == 7 and sum(counts.values()) > 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


SERVE_TABLE = """\
Executed opcodes per warm POST /jobs: served_warm grid (serve: 35 points, \
5 modes x cores [1, 2, 4, 8, 16, 32, 64], 4 msgs/core, 20 POSTs), \
CPython 3.11.7

module                                 per_POST
all                                        1219
repro/serve/http.py                         519
other (stdlib, numpy)                       307

by function

function                                                       per_POST
repro/serve/http.py:_parse_head                                     207
"""


def test_a_serve_table_is_read_and_compared_in_its_one_column():
    table = opcount.parse_table(SERVE_TABLE)
    assert (table["size"], table["columns"]) == ("serve", ["per_POST"])
    assert table["rows"] == {"all": [1219.0], "repro/serve/http.py": [519.0],
                             "other (stdlib, numpy)": [307.0]}
    fresh = dict(table["rows"], **{"repro/serve/http.py": [530.0]})
    assert opcount.compare(table["rows"], fresh,
                           columns=tuple(table["columns"])) == [
        "repro/serve/http.py (per_POST): 519 -> 530 (+2.1%)"]


SERVE_TABLE_TWO_SIDES = """\
Executed opcodes per warm POST /jobs: served_warm grid (serve: 35 points, \
5 modes x cores [1, 2, 4, 8, 16, 32, 64], 4 msgs/core, 20 POSTs), \
CPython 3.11.7

module                                  service     client
all                                         675        266
repro/serve/http.py                         274          0
repro/serve/client.py                         0        191
other (stdlib, numpy)                        50         63

by function (service)

function                                                       per_POST
repro/serve/http.py:_Connection._serve                              161
"""


def test_a_serve_table_gates_the_service_and_the_client_columns():
    table = opcount.parse_table(SERVE_TABLE_TWO_SIDES)
    assert table["columns"] == list(opcount.SERVE_COLUMNS)
    assert table["rows"]["repro/serve/client.py"] == [0.0, 191.0]
    fresh = dict(table["rows"], **{"repro/serve/client.py": [0.0, 196.0],
                                   "repro/serve/http.py": [280.0, 0.0]})
    assert opcount.compare(table["rows"], fresh,
                           columns=tuple(table["columns"])) == [
        "repro/serve/http.py (service): 274 -> 280 (+2.2%)",
        "repro/serve/client.py (client): 191 -> 196 (+2.6%)"]


def test_serve_rows_put_each_module_in_both_columns():
    """A module one side never runs reads 0 in that side's column; the
    rows are per POST, ``all`` first."""
    from collections import Counter

    from repro.serve.client import ServeClient
    from repro.serve.http import _Connection
    service = Counter({_Connection._serve.__code__: 40 * opcount.SERVE_POSTS})
    client = Counter({ServeClient._exchange.__code__: 10 * opcount.SERVE_POSTS,
                      ServeClient.request.__code__: 20 * opcount.SERVE_POSTS})
    assert opcount.serve_rows((service, client)) == {
        "all": [40.0, 30.0], "repro/serve/http.py": [40.0, 0.0],
        "repro/serve/client.py": [0.0, 30.0]}
