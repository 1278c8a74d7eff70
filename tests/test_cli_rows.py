"""The CSV writer and the one outcome table behind each CLI grid.

`_write_rows` renders every line with one "%" template.  The oracle below
is the csv.writer path it replaced, copied verbatim; the two must write the
same bytes.  A dataset grid is evaluated by one core call (outcome_table,
or the half of it that the command reads), and its signal, sensitivity and
bound columns equal the library functions called one by one, bit for bit.
So is a calibration grid: one table feeds the sampler, the crb column of the
estimation rows and fig2's check.
"""

import csv
import io
import math
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzhomodyne import cli, interferometer, metrics, simulate
from mzhomodyne.metrics import crb, error_propagation_sensitivity, signal


def _csv_writer_rows(out, header, rows):
    """The writer that _write_rows replaced."""
    with (nullcontext(sys.stdout) if out is None
          else open(out, "w", encoding="utf-8", newline="")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([v if isinstance(v, str) else f"{float(v):.17g}"
                          for v in row] for row in rows)


def _written(writer, header, rows, to_file):
    """The bytes that writer puts in a file, or the text it prints."""
    if to_file:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            writer(str(path), header, rows)
            return path.read_bytes()
    buf = io.StringIO()
    with redirect_stdout(buf):
        writer(None, header, rows)
    return buf.getvalue()


_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
          2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308]
_NUMBERS = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
)
_ERRORS = st.sampled_from(["", "NonMonotoneBranch"])


@st.composite
def _tables(draw):
    """(header, rows): 2-6 columns, each all numbers or all error names."""
    kinds = draw(st.lists(st.sampled_from([_NUMBERS, _NUMBERS, _ERRORS]),
                          min_size=2, max_size=6))
    rows = draw(st.lists(st.tuples(*kinds), min_size=1, max_size=8))
    header = [f"c{i}" for i in range(len(kinds))]
    return header, rows


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_tables(), st.booleans())
def test_row_template_writes_the_csv_writer_bytes(table, to_file):
    header, rows = table
    assert (_written(cli._write_rows, header, rows, to_file)
            == _written(_csv_writer_rows, header, rows, to_file))


@pytest.mark.parametrize("field", ["Non,Monotone", 'say "no"', "a\rb", "a\nb"])
def test_row_template_rejects_a_field_csv_would_quote(tmp_path, field):
    path = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="quoting"):
        cli._write_rows(str(path), ["phi", "error"], [(0.5, ""), (1.0, field)])
    with pytest.raises(ValueError, match="quoting"):
        cli._write_rows(str(path), ["phi", field], [(0.5, 1.0)])
    assert not path.exists()


def test_row_template_rejects_a_lone_empty_field(tmp_path):
    # csv.writer quotes the one field of a one-column row when it is empty
    with pytest.raises(ValueError, match="quoting"):
        cli._write_rows(str(tmp_path / "rows.csv"), ["error"], [("",)])


def test_row_template_rejects_a_number_in_a_text_column(tmp_path):
    with pytest.raises(ValueError, match="non-string"):
        cli._write_rows(str(tmp_path / "rows.csv"), ["phi", "error"],
                        [(0.5, ""), (1.0, 2.0)])


# ---------------------------------------------------------------------------
# One outcome table per grid.


CORE = ("outcome_table", "outcome_probs", "outcome_derivs")


def _spy_on_core(monkeypatch, record):
    """Route every call of a core entry point (the whole table or either
    half of it), from any layer, through record(phis)."""
    for name in CORE:
        def counted(cfg, scheme, phis, core=getattr(interferometer, name)):
            record(phis)
            return core(cfg, scheme, phis)

        for module in (cli, metrics, simulate):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)


@pytest.fixture
def table_calls(monkeypatch):
    """The phase count of every core call."""
    calls = []
    _spy_on_core(monkeypatch, lambda phis: calls.append(len(phis)))
    return calls


@pytest.fixture
def table_phases(monkeypatch):
    """The phases of every core call, as lists of floats."""
    calls = []
    _spy_on_core(monkeypatch,
                 lambda phis: calls.append(np.asarray(phis, dtype=np.float64).tolist()))
    return calls


@pytest.mark.parametrize("command", ["probs", "signal"])
def test_grid_commands_evaluate_one_table(tmp_path, table_calls, command):
    assert cli.main([command, "--steps", "301", "--out", str(tmp_path / "out.csv")]) == 0
    assert table_calls == [301]


def test_reproduce_fig3_evaluates_each_grid_once(tmp_path, table_calls):
    assert cli.main(["reproduce", "fig3", "--out", str(tmp_path)]) == 0
    grids = Counter(n for n in table_calls if n > 1)
    # the signal grid serves three observables and the ratio check; the
    # dark point's branch search reads lattice chunks of its own
    assert grids[2001] == 1


@pytest.mark.parametrize("argv", [["simulate", "--out", "sim"], ["reproduce", "fig4"],
                                  ["reproduce", "fig2"]], ids=["simulate", "fig4", "fig2"])
def test_a_calibration_grid_is_evaluated_once(tmp_path, monkeypatch, table_phases, argv):
    # the grid the sampler draws on is read by one core call, whose rows also
    # give the estimation rows' crb column and fig2's calibration check
    grids, sample = [], cli._sample

    def recorded(phi_grid, *rest):
        grids.append(np.asarray(phi_grid, dtype=np.float64).tolist())
        return sample(phi_grid, *rest)

    monkeypatch.setattr(cli, "_sample", recorded)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    (grid,) = grids
    assert table_phases.count(grid) == 1


@st.composite
def _signal_runs(draw):
    """CLI flags of a drawn system: nbar 1..1e6, b > 2a, kf 0-4, and ones,
    alternating or drawn eigenvalues."""
    nbar = 10.0 ** draw(st.floats(0.0, 6.0))
    a = draw(st.floats(0.05, 1.0))
    b = 2.0 * a * (1.0 + draw(st.floats(1e-3, 3.0)))
    kf = draw(st.integers(0, 4))
    values = draw(st.one_of(
        st.sampled_from(["ones", "alternating"]),
        st.lists(st.floats(-10.0, 10.0), min_size=2 * kf + 1,
                 max_size=2 * kf + 1).map(lambda v: ",".join(map(repr, v)))))
    mu_minus = draw(st.floats(-10.0, 10.0))
    return [f"--nbar={nbar!r}", f"--a={a!r}", f"--b={b!r}", f"--kf={kf}",
            f"--eigenvalues={values}", f"--mu-minus={mu_minus!r}", "--steps=41"]


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(_signal_runs())
def test_signal_columns_equal_separate_library_calls(flags):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["signal"] + flags) == 0
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    cols = np.array(rows[1:], dtype=np.float64).T
    config, grid, cfg, scheme, obs = cli._build_config(
        cli._parser().parse_args(["signal"] + flags))
    assert np.array_equal(cols[0], grid)
    assert np.array_equal(cols[1], signal(cfg, scheme, obs, grid).mean)
    assert np.array_equal(cols[2], error_propagation_sensitivity(cfg, scheme, obs, grid))
    assert np.array_equal(cols[3], crb(cfg, scheme, grid))
