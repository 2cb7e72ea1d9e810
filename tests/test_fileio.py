from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risradar.arrays import RisConfig
from risradar.experiments import SweepPoint
from risradar.fileio import (
    LOSS_TABLE,
    MULTINOTCH_SUMMARY_HEADER,
    _read_table,
    read_config_file,
    read_keyvals,
    read_multinotch_summary,
    read_pattern_table,
    read_peak_records,
    read_sweep_table,
    write_config_file,
    write_keyvals,
    write_loss_history,
    write_multinotch_summary,
    write_pattern_table,
    write_peak_records,
    write_sweep_table,
)


def test_pattern_table_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    angles = np.linspace(0.0, 180.0, 41)
    power = rng.normal(size=41) * 37.123456789
    path = write_pattern_table(tmp_path / "p.csv", angles, power)
    back_angles, back_power = read_pattern_table(path)
    np.testing.assert_array_equal(back_angles, angles)
    np.testing.assert_array_equal(back_power, power)


def test_pattern_table_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError):
        read_pattern_table(path)


def test_pattern_table_rejects_mismatched_columns(tmp_path):
    with pytest.raises(ValueError):
        write_pattern_table(tmp_path / "p.csv", [1.0, 2.0], [0.0])


def test_config_file_is_read_once(tmp_path, monkeypatch):
    path = write_config_file(tmp_path / "c.txt", RisConfig([1.0, 0.5j]), theta_t=0.5, seed=2)
    reads = []
    real_read_text = Path.read_text

    def record(self, *args, **kwargs):
        reads.append(self)
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", record)
    config, meta = read_config_file(path)
    assert reads == [path]
    assert config.num_elements == 2 and meta["seed"] == 2


def test_config_file_round_trip_static(tmp_path):
    rng = np.random.default_rng(1)
    config = RisConfig(rng.normal(size=6) + 1j * rng.normal(size=6))
    path = write_config_file(tmp_path / "c.txt", config, theta_t=1.2566370614359172, seed=3)
    back, meta = read_config_file(path)
    np.testing.assert_array_equal(back.coefficients, config.coefficients)
    assert meta["theta_t"] == 1.2566370614359172
    assert meta["seed"] == 3
    assert meta["elements"] == "6" or int(meta["elements"]) == 6


def test_config_file_bytes_are_pinned(tmp_path):
    config = RisConfig([1.0, 0.5 - 0.25j, -1e-300 + 3j])
    path = write_config_file(tmp_path / "c.txt", config, theta_t=0.75, seed=2)
    assert path.read_bytes() == (
        b"# elements=3 slots=1 theta_t=0.75 seed=2\n"
        b"re,im\n"
        b"1.0,0.0\n"
        b"0.5,-0.25\n"
        b"-1e-300,3.0\n"
    )


def test_config_file_needs_no_angle_or_seed(tmp_path):
    # the writer always records both, but a file may come from elsewhere
    path = tmp_path / "c.txt"
    path.write_text("# elements=2 slots=1\nre,im\n1.0,0.0\n0.0,1.0\n")
    config, meta = read_config_file(path)
    np.testing.assert_array_equal(config.coefficients, [1.0, 1j])
    assert "theta_t" not in meta and "seed" not in meta


@pytest.mark.parametrize("keywords", [{"seed": 1}, {"theta_t": 0.5}])
def test_config_file_writer_requires_angle_and_seed(keywords, tmp_path):
    path = tmp_path / "c.txt"
    with pytest.raises(TypeError):
        write_config_file(path, RisConfig([1.0, 0.5j]), **keywords)
    assert not path.exists()


def test_config_file_rejects_more_than_one_slot(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# elements=2 slots=2\nre0,im0,re1,im1\n1.0,0.0,1.0,0.0\n0.0,1.0,0.0,1.0\n")
    with pytest.raises(ValueError, match="slots=1"):
        read_config_file(path)


@pytest.mark.parametrize(
    "header, key",
    [
        ("# slots=1 theta_t=0.5", "elements"),
        ("# elements=two slots=1", "elements"),
        ("# elements=2.0 slots=1", "elements"),
        ("# elements=2 slots=1 theta_t=wide", "theta_t"),
        ("# elements=2 slots=1 seed=1.5", "seed"),
        ("# elements=2 slots=1 seed=", "seed"),
    ],
)
def test_config_file_bad_header_names_path_and_key(tmp_path, header, key):
    path = tmp_path / "c.txt"
    path.write_text(f"{header}\nre,im\n1.0,0.0\n0.0,1.0\n")
    with pytest.raises(ValueError) as excinfo:
        read_config_file(path)
    assert type(excinfo.value) is ValueError
    assert str(path) in str(excinfo.value)
    assert f"header key {key} " in str(excinfo.value)


def test_config_file_rejects_a_repeated_header_key(tmp_path):
    # keeping the last value read this file as a 2-element configuration
    path = tmp_path / "c.txt"
    path.write_text("# elements=3 slots=1 elements=2 theta_t=1.0 seed=0\nre,im\n1.0,0.0\n0.0,1.0\n")
    with pytest.raises(ValueError, match="repeated key elements") as excinfo:
        read_config_file(path)
    assert str(path) in str(excinfo.value)


def test_peak_records_round_trip(tmp_path):
    records = [(12, 30.0, 0.7853981633974483, 0.75), (13, 35.0, 0.79, 0.0)]
    path = write_peak_records(tmp_path / "r.csv", records)
    assert read_peak_records(path) == records
    assert path.read_text().splitlines()[0] == "seed,power_ratio_db,angle_rad,range_err_m"


def test_sweep_table_round_trip(tmp_path):
    points = [
        SweepPoint(0.0, -0.01, 0.123456789012345, 0.01, 50),
        SweepPoint(5.0, 0.0, 0.0, 0.0, 50),
    ]
    path = write_sweep_table(tmp_path / "s.csv", points, comments=("range_bin_m=0.75",))
    rows = read_sweep_table(path)
    assert rows == [(p.power_ratio_db, p.angle_offset_rad, p.mean_range_error_m, p.std_range_error_m, p.trials) for p in points]
    assert path.read_text().startswith("# range_bin_m=0.75\n")


def test_loss_history_format(tmp_path):
    path = write_loss_history(tmp_path / "l.csv", [0.5, 0.25])
    assert path.read_text() == "iteration,loss\n0,0.5\n1,0.25\n"


def test_keyvals_round_trip(tmp_path):
    pairs = {"combined_argmax_deg": 72.0, "grid_points": 721, "subcarrier_mode": "carrier"}
    path = write_keyvals(tmp_path / "k.txt", pairs)
    back = read_keyvals(path)
    assert float(back["combined_argmax_deg"]) == 72.0
    assert int(back["grid_points"]) == 721
    assert back["subcarrier_mode"] == "carrier"


def test_writes_are_byte_stable(tmp_path):
    rng = np.random.default_rng(4)
    angles = np.linspace(0.0, 180.0, 11)
    power = rng.normal(size=11)
    a = write_pattern_table(tmp_path / "a.csv", angles, power)
    b = write_pattern_table(tmp_path / "b.csv", angles, power)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# the one table path: every writer and reader shares _write_table/_read_table

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
INTS = st.integers(0, 2**32 - 1)


def _pattern(path, rows):
    write_pattern_table(path, [a for a, _ in rows], [p for _, p in rows])
    return rows, list(zip(*(column.tolist() for column in read_pattern_table(path))))


def _records(path, rows):
    write_peak_records(path, rows)
    return rows, read_peak_records(path)


def _sweep(path, rows):
    write_sweep_table(path, [SweepPoint(*row) for row in rows], comments=("range_bin_m=0.75",))
    return rows, read_sweep_table(path)


def _loss(path, rows):
    losses = [loss for (loss,) in rows]
    write_loss_history(path, losses)
    return list(enumerate(losses)), list(zip(*_read_table(path, LOSS_TABLE)))


def _config(path, rows):
    write_config_file(path, RisConfig([complex(re, im) for re, im in rows]), theta_t=0.5, seed=1)
    back, _ = read_config_file(path)
    return rows, [(c.real, c.imag) for c in back.coefficients.tolist()]


def _summary(path, rows):
    write_multinotch_summary(path, rows, comments=("num_notches=4",))
    return rows, read_multinotch_summary(path)


ROUND_TRIPS = {
    "pattern": (_pattern, (float, float), 0),
    "records": (_records, (int, float, float, float), 0),
    "sweep": (_sweep, (float, float, float, float, int), 0),
    "loss": (_loss, (float,), 0),
    "config": (_config, (float, float), 1),
    "multinotch-summary": (_summary, (float,) * 5, 0),
}


def _exact(rows):
    """Rows as reprs, so -0.0 and 0.0 differ and an int never equals a float."""
    return [[repr(v) for v in row] for row in rows]


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_writer_round_trips_exactly(name, data, tmp_path_factory):
    round_trip, kinds, min_rows = ROUND_TRIPS[name]
    row = st.tuples(*(INTS if kind is int else FLOATS for kind in kinds))
    rows = data.draw(st.lists(row, min_size=min_rows, max_size=12))
    written, read = round_trip(tmp_path_factory.mktemp(name) / "table.csv", rows)
    assert _exact(read) == _exact(written)


def _valid_tables(tmp_path):
    """A valid file for every table reader, with its reader."""
    return {
        "pattern": (write_pattern_table(tmp_path / "p.csv", [0.0, 1.0], [-3.0, 0.0]), read_pattern_table),
        "config": (write_config_file(tmp_path / "c.txt", RisConfig([1.0, 0.5j]), theta_t=0.5, seed=1), read_config_file),
        "records": (write_peak_records(tmp_path / "r.csv", [(1, 0.0, 0.5, 0.75), (2, 5.0, 0.5, 0.0)]), read_peak_records),
        "sweep": (write_sweep_table(tmp_path / "s.csv", [SweepPoint(0.0, 0.0, 0.1, 0.0, 2)] * 2), read_sweep_table),
        "multinotch-summary": (
            write_multinotch_summary(tmp_path / "m.csv", [(0.0, 0.1, 0.7, 0.8, 300.0), (0.01, 0.2, 0.6, 0.8, 40.0)]),
            read_multinotch_summary,
        ),
    }


@pytest.mark.parametrize("extra", [1, -1], ids=["one-too-many", "one-too-few"])
@pytest.mark.parametrize("name", ["pattern", "config", "records", "sweep", "multinotch-summary"])
def test_row_with_wrong_value_count_names_the_path(name, extra, tmp_path):
    path, read = _valid_tables(tmp_path)[name]
    lines = path.read_text().splitlines()
    values = lines[-1].split(",")
    lines[-1] = ",".join(values + ["1.0"] if extra > 0 else values[:-1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as excinfo:
        read(path)
    assert str(excinfo.value).startswith(f"{path}: row 2 has {len(values) + extra} values, expected {len(values)}")


def test_multinotch_summary_bytes_are_pinned(tmp_path):
    rows = [(0.0, 0.0027925268031909274, 0.784, 0.7867925268031909, 300.0), (1e-3, -0.0, 5e-324, 1.0, 61.25)]
    path = write_multinotch_summary(tmp_path / "m.csv", rows, comments=("num_notches=4", "center_rad=0.75"))
    assert MULTINOTCH_SUMMARY_HEADER == (
        "epsilon_rad,suppression_bandwidth_rad,band_low_rad,band_high_rad,min_inband_suppression_db"
    )
    assert path.read_bytes() == (
        b"# num_notches=4\n"
        b"# center_rad=0.75\n"
        b"epsilon_rad,suppression_bandwidth_rad,band_low_rad,band_high_rad,min_inband_suppression_db\n"
        b"0.0,0.0027925268031909274,0.784,0.7867925268031909,300.0\n"
        b"0.001,-0.0,5e-324,1.0,61.25\n"
    )
