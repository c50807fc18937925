"""Tests for unit conversions, geometry and the random channel generator."""

import dataclasses

import numpy as np
import pytest

from scma_d2d.channel import (
    ChannelRealization,
    ConfigError,
    ScenarioConfig,
    db_to_linear,
    dbm_to_watts,
    dump_channels_csv,
    format_config,
    parse_config,
    parse_config_text,
    path_loss_db,
    rayleigh_fading,
    rng_streams,
    sample_channels,
    sample_geometry,
    save_config,
    watts_to_dbm,
)


class TestUnitConversions:
    def test_dbm_reference_points(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)

    def test_noise_power_per_subcarrier(self):
        """-174 dBm/Hz over 180 kHz, recomputed from first principles."""
        expected = 10.0 ** ((-174.0 - 30.0) / 10.0) * 180e3
        cfg = ScenarioConfig()
        assert cfg.noise_power_w == pytest.approx(expected, rel=1e-12)
        assert cfg.noise_power_w == pytest.approx(7.166e-16, rel=1e-3)

    def test_round_trip(self):
        for dbm in (-40.0, 0.0, 17.3, 30.0):
            assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-12)


class TestPathLoss:
    def test_reference_kilometer(self):
        assert path_loss_db("cellular", 1000.0) == pytest.approx(128.1)
        assert path_loss_db("d2d", 1000.0) == pytest.approx(148.0)

    def test_cellular_at_100m(self):
        assert path_loss_db("cellular", 100.0) == pytest.approx(128.1 - 37.6)

    def test_strictly_increasing(self):
        d = np.linspace(1.0, 2000.0, 300)
        for kind in ("cellular", "d2d"):
            pl = np.array([path_loss_db(kind, x) for x in d])
            assert np.all(np.diff(pl) > 0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_loss_db("cellular", 0.0)
        with pytest.raises(ValueError):
            path_loss_db("d2d", -3.0)


class TestGeometry:
    def test_users_inside_cell(self):
        cfg = ScenarioConfig(seed=5)
        geo = sample_geometry(cfg, rng_streams(cfg.seed).geometry)
        assert np.all(np.linalg.norm(geo.cell_user_positions, axis=1) <= cfg.cell_radius_m)

    def test_pair_distances_in_range(self):
        cfg = ScenarioConfig(J_D=1, seed=9)
        for seed in range(20):
            geo = sample_geometry(cfg, rng_streams(seed).geometry)
            d = geo.pair_distances()
            assert np.all(d >= 1.0) and np.all(d <= 20.0)

    def test_different_seeds_differ(self):
        cfg = ScenarioConfig()
        a = sample_geometry(cfg, rng_streams(1).geometry)
        b = sample_geometry(cfg, rng_streams(2).geometry)
        assert not np.array_equal(a.cell_user_positions, b.cell_user_positions)


class UnitFading:
    """A stand-in generator whose normal draws are all 1, so every fade
    (1 + 1j) / sqrt(2) has unit power and the gains expose the path loss."""

    @staticmethod
    def normal(size=None):
        return np.ones(() if size is None else size)


class TestChannels:
    def test_unit_fading_exposes_path_loss(self):
        cfg = ScenarioConfig(seed=3)
        geo = sample_geometry(cfg, rng_streams(cfg.seed).geometry)
        ch = sample_channels(cfg, geo, UnitFading())
        d = np.linalg.norm(geo.cell_user_positions, axis=1)
        for j in range(cfg.J):
            expected = db_to_linear(-path_loss_db("cellular", d[j]))
            assert np.abs(ch.cell_to_bs[j]) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_link_model_assignment(self):
        """Base-station-terminated links take the cellular model; links into
        a device take the device model."""
        cfg = ScenarioConfig(J_D=2, seed=3)
        geo = sample_geometry(cfg, rng_streams(cfg.seed).geometry)
        ch = sample_channels(cfg, geo, UnitFading())
        for l in range(2):
            d_tx_bs = np.linalg.norm(geo.d2d_tx_positions[l])
            assert np.abs(ch.d2d_to_bs[l]) ** 2 == pytest.approx(
                db_to_linear(-path_loss_db("cellular", d_tx_bs)), rel=1e-12)
            d_pair = np.linalg.norm(geo.d2d_tx_positions[l] - geo.d2d_rx_positions[l])
            assert np.abs(ch.d2d_pair[l]) ** 2 == pytest.approx(
                db_to_linear(-path_loss_db("d2d", d_pair)), rel=1e-12)
            for j in range(cfg.J):
                d_cross = np.linalg.norm(geo.cell_user_positions[j]
                                         - geo.d2d_rx_positions[l])
                assert np.abs(ch.cell_to_d2d[j, l]) ** 2 == pytest.approx(
                    db_to_linear(-path_loss_db("d2d", d_cross)), rel=1e-12)

    def test_rayleigh_unit_power(self):
        """Sample mean of |g|^2 over 1e5 draws is 1 within 1%."""
        g = rayleigh_fading(np.random.default_rng(123), 100_000)
        assert 0.99 <= np.mean(np.abs(g) ** 2) <= 1.01

    def test_determinism(self):
        cfg = ScenarioConfig(J_D=2, seed=77)
        runs = []
        for _ in range(2):
            streams = rng_streams(cfg.seed)
            geo = sample_geometry(cfg, streams.geometry)
            runs.append(sample_channels(cfg, geo, streams.fading))
        assert np.array_equal(runs[0].cell_to_bs, runs[1].cell_to_bs)
        assert np.array_equal(runs[0].cell_to_d2d, runs[1].cell_to_d2d)

    def test_fewer_pairs_is_a_prefix(self):
        """With the same seed, the single-pair realization matches the
        first pair of the two-pair realization."""
        chs = {}
        for jd in (1, 2):
            cfg = ScenarioConfig(J_D=jd, seed=11)
            streams = rng_streams(cfg.seed)
            geo = sample_geometry(cfg, streams.geometry)
            chs[jd] = (geo, sample_channels(cfg, geo, streams.fading))
        geo1, ch1 = chs[1]
        geo2, ch2 = chs[2]
        assert np.array_equal(geo1.cell_user_positions, geo2.cell_user_positions)
        assert np.array_equal(geo1.d2d_tx_positions[0], geo2.d2d_tx_positions[0])
        assert np.array_equal(ch1.cell_to_bs, ch2.cell_to_bs)
        assert ch1.d2d_to_bs[0] == ch2.d2d_to_bs[0]
        assert ch1.d2d_pair[0] == ch2.d2d_pair[0]
        assert np.array_equal(ch1.cell_to_d2d[:, 0], ch2.cell_to_d2d[:, 0])

    def test_csv_dump(self, tmp_path):
        cfg = ScenarioConfig(J_D=1, seed=4)
        streams = rng_streams(cfg.seed)
        geo = sample_geometry(cfg, streams.geometry)
        ch = sample_channels(cfg, geo, streams.fading)
        out = tmp_path / "links.csv"
        dump_channels_csv(ch, out)
        lines = out.read_text().strip().splitlines()
        # header + J*K + 3*J_D*... : J*K cell rows, J_D d2d_to_bs, J_D pair, J*J_D cross, noise
        assert len(lines) == 1 + 24 + 1 + 1 + 6 + 1
        assert lines[0] == "type,index1,index2,real,imag"
        first = lines[1].split(",")
        assert first[0] == "cell_to_bs"
        assert complex(float(first[3]), float(first[4])) == ch.cell_to_bs[0, 0]


class TestScenarioRanges:
    @pytest.mark.parametrize("field, value", [
        ("noise_dbm_per_hz", 1e6), ("noise_dbm_per_hz", -1e6),
        ("cellular_power_cap_dbm", 1e6), ("cellular_power_cap_dbm", -1e6),
        ("d2d_power_cap_dbm", 1e6), ("d2d_power_cap_dbm", -1e6),
        ("cellular_sinr_floor_db", 1e6), ("cellular_sinr_floor_db", -1e6),
        ("d2d_sinr_floor_db", float("nan")), ("d2d_sinr_floor_db", float("inf")),
        ("bandwidth_hz", float("inf")), ("cell_radius_m", float("inf")),
        ("d2d_distance_range_m", (1.0, float("inf"))),
    ])
    def test_out_of_range_value_names_field(self, field, value):
        """A dB or dBm value whose linear value overflows, underflows to
        zero or is not finite is a ConfigError naming the field, never an
        OverflowError."""
        cfg = dataclasses.replace(ScenarioConfig(), **{field: value})
        with pytest.raises(ConfigError, match=field):
            cfg.validate()


class TestConfigFiles:
    def test_defaults_applied(self, tmp_path):
        p = tmp_path / "one.cfg"
        p.write_text("J_D = 2\n")
        cfg = parse_config(p)
        assert cfg.J_D == 2
        assert (cfg.J, cfg.K, cfg.N) == (6, 4, 2)
        assert cfg.cellular_power_cap_dbm == 30.0
        assert cfg.d2d_sinr_floor_db == 10.0

    def test_range_error_names_field(self):
        with pytest.raises(ConfigError, match="K"):
            parse_config_text("K = 0\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("J = 6\nK : 4\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("J = six\n")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config_text("mystery = 1\n")

    def test_repeated_field_names_both_lines(self):
        with pytest.raises(ConfigError, match="line 3: J_D already given on line 1"):
            parse_config_text("J_D = 1\nK = 4\nJ_D = 3\n")

    def test_round_trip(self, tmp_path):
        cfg = ScenarioConfig(J_D=2, seed=42, cellular_power_cap_dbm=28.0,
                             d2d_distance_range_m=(2.0, 15.0),
                             report_bits_per_second=True)
        p = tmp_path / "rt.cfg"
        save_config(cfg, p)
        assert parse_config(p) == cfg

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# scenario\n\nJ = 6  # users\n")
        assert cfg.J == 6

    def test_validate_rejects_too_many_pairs(self):
        with pytest.raises(ConfigError, match="J_D"):
            ScenarioConfig(J_D=5).validate()
