import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from ltbf.linalg import DimensionMismatchError, NotFiniteError, fro_norm
from ltbf.scenario import (
    ChecksumError,
    ConfigError,
    DegenerateGeometryError,
    FileFormatError,
    MalformedHeaderError,
    ScenarioConfig,
    SystemMatrix,
    UserStats,
    VersionError,
    assemble_q,
    generate_scenario,
    load_matrix,
    load_scenario,
    read_config_file,
    save_matrix,
    save_scenario,
    _PANEL,
    _add_checked,
    steering_vector,
)


def small_config(**overrides):
    base = dict(side=4, n_ue=2, n_streams=1, paths_per_user=2,
                snr_db_low=0.0, snr_db_high=10.0, subcarriers=16, seed=421)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfig:
    def test_defaults_describe_the_benchmark_array(self):
        cfg = ScenarioConfig()
        assert cfg.side == 16 and cfg.n_antennas == 256
        assert cfg.n_ue == 4 and cfg.n_streams == 1
        assert (cfg.snr_db_low, cfg.snr_db_high) == (-6.0, 14.0)
        assert cfg.subcarriers == 256
        cfg.validate()

    @pytest.mark.parametrize("overrides", [
        dict(side=0),
        dict(n_ue=0),
        dict(n_streams=0),
        dict(paths_per_user=0),
        dict(subcarriers=0),
        dict(n_streams=4, paths_per_user=8, subcarriers=16),
        dict(snr_db_low=10.0, snr_db_high=0.0),
        dict(snr_db_low=0.0, snr_db_high=np.inf),
        dict(noise_psd=0.0),
        dict(noise_psd=-1.0),
        dict(seed=-1),
        # past what the file header stores: counts as u32, the seed as u64
        dict(side=2 ** 32),
        dict(n_ue=2 ** 32),
        dict(subcarriers=2 ** 32),
        dict(seed=2 ** 64),
        # a linear SNR target of 10^310 overflows a float
        dict(snr_db_low=0.0, snr_db_high=3100.0),
        # N = side^2 past what a matrix file's u32 shape stores
        dict(side=2 ** 16),
    ])
    def test_validation_rejects(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides).validate()

    def test_validation_accepts_the_header_limits(self):
        cfg = small_config(side=2 ** 16 - 1, n_ue=2 ** 32 - 1,
                           subcarriers=2 ** 32 - 1, seed=2 ** 64 - 1,
                           snr_db_low=-4000.0, snr_db_high=3082.0)
        assert cfg.validate() is cfg


class TestSteering:
    def test_unit_modulus_and_norm(self):
        a = steering_vector(4, 0.7, -0.3)
        assert a.shape == (16,)
        assert np.max(np.abs(np.abs(a) - 1.0)) <= 1e-14
        assert abs(np.vdot(a, a).real - 16.0) <= 1e-12

    def test_single_antenna(self):
        assert np.array_equal(steering_vector(1, 1.0, 0.5), np.ones(1, dtype=complex))

    def test_broadside_is_flat(self):
        a = steering_vector(3, 0.0, 0.0)
        assert np.max(np.abs(a - 1.0)) <= 1e-14


class TestGeneration:
    def test_covariance_invariants(self):
        stats, _ = generate_scenario(small_config())
        n = 16
        for st in stats:
            cov = st.covariance
            assert abs(np.real(np.trace(cov)) - n) <= 1e-9 * n
            assert fro_norm(cov - cov.conj().T) == 0.0
            assert np.linalg.eigvalsh(cov).min() >= -1e-10
            assert st.alpha > 0.0

    def test_single_path_covariance_is_rank_one(self):
        cfg = small_config(n_ue=1, paths_per_user=1)
        stats, channels = generate_scenario(cfg)
        vals = np.linalg.eigvalsh(stats[0].covariance)
        assert abs(vals[-1] - 16.0) <= 1e-9
        assert np.max(np.abs(vals[:-1])) <= 1e-10
        # the covariance is exactly the steering outer product
        ch = channels[0]
        a = steering_vector(4, ch.azimuths[0, 0], ch.elevations[0, 0])
        assert fro_norm(stats[0].covariance - np.outer(a, a.conj())) <= 1e-9

    def test_subcarrier_average_reproduces_covariance(self):
        cfg = small_config(subcarriers=64)
        stats, channels = generate_scenario(cfg)
        for st, ch in zip(stats, channels):
            acc = np.zeros((16, 16), dtype=np.complex128)
            for k in range(cfg.subcarriers):
                hk = ch.h[k]
                acc += hk @ hk.conj().T
            acc /= cfg.subcarriers
            assert fro_norm(acc - cfg.n_streams * st.covariance) \
                <= 1e-9 * fro_norm(st.covariance)

    def test_alpha_energy_relation(self):
        cfg = small_config(noise_psd=2.5)
        stats, _ = generate_scenario(cfg)
        for st in stats:
            assert abs(st.symbol_energy - st.alpha * 2.5 * cfg.n_streams) <= 1e-15

    def test_snr_targets_uniform_in_db(self):
        cfg = small_config(n_ue=3, snr_db_low=0.0, snr_db_high=10.0)
        stats, _ = generate_scenario(cfg)
        targets_db = [10.0 * np.log10(st.alpha * 16) for st in stats]
        assert np.allclose(targets_db, [0.0, 5.0, 10.0], atol=1e-9)

    def test_single_user_takes_midpoint(self):
        cfg = small_config(n_ue=1, snr_db_low=0.0, snr_db_high=10.0)
        stats, _ = generate_scenario(cfg)
        assert abs(10.0 * np.log10(stats[0].alpha * 16) - 5.0) <= 1e-9

    def test_bitwise_deterministic(self):
        s1, c1 = generate_scenario(small_config())
        s2, c2 = generate_scenario(small_config())
        for a, b in zip(s1, s2):
            assert np.array_equal(a.covariance, b.covariance)
        for a, b in zip(c1, c2):
            assert np.array_equal(a.h, b.h)
            assert np.array_equal(a.taps, b.taps)

    def test_user_draws_independent_of_user_count(self):
        two, _ = generate_scenario(small_config(n_ue=2))
        four, _ = generate_scenario(small_config(n_ue=4))
        # geometry comes from per-user substreams, so shared users agree;
        # only the SNR placement changes with the user count
        assert np.array_equal(two[0].covariance, four[0].covariance)
        assert two[1].alpha != four[1].alpha

    def test_colinear_geometry_raises_after_retries(self):
        cfg = ScenarioConfig(side=1, n_ue=1, n_streams=1, paths_per_user=2,
                             snr_db_low=0.0, snr_db_high=0.0, subcarriers=8,
                             seed=5)
        with pytest.raises(DegenerateGeometryError):
            generate_scenario(cfg)

    def test_single_antenna_single_path_is_fine(self):
        cfg = ScenarioConfig(side=1, n_ue=1, n_streams=1, paths_per_user=1,
                             snr_db_low=0.0, snr_db_high=0.0, subcarriers=8,
                             seed=5)
        stats, channels = generate_scenario(cfg)
        assert stats[0].covariance.shape == (1, 1)
        assert channels[0].h.shape == (8, 1, 1)


class TestAssembleQ:
    def test_empty_stats_rejected(self):
        with pytest.raises(ValueError):
            assemble_q([])

    def test_rank_one_update_spectrum(self):
        a = steering_vector(2, 0.4, 0.2)
        cov = np.outer(a, a.conj())
        stats = [UserStats(covariance=cov, alpha=1.0, symbol_energy=1.0)]
        system = assemble_q(stats)
        vals = np.linalg.eigvalsh(system.matrix)
        assert abs(vals[-1] - 5.0) <= 1e-9
        assert np.max(np.abs(vals[:-1] - 1.0)) <= 1e-9

    def test_eigenvalues_bounded_below_by_one(self):
        stats, _ = generate_scenario(small_config())
        system = assemble_q(stats)
        assert np.linalg.eigvalsh(system.matrix).min() >= 1.0 - 1e-9

    def test_sigma2_is_mean_diagonal(self):
        stats, _ = generate_scenario(small_config())
        system = assemble_q(stats)
        assert abs(system.sigma2
                   - np.real(np.trace(system.matrix)) / 16.0) <= 1e-12

    def test_wider_snr_range_worsens_conditioning(self):
        flat, _ = generate_scenario(small_config(
            side=8, snr_db_low=0.0, snr_db_high=0.0, seed=3321))
        wide, _ = generate_scenario(small_config(
            side=8, snr_db_low=-6.0, snr_db_high=14.0, seed=3321))
        def kappa(stats):
            vals = np.linalg.eigvalsh(assemble_q(stats).matrix)
            return vals[-1] / vals[0]
        assert kappa(wide) > kappa(flat)

    def test_invariant_violations_rejected(self):
        good, _ = generate_scenario(small_config())
        bad_trace = UserStats(covariance=2.0 * good[0].covariance, alpha=1.0,
                              symbol_energy=1.0)
        with pytest.raises(ConfigError):
            assemble_q([bad_trace])
        skew = good[0].covariance.copy()
        skew[0, 1] += 1.0
        with pytest.raises(ConfigError):
            assemble_q([UserStats(covariance=skew, alpha=1.0, symbol_energy=1.0)])
        with pytest.raises(ConfigError):
            assemble_q([UserStats(covariance=good[0].covariance, alpha=0.0,
                                  symbol_energy=0.0)])
        with pytest.raises(ConfigError):
            assemble_q([good[0],
                        UserStats(covariance=np.eye(4, dtype=complex), alpha=1.0,
                                  symbol_energy=1.0)])

    @pytest.mark.parametrize("name", sorted(helpers.INVALID_STATISTICS))
    def test_invalid_statistics_raise_config_error(self, name):
        # NaN fails every comparison, so each check is written to pass
        # only on valid values
        stats, _ = generate_scenario(small_config())
        helpers.INVALID_STATISTICS[name](stats[0])
        with pytest.raises(ConfigError):
            assemble_q(stats)


class TestSystemMatrix:
    def test_stores_hermitian_part_and_derives_sigma2(self):
        m = np.array([[2.0, 1.0 + 1.0j], [3.0, 4.0 + 0.5j]])
        system = SystemMatrix(m, "antenna")
        assert np.array_equal(system.matrix, 0.5 * (m + m.conj().T))
        assert system.matrix.dtype == np.complex128
        assert system.sigma2 == 3.0
        assert system.domain == "antenna"

    def test_hermitizing_again_changes_no_bit(self):
        stats, _ = generate_scenario(small_config())
        q = assemble_q(stats).matrix
        again = SystemMatrix(q, "antenna").matrix
        assert again.tobytes() == q.tobytes()

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2), (0, 0)])
    def test_shape_rejected(self, shape):
        with pytest.raises(DimensionMismatchError):
            SystemMatrix(np.ones(shape), "antenna")

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1.7e308])
    def test_non_finite_rejected(self, entry):
        # 1.7e308 is finite, but doubles past the float range when Hermitized
        m = np.eye(3, dtype=np.complex128)
        m[1, 1] = entry
        with pytest.raises(NotFiniteError):
            SystemMatrix(m, "antenna")

    def test_trace_overflow_rejected(self):
        # 1e308 already doubles past the float range when Hermitized;
        # 8e307 does not, and only the trace of three such entries overflows
        with pytest.raises(NotFiniteError):
            SystemMatrix(np.diag([1e308, 1e308]), "antenna")
        with pytest.raises(NotFiniteError, match="trace overflows"):
            SystemMatrix(np.diag([8e307] * 3), "antenna")


class TestPanelPasses:
    """SystemMatrix and assemble_q read N x N operands panel by panel."""

    sizes = st.sampled_from([1, _PANEL - 1, _PANEL, _PANEL + 1, 200])

    @settings(max_examples=40, deadline=None)
    @given(n=sizes, log_scale=st.integers(-150, 150),
           seed=st.integers(0, 2**32 - 1))
    def test_hermitian_part_is_bit_identical_to_the_dense_form(
            self, n, log_scale, seed):
        m = helpers.random_complex((n, n), seed) * 10.0 ** log_scale
        dense = 0.5 * (m + m.conj().T)
        assert SystemMatrix(m, "antenna").matrix.tobytes() == dense.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=sizes, log_skew=st.integers(-16, 0), seed=st.integers(0, 2**32 - 1))
    def test_panel_norms_match_the_dense_norms(self, n, log_skew, seed):
        a = helpers.random_complex((n, n), seed)
        c = 0.5 * (a + a.conj().T) + 10.0 ** log_skew * helpers.random_complex(
            (n, n), seed + 1)
        q = np.eye(n, dtype=np.complex128)
        scale, skew = _add_checked(q, c, 0.3)
        dense = np.linalg.norm(c - c.conj().T)
        assert abs(skew - dense) <= 1e-12 * dense
        assert abs(scale - np.linalg.norm(c)) <= 1e-12 * np.linalg.norm(c)
        assert q.tobytes() == (np.eye(n) + 0.3 * c).tobytes()

    @st.composite
    def perturbations(draw, sizes=sizes):
        n = draw(sizes)
        return (n, draw(st.integers(0, 2**32 - 1)),
                draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))

    @settings(max_examples=40, deadline=None)
    @given(case=perturbations())
    # tiles below the diagonal, read only as the partner of an upper tile
    @example(case=(200, 7, 199, 0))
    @example(case=(_PANEL + 1, 7, _PANEL, _PANEL - 1))
    @example(case=(200, 7, 2 * _PANEL + 5, _PANEL + 3))
    def test_skew_anywhere_is_rejected(self, case):
        n, seed, i, j = case
        a = helpers.random_complex((n, 4), seed)
        cov = a @ a.conj().T
        cov *= n / np.real(np.trace(cov))
        user = UserStats(covariance=cov, alpha=1.0, symbol_energy=1.0)
        assemble_q([user])
        cov[i, j] += 1e-9j * np.linalg.norm(cov)
        with pytest.raises(ConfigError):
            assemble_q([user])


def _read_buffer(a):
    """The object at the end of an array's chain of bases."""
    while True:
        base = a.base if isinstance(a, np.ndarray) else getattr(a, "obj", None)
        if base is None:
            return a
        a = base


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = small_config()
        stats, channels = generate_scenario(cfg)
        path = tmp_path / "scene.bslv"
        save_scenario(path, cfg, stats, channels)
        cfg2, stats2, channels2 = load_scenario(path)
        assert cfg2 == cfg
        for a, b in zip(stats, stats2):
            assert np.array_equal(a.covariance, b.covariance)
            assert a.alpha == b.alpha and a.symbol_energy == b.symbol_energy
        for a, b in zip(channels, channels2):
            assert np.array_equal(a.h, b.h)
            assert np.array_equal(a.taps, b.taps)
            assert np.array_equal(a.powers, b.powers)
        # saving the loaded objects reproduces the same bytes
        path2 = tmp_path / "scene2.bslv"
        save_scenario(path2, cfg2, stats2, channels2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("n_streams, paths", [(1, 1), (1, 2), (3, 1),
                                                  (2, 2), (2, 3)])
    def test_loaded_blocks_are_aligned_views(self, tmp_path, n_streams, paths):
        # each path record is 36 bytes, so an odd n_streams * paths leaves
        # the later blocks off the 8-byte complex alignment: those are copied
        cfg = small_config(side=3, n_ue=3, n_streams=n_streams,
                           paths_per_user=paths)
        stats, channels = generate_scenario(cfg)
        path = tmp_path / "scene.bslv"
        save_scenario(path, cfg, stats, channels)
        cfg2, stats2, channels2 = load_scenario(path)
        blocks = [user.covariance for user in stats2] + [ch.h for ch in channels2]
        saved = [user.covariance for user in stats] + [ch.h for ch in channels]
        for block, values in zip(blocks, saved):
            assert block.flags.aligned and block.flags.c_contiguous
            assert block.tobytes() == values.tobytes()
        if n_streams * paths % 2 == 0:
            # no block was copied: all read one buffer
            assert len({id(_read_buffer(block)) for block in blocks}) == 1
        path2 = tmp_path / "scene2.bslv"
        save_scenario(path2, cfg2, stats2, channels2)
        assert path.read_bytes() == path2.read_bytes()

    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        path = tmp_path / "block.bslv"
        save_matrix(path, a)
        loaded = load_matrix(path)
        assert np.array_equal(loaded, a)
        assert loaded.flags.aligned and loaded.flags.c_contiguous
        assert _read_buffer(loaded).dtype == np.uint8

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_save_matrix_rejects_non_2d(self, tmp_path, shape):
        path = tmp_path / "block.bslv"
        with pytest.raises(ValueError, match="2-D"):
            save_matrix(path, np.ones(shape, dtype=complex))
        assert not path.exists()

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        cfg = small_config()
        stats, channels = generate_scenario(cfg)
        path = tmp_path / "scene.bslv"
        save_scenario(path, cfg, stats, channels)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_scenario(path)

    def test_truncated_file_fails_checksum(self, tmp_path):
        cfg = small_config()
        stats, channels = generate_scenario(cfg)
        path = tmp_path / "scene.bslv"
        save_scenario(path, cfg, stats, channels)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ChecksumError):
            load_scenario(path)

    @pytest.mark.parametrize("kind", ["scenario", "matrix"])
    def test_short_complex_block_with_valid_crc(self, tmp_path, kind):
        # the payload ends inside a complex block but its CRC matches, so
        # only the length check before parsing can catch it
        path = tmp_path / "short.bslv"
        if kind == "scenario":
            cfg = small_config()
            save_scenario(path, cfg, *generate_scenario(cfg))
            load, cut = load_scenario, 52 + 16 + 100
        else:
            save_matrix(path, np.eye(3, dtype=complex))
            load, cut = load_matrix, 8 + 16 * 5
        blob = path.read_bytes()
        payload = blob[8:8 + cut]
        path.write_bytes(blob[:8] + payload
                         + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
        with pytest.raises(ChecksumError):
            load(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "scene.bslv"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(MalformedHeaderError):
            load_scenario(path)

    def test_unsupported_version(self, tmp_path):
        payload = b"\x00" * 8
        blob = b"BSLV" + struct.pack("<HH", 9, 1) + payload \
            + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        path = tmp_path / "scene.bslv"
        path.write_bytes(blob)
        with pytest.raises(VersionError):
            load_scenario(path)

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "block.bslv"
        save_matrix(path, np.eye(2, dtype=complex))
        with pytest.raises(MalformedHeaderError):
            load_scenario(path)

    def test_stray_payload_bytes_detected(self, tmp_path):
        a = np.eye(2, dtype=np.complex128)
        payload = struct.pack("<2I", 2, 2) \
            + np.ascontiguousarray(a.reshape(-1), dtype="<c16").tobytes() \
            + b"extra"
        blob = b"BSLV" + struct.pack("<HH", 1, 2) + payload \
            + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        path = tmp_path / "block.bslv"
        path.write_bytes(blob)
        with pytest.raises(MalformedHeaderError):
            load_matrix(path)

    def test_stray_scenario_payload_bytes_detected(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "scene.bslv"
        save_scenario(path, cfg, *generate_scenario(cfg))
        blob = path.read_bytes()
        payload = blob[8:-4] + b"extra"
        path.write_bytes(blob[:8] + payload
                         + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
        with pytest.raises(MalformedHeaderError, match="5 stray payload bytes"):
            load_scenario(path)

    def test_handwritten_fixture_loads(self, tmp_path):
        # minimal scenario written from the documented layout alone:
        # 1x1 array, one user, one path, two subcarriers
        side, n_ue, n_streams, paths, subc = 1, 1, 1, 1, 2
        alpha, energy = 0.5, 0.5
        cov = np.array([[1.0 + 0.0j]])
        h = np.array([[[0.3 + 0.1j]], [[0.3 - 0.1j]]])
        payload = struct.pack("<5I", side, n_ue, n_streams, paths, subc)
        payload += struct.pack("<3d", -3.0, -3.0, 1.0)
        payload += struct.pack("<Q", 9)
        payload += struct.pack("<2d", alpha, energy)
        payload += np.ascontiguousarray(cov.reshape(-1), dtype="<c16").tobytes()
        payload += struct.pack("<4dI", 1.0, 0.25, -0.25, 1.5, 1)
        payload += np.ascontiguousarray(h.reshape(-1), dtype="<c16").tobytes()
        blob = b"BSLV" + struct.pack("<HH", 1, 1) + payload \
            + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        path = tmp_path / "hand.bslv"
        path.write_bytes(blob)

        cfg, stats, channels = load_scenario(path)
        assert cfg.side == 1 and cfg.subcarriers == 2 and cfg.seed == 9
        assert abs(np.real(np.trace(stats[0].covariance)) - 1.0) <= 1e-12
        assert stats[0].alpha == alpha
        assert np.array_equal(channels[0].h, h)
        assert channels[0].taps[0, 0] == 1
        system = assemble_q(stats)
        assert np.linalg.eigvalsh(system.matrix).min() >= 1.0 - 1e-9

    def test_oversized_path_block_rejected_before_allocation(self, tmp_path):
        # 2^31 path records would take 16 GiB per field; the payload length
        # check must come first
        blob = helpers.oversized_path_block_bytes()
        assert len(blob) == 96
        path = tmp_path / "oversized.bslv"
        path.write_bytes(blob)
        with pytest.raises(ChecksumError):
            load_scenario(path)

    def test_save_checks_lengths(self, tmp_path):
        cfg = small_config()
        stats, channels = generate_scenario(cfg)
        with pytest.raises(ValueError):
            save_scenario(tmp_path / "x.bslv", cfg, stats[:1], channels)


class TestConfigFile:
    def test_parses_keys_comments_and_blanks(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text(
            "# comment line\n"
            "side = 4\n"
            "\n"
            "n_ue = 2\n"
            "paths_per_user = 2   # inline comment\n"
            "snr_db_low = -2.5\n"
            "snr_db_high = 7.5\n"
            "subcarriers = 32\n"
            "seed = 11\n")
        cfg = read_config_file(path)
        assert cfg.side == 4 and cfg.n_ue == 2
        assert (cfg.snr_db_low, cfg.snr_db_high) == (-2.5, 7.5)
        assert cfg.subcarriers == 32 and cfg.seed == 11

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("side = 4\nantennas = 9\n")
        with pytest.raises(ConfigError) as err:
            read_config_file(path)
        assert "antennas" in str(err.value)
        assert ":2" in str(err.value)

    def test_bad_value_reports_position(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("side = four\n")
        with pytest.raises(ConfigError) as err:
            read_config_file(path)
        assert ":1" in str(err.value)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("side 4\n")
        with pytest.raises(ConfigError):
            read_config_file(path)

    def test_validation_applies_to_parsed_config(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("side = 4\nn_streams = 4\npaths_per_user = 8\n"
                        "subcarriers = 16\n")
        with pytest.raises(ConfigError):
            read_config_file(path)


def _config_lines(cfg):
    """A ScenarioConfig as the key = value lines of a config file."""
    return "".join("%s = %r\n" % item for item in vars(cfg).items())


_finite = st.floats(allow_nan=False, allow_infinity=False)
# an SNR bound whose linear target 10^(dB/10) is finite
_snr_db = st.floats(max_value=3082.0, allow_nan=False,
                    allow_infinity=False)


@st.composite
def _valid_configs(draw):
    n_streams = draw(st.integers(1, 64))
    paths = draw(st.integers(1, 64))
    low, high = sorted([draw(_snr_db), draw(_snr_db)])
    return ScenarioConfig(
        side=draw(st.integers(1, 2 ** 16 - 1)),
        n_ue=draw(st.integers(1, 10 ** 6)),
        n_streams=n_streams, paths_per_user=paths, snr_db_low=low,
        snr_db_high=high,
        noise_psd=draw(_finite.filter(lambda v: v > 0.0)),
        subcarriers=draw(st.integers(n_streams * paths, 10 ** 6)),
        seed=draw(st.integers(0, 2 ** 64 - 1)))


class TestConfigRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(cfg=_valid_configs())
    def test_valid_config_comes_back_equal(self, cfg):
        assert helpers.parse_file(read_config_file, _config_lines(cfg)) == cfg

    @settings(max_examples=200, deadline=None)
    @given(data=helpers.config_text())
    def test_arbitrary_text_is_parsed_or_config_error(self, data):
        try:
            cfg = helpers.parse_file(read_config_file, data)
        except ConfigError:
            return
        assert cfg.validate() is cfg


_MUTATED_CONFIG = small_config(side=2, n_ue=2, paths_per_user=1, subcarriers=2)
_MUTATED_BASE = helpers.scenario_bytes(_MUTATED_CONFIG,
                                       *generate_scenario(_MUTATED_CONFIG))


def _mutated(position, flip):
    blob = bytearray(_MUTATED_BASE)
    blob[position] ^= flip
    return helpers.with_crc(blob)


_MATRIX_BASE = helpers.matrix_bytes(
    np.arange(6.0).reshape(2, 3) * (1.0 - 2.0j))


class TestMutatedFiles:
    @settings(max_examples=300, deadline=None)
    @given(blob=st.builds(_mutated, st.integers(0, len(_MUTATED_BASE) - 5),
                          st.integers(1, 255)))
    @example(blob=helpers.oversized_path_block_bytes())
    @example(blob=helpers.invalid_statistics_bytes(
        "nan-covariance", _MUTATED_CONFIG, *generate_scenario(_MUTATED_CONFIG)))
    def test_load_and_assemble_raise_only_documented_errors(
            self, tmp_path_factory, blob):
        # any byte changed, CRC recomputed: loading and assembling Q
        # either succeed or raise a FileFormatError or a ConfigError
        path = tmp_path_factory.mktemp("mutated") / "scenario.bslv"
        path.write_bytes(blob)
        try:
            _, stats, _ = load_scenario(path)
            assemble_q(stats)
        except (FileFormatError, ConfigError):
            pass

    @settings(max_examples=200, deadline=None)
    @given(cut=st.integers(0, len(_MUTATED_BASE) - 13))
    @example(cut=0)
    @example(cut=52)
    def test_truncated_scenario_raises_a_file_format_error(
            self, tmp_path_factory, cut):
        # the payload cut anywhere, CRC recomputed: only a FileFormatError
        path = tmp_path_factory.mktemp("truncated") / "scenario.bslv"
        path.write_bytes(helpers.truncated(_MUTATED_BASE, cut))
        with pytest.raises(FileFormatError):
            load_scenario(path)

    @settings(max_examples=50, deadline=None)
    @given(cut=st.integers(0, len(_MATRIX_BASE) - 13))
    def test_truncated_matrix_raises_a_file_format_error(
            self, tmp_path_factory, cut):
        path = tmp_path_factory.mktemp("truncated") / "matrix.bslv"
        path.write_bytes(helpers.truncated(_MATRIX_BASE, cut))
        with pytest.raises(FileFormatError):
            load_matrix(path)
