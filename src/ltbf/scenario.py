"""Synthetic multi-user channel scenarios and their on-disk form.

The generator stands in for a ray tracer: each user gets a handful of
planar-wavefront paths with uniform azimuth/elevation over the front
hemisphere of a half-wavelength T x T array, lognormal path powers and
uniform tap delays.  The long-term covariance is the power-weighted sum of
steering outer products, normalized to trace N, and the per-subcarrier
channel is the phase-rotated path sum, so averaging the instantaneous
outer products over the full subcarrier grid reproduces the covariance.

Per-user loading factors follow post-beamforming SNR targets spaced
uniformly in dB across the configured range; with unit-trace-per-antenna
covariances the factor for a target gamma is simply gamma / N.

File format ("BSLV", little-endian throughout):

    bytes 0..3   magic "BSLV"
    bytes 4..5   u16 version, currently 1
    bytes 6..7   u16 record kind: 1 scenario, 2 bare matrix
    bytes 8..    payload, see below
    last 4       u32 CRC-32 (zlib) of the payload bytes

Scenario payload:
    u32 side, n_ue, n_streams, paths_per_user, subcarriers
    f64 snr_db_low, snr_db_high, noise_psd
    u64 seed
    then per user:
        f64 alpha, symbol_energy
        covariance: N*N complex entries, row-major, each (f64 re, f64 im)
        per stream, per path: f64 power, azimuth, elevation, phase; u32 tap
        channels: subcarriers * N * n_streams complex entries, row-major
            over (subcarrier, antenna, stream)

Matrix payload:
    u32 rows, u32 cols
    rows * cols complex entries, row-major, each (f64 re, f64 im)

The loaders read a file into one buffer and check its CRC over the whole
payload before any array is made.  The loaded covariance, channel and
matrix arrays are views into that buffer, which lives as long as any of
them does.  The buffer starts the file where the first complex block is
16-byte aligned; a later block sits off the 8-byte complex alignment only
after an odd number of 36-byte path records, and is copied.

Scenario configs also travel as flat key=value text files; keys match the
ScenarioConfig field names (snr_db_range splits into snr_db_low and
snr_db_high), '#' starts a comment.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import DimensionMismatchError, NotFiniteError

__all__ = [
    "ConfigError",
    "FileFormatError",
    "MalformedHeaderError",
    "VersionError",
    "ChecksumError",
    "DegenerateGeometryError",
    "ScenarioConfig",
    "UserStats",
    "InstantChannel",
    "SystemMatrix",
    "steering_vector",
    "generate_scenario",
    "assemble_q",
    "read_config_lines",
    "read_config_file",
    "save_scenario",
    "load_scenario",
    "save_matrix",
    "load_matrix",
]

_MAGIC = b"BSLV"
_VERSION = 1
_KIND_SCENARIO = 1
_KIND_MATRIX = 2
# one 36-byte path record, per stream, per path
_PATH = np.dtype([("power", "<f8"), ("azimuth", "<f8"), ("elevation", "<f8"),
                  ("phase", "<f8"), ("tap", "<u4")])
# payload offset of each kind's first complex block: a scenario's first
# covariance follows the 52-byte header and the user's two f64 scalars
_FIRST_BLOCK = {_KIND_SCENARIO: 68, _KIND_MATRIX: 8}
# rows per panel, and side of a tile, of the N x N passes below: a panel
# and its column counterpart stay in cache while each entry is read once
_PANEL = 64


class ConfigError(ValueError):
    """A scenario config key or value is unusable."""


class FileFormatError(IOError):
    """Base class for scenario container problems."""


class MalformedHeaderError(FileFormatError):
    """Magic bytes or structural fields do not parse."""


class VersionError(FileFormatError):
    """The container version is not supported."""


class ChecksumError(FileFormatError):
    """Payload CRC mismatch, including truncated files."""


class DegenerateGeometryError(ConfigError):
    """Path geometry stayed degenerate after the retry budget: the config
    admits no valid scenario, as with one antenna and two or more paths."""


@dataclass
class ScenarioConfig:
    """Knobs of the synthetic scenario generator.

    side : array side T; the array has N = side * side antennas.
    n_ue : number of users.
    n_streams : spatial streams per user.
    paths_per_user : propagation paths per stream.
    snr_db_range : (low, high) post-beamforming SNR targets in dB; users
        are placed at uniform dB spacing across the range.
    noise_psd : noise power spectral density N0.
    subcarriers : size of the OFDM grid; also the tap-delay grid.
    seed : master seed; every draw derives from it deterministically.
    """

    side: int = 16
    n_ue: int = 4
    n_streams: int = 1
    paths_per_user: int = 4
    snr_db_range: tuple = (-6.0, 14.0)
    noise_psd: float = 1.0
    subcarriers: int = 256
    seed: int = 3301

    @property
    def n_antennas(self):
        return self.side * self.side

    def validate(self):
        if self.side < 1:
            raise ConfigError("side must be >= 1, got %d" % self.side)
        if self.n_ue < 1 or self.n_streams < 1 or self.paths_per_user < 1:
            raise ConfigError("user, stream and path counts must be >= 1")
        if self.subcarriers < 1:
            raise ConfigError("subcarriers must be >= 1")
        if self.n_streams * self.paths_per_user > self.subcarriers:
            raise ConfigError("need n_streams * paths_per_user <= subcarriers "
                              "for distinct tap delays")
        # the file header stores the counts as u32 and the seed as u64
        if max(self.side, self.n_ue, self.n_streams, self.paths_per_user,
               self.subcarriers) > 2 ** 32 - 1:
            raise ConfigError("side, user, stream, path and subcarrier counts "
                              "must be at most 2^32 - 1")
        low, high = self.snr_db_range
        if not (np.isfinite(low) and np.isfinite(high) and low <= high):
            raise ConfigError("snr_db_range must be a finite (low, high) pair")
        try:
            10.0 ** (high / 10.0)  # the largest linear SNR target
        except OverflowError:
            raise ConfigError("snr_db_high = %r overflows as a linear SNR"
                              % high) from None
        if not (np.isfinite(self.noise_psd) and self.noise_psd > 0.0):
            raise ConfigError("noise_psd must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must lie in [0, 2^64), got %d" % self.seed)
        return self


@dataclass
class UserStats:
    """Long-term per-user state entering the system matrix.

    covariance : (N, N) Hermitian PSD, trace normalized to N.
    alpha : loading factor of this user in Q, symbol_energy/(N0*n_streams).
    symbol_energy : per-symbol transmit energy consistent with alpha.
    """

    covariance: np.ndarray
    alpha: float
    symbol_energy: float


@dataclass
class InstantChannel:
    """Per-subcarrier channel realizations of one user.

    h : (subcarriers, N, n_streams) complex.
    powers, azimuths, elevations, phases : (n_streams, paths) path draws.
    taps : (n_streams, paths) integer tap delays on the subcarrier grid.
    """

    h: np.ndarray
    powers: np.ndarray
    azimuths: np.ndarray
    elevations: np.ndarray
    phases: np.ndarray
    taps: np.ndarray


@dataclass
class SystemMatrix:
    """A system matrix tagged with its domain and mean diagonal level.

    The one place that makes a system matrix valid, so that solvers and
    sketches take it as Hermitian unchecked.  Construction reads the input
    as complex128, rejects one that is not 2-D, square and non-empty with
    DimensionMismatchError and stores its Hermitian part 0.5 (m + m^H),
    formed panel by panel into one new array; a NotFiniteError follows if
    that holds a non-finite entry (a non-finite input, or an overflow) or
    its trace overflows.  Positive definiteness is left to the solvers.

    matrix : (N, N) Hermitian.
    domain : "antenna" or "beamspace".
    sigma2 : derived mean diagonal level Re(trace)/N.  For Q = I + L it
        gives tr(L) = N (sigma2 - 1), which sets the sketch shift of
        build_preconditioner; gen prints it.
    """

    matrix: np.ndarray
    domain: str
    sigma2: float = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] != m.shape[0]:
            raise DimensionMismatchError(
                "system matrix must be square and non-empty, got %s" % (m.shape,))
        n = m.shape[0]
        h = np.empty((n, n), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, n, _PANEL):
                rows = h[i:i + _PANEL]
                np.conjugate(m[:, i:i + _PANEL].T, out=rows)
                rows += m[i:i + _PANEL]
                rows *= 0.5
                if not np.isfinite(rows).all():
                    raise NotFiniteError("system matrix has non-finite entries")
            self.sigma2 = float(np.real(np.trace(h))) / n
        if not np.isfinite(self.sigma2):
            raise NotFiniteError("system matrix trace overflows")
        self.matrix = h


def steering_vector(side, azimuth, elevation):
    """Half-wavelength T x T planar-array response for one direction.

    Kronecker product of the two axis responses with directional cosines
    u = sin(az) cos(el) and v = sin(el); every entry has unit modulus so
    the squared norm is exactly N.
    """
    u = np.sin(azimuth) * np.cos(elevation)
    v = np.sin(elevation)
    m = np.arange(side)
    ax = np.exp(1j * np.pi * m * u)
    ay = np.exp(1j * np.pi * m * v)
    return np.kron(ax, ay)


def _draw_user(cfg, user, attempt):
    """All random draws for one user from a dedicated sub-seeded stream."""
    rng = np.random.default_rng((cfg.seed, user, attempt))
    shape = (cfg.n_streams, cfg.paths_per_user)
    azimuths = rng.uniform(-np.pi / 2, np.pi / 2, size=shape)
    elevations = rng.uniform(-np.pi / 2, np.pi / 2, size=shape)
    raw = rng.lognormal(mean=0.0, sigma=1.0, size=shape)
    powers = raw / np.sum(raw, axis=1, keepdims=True)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    taps = rng.choice(cfg.subcarriers, size=cfg.n_streams * cfg.paths_per_user,
                      replace=False).reshape(shape)
    return azimuths, elevations, powers, phases, taps


def _degenerate(steer, n):
    """True when every path pair is colinear (identical direction)."""
    cols = steer.shape[1]
    if cols < 2:
        return False
    gram = np.abs(steer.conj().T @ steer) / n
    off = gram[~np.eye(cols, dtype=bool)]
    return bool(np.all(off > 1.0 - 1e-9))


def generate_scenario(cfg):
    """Generate (user statistics, instantaneous channels) for a config.

    Users sit at uniform dB spacing across cfg.snr_db_range.  Tap delays
    are drawn without replacement per user, which makes the subcarrier
    average of h h^H reproduce the covariance exactly on the full grid.

    Returns
    -------
    (stats, channels) : lists of UserStats and InstantChannel, one entry
        per user in user order.
    """
    cfg.validate()
    n = cfg.n_antennas
    k_sc = cfg.subcarriers
    if cfg.n_ue == 1:
        targets_db = [0.5 * (cfg.snr_db_range[0] + cfg.snr_db_range[1])]
    else:
        targets_db = [cfg.snr_db_range[0]
                      + (cfg.snr_db_range[1] - cfg.snr_db_range[0]) * i / (cfg.n_ue - 1)
                      for i in range(cfg.n_ue)]

    stats = []
    channels = []
    for user in range(cfg.n_ue):
        for attempt in range(5):
            azimuths, elevations, powers, phases, taps = _draw_user(cfg, user, attempt)
            steer = np.empty((n, cfg.n_streams * cfg.paths_per_user), dtype=np.complex128)
            for s in range(cfg.n_streams):
                for l in range(cfg.paths_per_user):
                    steer[:, s * cfg.paths_per_user + l] = steering_vector(
                        cfg.side, azimuths[s, l], elevations[s, l])
            if not _degenerate(steer, n):
                break
        else:
            raise DegenerateGeometryError(
                "user %d geometry stayed colinear after 5 attempts" % user)

        weights = (powers / cfg.n_streams).reshape(-1)
        cov = (steer * weights) @ steer.conj().T
        cov = 0.5 * (cov + cov.conj().T)
        cov *= n / float(np.real(np.trace(cov)))

        target = 10.0 ** (targets_db[user] / 10.0)
        alpha = target / n
        energy = alpha * cfg.noise_psd * cfg.n_streams

        grid = np.arange(k_sc)
        coeff = (np.sqrt(powers)[None, :, :]
                 * np.exp(1j * phases)[None, :, :]
                 * np.exp(-2j * np.pi * grid[:, None, None] * taps[None, :, :] / k_sc))
        steer3 = steer.reshape(n, cfg.n_streams, cfg.paths_per_user)
        h = np.einsum("nsl,ksl->kns", steer3, coeff)

        stats.append(UserStats(covariance=cov, alpha=float(alpha),
                               symbol_energy=float(energy)))
        channels.append(InstantChannel(h=np.ascontiguousarray(h),
                                       powers=powers, azimuths=azimuths,
                                       elevations=elevations, phases=phases,
                                       taps=taps))
    return stats, channels


def _add_checked(q, c, alpha):
    """Add alpha c into q in place and return (||c||_F, ||c - c^H||_F).

    One pass over the row panels of c.  The skew reads only the tiles on
    and above the diagonal: tile (i, j) of c - c^H is c_ij - c_ji^H, and
    tile (j, i) has the same norm, so an off-diagonal tile counts twice.
    """
    n = c.shape[0]
    tile = np.empty(_PANEL * _PANEL, dtype=np.complex128)
    squares = skew_squares = 0.0
    for i in range(0, n, _PANEL):
        rows = c[i:i + _PANEL]
        squares += np.vdot(rows, rows).real
        for j in range(i, n, _PANEL):
            upper = rows[:, j:j + _PANEL]
            diff = tile[:upper.size].reshape(upper.shape)
            np.conjugate(c[j:j + _PANEL, i:i + _PANEL].T, out=diff)
            diff -= upper
            skew_squares += (1.0 if j == i else 2.0) * np.vdot(diff, diff).real
        q[i:i + _PANEL] += alpha * rows
    return float(np.sqrt(squares)), float(np.sqrt(skew_squares))


def assemble_q(stats):
    """Assemble the system matrix Q = I + sum_i alpha_i covariance_i.

    Empty stats are a ValueError: with no users the dimension is unknown.
    Covariances must be finite and Hermitian with
    trace N (||C - C^H||_F <= 1e-12 ||C||_F), each alpha and symbol_energy
    positive and finite, and Q finite; otherwise a ConfigError, as for an
    invalid config, since a CRC-valid scenario file can carry such
    statistics.  NaN fails every check.  One panel pass over each
    covariance checks it and adds it into Q in place.
    """
    if not stats:
        raise ValueError("assemble_q needs at least one user")
    n = stats[0].covariance.shape[0]
    q = np.eye(n, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for st in stats:
            cov = st.covariance
            if cov.shape != (n, n):
                raise ConfigError("covariance shapes disagree")
            trace = float(np.real(np.trace(cov)))
            if not abs(trace - n) <= 1e-9 * n:
                raise ConfigError("covariance trace %r deviates from N=%d"
                                  % (trace, n))
            scale, skew = _add_checked(q, cov, st.alpha)
            if not (np.isfinite(scale) and skew <= 1e-12 * scale):
                raise ConfigError("covariance is not finite and Hermitian")
            if not (st.alpha > 0.0 and np.isfinite(st.alpha)):
                raise ConfigError("alpha must be positive and finite, got %r"
                                  % st.alpha)
            if not (st.symbol_energy > 0.0 and np.isfinite(st.symbol_energy)):
                raise ConfigError("symbol_energy must be positive and finite, "
                                  "got %r" % st.symbol_energy)
    try:
        return SystemMatrix(q, "antenna")
    except NotFiniteError as err:
        raise ConfigError("assembled system matrix is not finite") from err


_CONFIG_KEYS = {
    "side": int,
    "n_ue": int,
    "n_streams": int,
    "paths_per_user": int,
    "snr_db_low": float,
    "snr_db_high": float,
    "noise_psd": float,
    "subcarriers": int,
    "seed": int,
}


def read_config_lines(path):
    """(line number, text) of each line of a UTF-8 config file that is not
    blank once its '#' comment is cut; other bytes are a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except UnicodeDecodeError as err:
        raise ConfigError("%s: not UTF-8 text: %s" % (path, err)) from err
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_config_file(path):
    """Parse a flat key=value scenario config file into a ScenarioConfig."""
    cfg = ScenarioConfig()
    low, high = cfg.snr_db_range
    for lineno, line in read_config_lines(path):
        if "=" not in line:
            raise ConfigError("%s:%d: expected key = value, got %r"
                              % (path, lineno, line))
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError("%s:%d: unknown config key %r" % (path, lineno, key))
        try:
            parsed = _CONFIG_KEYS[key](value)
        except ValueError as err:
            raise ConfigError("%s:%d: bad value for %s: %r"
                              % (path, lineno, key, value)) from err
        if key == "snr_db_low":
            low = parsed
        elif key == "snr_db_high":
            high = parsed
        else:
            cfg = replace(cfg, **{key: parsed})
    cfg = replace(cfg, snr_db_range=(low, high))
    return cfg.validate()


def _pack_complex(a):
    """Little-endian contiguous form of a complex array, a buffer to write."""
    return np.ascontiguousarray(a, dtype="<c16")


def _unpack(buf, offset, count, dtype):
    """View of `count` records of `dtype` at `offset`, bounds-checked before
    anything is allocated, and the offset past them."""
    end = offset + np.dtype(dtype).itemsize * count
    if end > len(buf):
        raise ChecksumError("file truncated inside a block of %d records" % count)
    return np.frombuffer(buf, dtype=dtype, count=count, offset=offset), end


def _unpack_complex(buf, offset, count):
    """`count` complex entries at `offset`: a view of the buffer when it is
    aligned, else an aligned copy."""
    arr, end = _unpack(buf, offset, count, "<c16")
    return np.require(arr, requirements="A"), end


def _write_container(path, kind, parts):
    """Write the payload `parts` in order, framed, without joining them."""
    crc = 0
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<HH", _VERSION, kind))
        for part in parts:
            crc = zlib.crc32(part, crc)
            fh.write(part)
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


def _read_container(path, expect_kind):
    """The CRC-checked payload of a container, as a view of the file bytes.

    The file is read into one uninitialised buffer 16 bytes longer than
    the file, starting at the pad that puts the kind's first complex block
    on a 16-byte boundary, so that the loaders can hand out views.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = np.empty(size + 16, dtype=np.uint8)
        pad = -(buf.ctypes.data + 8 + _FIRST_BLOCK[expect_kind]) % 16
        window = memoryview(buf)[pad:pad + size]
        blob = window[:fh.readinto(window)]
    if len(blob) < 12 or blob[:4] != _MAGIC:
        raise MalformedHeaderError("%s: not a BSLV container" % path)
    version, kind = struct.unpack_from("<HH", blob, 4)
    if version != _VERSION:
        raise VersionError("%s: unsupported version %d" % (path, version))
    if kind != expect_kind:
        raise MalformedHeaderError("%s: record kind %d, expected %d"
                                   % (path, kind, expect_kind))
    payload = blob[8:-4]
    (crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise ChecksumError("%s: payload CRC mismatch" % path)
    return payload


def save_scenario(path, cfg, stats, channels):
    """Write config, covariances and channels as one BSLV container."""
    cfg.validate()
    n = cfg.n_antennas
    parts = [struct.pack("<5I", cfg.side, cfg.n_ue, cfg.n_streams,
                         cfg.paths_per_user, cfg.subcarriers),
             struct.pack("<3d", cfg.snr_db_range[0], cfg.snr_db_range[1],
                         cfg.noise_psd),
             struct.pack("<Q", cfg.seed)]
    if len(stats) != cfg.n_ue or len(channels) != cfg.n_ue:
        raise ValueError("stats/channels length must match n_ue")
    for st, ch in zip(stats, channels):
        parts.append(struct.pack("<2d", st.alpha, st.symbol_energy))
        parts.append(_pack_complex(st.covariance.reshape(n * n)))
        paths = np.empty(cfg.n_streams * cfg.paths_per_user, dtype=_PATH)
        for name, values in zip(_PATH.names, (ch.powers, ch.azimuths,
                                              ch.elevations, ch.phases, ch.taps)):
            paths[name] = values.reshape(-1)
        parts.append(paths.tobytes())
        parts.append(_pack_complex(ch.h.reshape(-1)))
    _write_container(path, _KIND_SCENARIO, parts)


def load_scenario(path):
    """Read a BSLV scenario container back into python objects.

    Returns (cfg, stats, channels) structurally identical to what
    save_scenario wrote; a save of the loaded objects is byte-identical.
    The covariances and channels are aligned, C-contiguous views into one
    CRC-checked read buffer (a block left unaligned by an odd path count
    is copied), which lives as long as any of them does.
    """
    payload = _read_container(path, _KIND_SCENARIO)
    try:
        side, n_ue, n_streams, paths, subc = struct.unpack_from("<5I", payload, 0)
        low, high, noise = struct.unpack_from("<3d", payload, 20)
        (seed,) = struct.unpack_from("<Q", payload, 44)
    except struct.error as err:
        raise MalformedHeaderError("%s: scenario header does not parse" % path) from err
    cfg = ScenarioConfig(side=side, n_ue=n_ue, n_streams=n_streams,
                         paths_per_user=paths, snr_db_range=(low, high),
                         noise_psd=noise, subcarriers=subc, seed=seed)
    cfg.validate()
    n = cfg.n_antennas
    offset = 52
    stats = []
    channels = []
    for _ in range(n_ue):
        if offset + 16 > len(payload):
            raise ChecksumError("%s: truncated user block" % path)
        alpha, energy = struct.unpack_from("<2d", payload, offset)
        offset += 16
        cov_flat, offset = _unpack_complex(payload, offset, n * n)
        cov = cov_flat.reshape(n, n)
        records, offset = _unpack(payload, offset, n_streams * paths, _PATH)
        shape = (n_streams, paths)
        powers, azimuths, elevations, phases = (
            records[name].reshape(shape).astype(np.float64)
            for name in _PATH.names[:4])
        taps = records["tap"].reshape(shape).astype(np.int64)
        h_flat, offset = _unpack_complex(payload, offset, subc * n * n_streams)
        h = h_flat.reshape(subc, n, n_streams)
        stats.append(UserStats(covariance=cov, alpha=alpha, symbol_energy=energy))
        channels.append(InstantChannel(h=h, powers=powers,
                                       azimuths=azimuths, elevations=elevations,
                                       phases=phases, taps=taps))
    if offset != len(payload):
        raise MalformedHeaderError("%s: %d stray payload bytes"
                                   % (path, len(payload) - offset))
    return cfg, stats, channels


def save_matrix(path, a):
    """Write one complex matrix as a BSLV matrix container."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    _write_container(path, _KIND_MATRIX,
                     [struct.pack("<2I", a.shape[0], a.shape[1]),
                      _pack_complex(a.reshape(-1))])


def load_matrix(path):
    """Read a BSLV matrix container, as an aligned view into its read
    buffer."""
    payload = _read_container(path, _KIND_MATRIX)
    try:
        rows, cols = struct.unpack_from("<2I", payload, 0)
    except struct.error as err:
        raise MalformedHeaderError("%s: matrix header does not parse" % path) from err
    flat, offset = _unpack_complex(payload, 8, rows * cols)
    if offset != len(payload):
        raise MalformedHeaderError("%s: %d stray payload bytes"
                                   % (path, len(payload) - offset))
    return flat.reshape(rows, cols)
