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

ScenarioConfig declares the nine header settings once: its fields, in
order, are the header's fields and the keys of the flat key=value text
files that configs also travel as ('#' starts a comment; each key may
appear once, and a repeated key is a ConfigError).
"""

from __future__ import annotations

import os
import struct
import typing
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
# the scenario header (the ScenarioConfig fields in order), each user's
# (alpha, symbol_energy) ahead of its covariance, a matrix's (rows, cols)
_HEADER = struct.Struct("<5I3dQ")
_USER = struct.Struct("<2d")
_SHAPE = struct.Struct("<2I")
# payload offset of each kind's first complex block: a scenario's first
# covariance follows the header and the first user's record
_FIRST_BLOCK = {_KIND_SCENARIO: _HEADER.size + _USER.size,
                _KIND_MATRIX: _SHAPE.size}
# rows per panel, and side of a tile, of the N x N passes below (the
# generator's in-place Hermitian part, SystemMatrix, assemble_q): a panel
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

    The fields, in order, are the scenario file header and the keys of a
    config file, each parsed by its annotated type.

    side : array side T; the array has N = side * side antennas.
    n_ue : number of users.
    n_streams : spatial streams per user.
    paths_per_user : propagation paths per stream.
    subcarriers : size of the OFDM grid; also the tap-delay grid.
    snr_db_low, snr_db_high : post-beamforming SNR targets in dB of the
        first and last user; users are placed at uniform dB spacing
        between them.
    noise_psd : noise power spectral density N0.
    seed : master seed; every draw derives from it deterministically.
    """

    side: int = 16
    n_ue: int = 4
    n_streams: int = 1
    paths_per_user: int = 4
    subcarriers: int = 256
    snr_db_low: float = -6.0
    snr_db_high: float = 14.0
    noise_psd: float = 1.0
    seed: int = 3301

    @property
    def n_antennas(self):
        return self.side * self.side

    def validate(self):
        if self.side < 1:
            raise ConfigError("side must be >= 1, got %d" % self.side)
        # N = side^2 must fit the u32 row and column counts of a matrix file
        if self.side > 2 ** 16 - 1:
            raise ConfigError("side must be at most 65535, got %d" % self.side)
        if self.n_ue < 1 or self.n_streams < 1 or self.paths_per_user < 1:
            raise ConfigError("user, stream and path counts must be >= 1")
        if self.subcarriers < 1:
            raise ConfigError("subcarriers must be >= 1")
        if self.n_streams * self.paths_per_user > self.subcarriers:
            raise ConfigError("need n_streams * paths_per_user <= subcarriers "
                              "for distinct tap delays")
        low, high = self.snr_db_low, self.snr_db_high
        if not (np.isfinite(low) and np.isfinite(high) and low <= high):
            raise ConfigError("need finite snr_db_low <= snr_db_high")
        try:
            10.0 ** (high / 10.0)  # the largest linear SNR target
        except OverflowError:
            raise ConfigError("snr_db_high = %r overflows as a linear SNR"
                              % high) from None
        if not (np.isfinite(self.noise_psd) and self.noise_psd > 0.0):
            raise ConfigError("noise_psd must be positive")
        try:  # the counts as u32, the seed as u64
            _HEADER.pack(*_header_values(self))
        except struct.error as err:
            raise ConfigError("config does not fit the scenario file header: "
                              "%s" % err) from None
        return self


# config-file key -> the type that parses its value, in header order
_CONFIG_KEYS = typing.get_type_hints(ScenarioConfig)


def _header_values(cfg):
    """The config's fields in header order; astuple would deep-copy them."""
    return tuple(getattr(cfg, key) for key in _CONFIG_KEYS)


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
    sketches take it as Hermitian unchecked.  Construction copies the input
    into a new row-major complex128 array, rejects one that is not 2-D,
    square and non-empty with DimensionMismatchError and overwrites the
    copy with its Hermitian part 0.5 (m + m^H) by the tile-pair pass of
    _hermitian_part_inplace; a NotFiniteError follows if that holds a
    non-finite entry (a non-finite input, or an overflow) or its trace
    overflows.  Positive definiteness is left to the solvers.  assemble_q
    and to_beamspace hand over the array they built through _adopt, which
    forms the Hermitian part in that array, so no second block is made.

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
        self._store(np.array(self.matrix, dtype=np.complex128, order="C"))

    @classmethod
    def _adopt(cls, m, domain):
        """The system of a row-major complex128 array m that the caller
        built and hands over: m itself becomes its Hermitian part."""
        system = cls.__new__(cls)
        system.domain = domain
        system._store(m)
        return system

    def _store(self, m):
        if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] != m.shape[0]:
            raise DimensionMismatchError(
                "system matrix must be square and non-empty, got %s" % (m.shape,))
        with np.errstate(over="ignore", invalid="ignore"):
            if not _hermitian_part_inplace(m):
                raise NotFiniteError("system matrix has non-finite entries")
            self.sigma2 = float(np.real(np.trace(m))) / m.shape[0]
        if not np.isfinite(self.sigma2):
            raise NotFiniteError("system matrix trace overflows")
        self.matrix = m


def steering_vector(side, azimuth, elevation):
    """Half-wavelength T x T planar-array response, one row per direction.

    Kronecker product of the two axis responses with directional cosines
    u = sin(az) cos(el) and v = sin(el).  Scalar angles give an (N,)
    vector; arrays of angles broadcast together and give one length-N row
    per direction, each entry as the scalar call computes it.  Every entry
    has unit modulus, so the squared norm is N to rounding.
    """
    u = np.asarray(np.sin(azimuth) * np.cos(elevation))[..., None]
    v = np.asarray(np.sin(elevation))[..., None]
    m = np.arange(side)
    ax = np.exp(1j * np.pi * m * u)
    ay = np.exp(1j * np.pi * m * v)
    rows = ax[..., :, None] * ay[..., None, :]
    return rows.reshape(rows.shape[:-2] + (side * side,))


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


def _hermitian_part_inplace(c):
    """Overwrite the square array c with its Hermitian part 0.5 (c + c^H)
    and return whether every entry of it is finite.

    One pass over the tile pairs (i, j), (j, i) on and above the diagonal.
    Both new tiles are formed from the old ones in two tile buffers before
    either is written, each entry as conj(c^T) + c, then * 0.5, so the
    result is bit-identical to 0.5 * (c + c.conj().T) with no N x N
    temporary.  (Mirroring one new tile into the other would match in
    value but not in the signed zeros of the imaginary parts.)  The
    finiteness check reads the new tiles while they sit in the buffers.
    """
    n = c.shape[0]
    buf = np.empty((2, _PANEL * _PANEL), dtype=np.complex128)
    finite = True
    for i in range(0, n, _PANEL):
        for j in range(i, n, _PANEL):
            upper = c[i:i + _PANEL, j:j + _PANEL]
            lower = c[j:j + _PANEL, i:i + _PANEL]
            new_upper = buf[0, :upper.size].reshape(upper.shape)
            new_lower = buf[1, :lower.size].reshape(lower.shape)
            np.conjugate(lower.T, out=new_upper)
            new_upper += upper
            new_upper *= 0.5
            np.conjugate(upper.T, out=new_lower)
            new_lower += lower
            new_lower *= 0.5
            finite = finite and np.isfinite(buf[:, :upper.size]).all()
            upper[...] = new_upper
            lower[...] = new_lower
    return bool(finite)


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

    Users sit at uniform dB spacing from cfg.snr_db_low to cfg.snr_db_high.
    Tap delays are drawn without replacement per user, which makes the
    subcarrier average of h h^H reproduce the covariance exactly on the
    full grid.

    Returns
    -------
    (stats, channels) : lists of UserStats and InstantChannel, one entry
        per user in user order.
    """
    cfg.validate()
    n = cfg.n_antennas
    k_sc = cfg.subcarriers
    low, high = cfg.snr_db_low, cfg.snr_db_high
    if cfg.n_ue == 1:
        targets_db = [0.5 * (low + high)]
    else:
        targets_db = [low + (high - low) * i / (cfg.n_ue - 1)
                      for i in range(cfg.n_ue)]

    stats = []
    channels = []
    for user in range(cfg.n_ue):
        for attempt in range(5):
            azimuths, elevations, powers, phases, taps = _draw_user(cfg, user, attempt)
            # column s * paths_per_user + l steers stream s, path l
            steer = np.ascontiguousarray(steering_vector(
                cfg.side, azimuths.reshape(-1), elevations.reshape(-1)).T)
            if not _degenerate(steer, n):
                break
        else:
            raise DegenerateGeometryError(
                "user %d geometry stayed colinear after 5 attempts" % user)

        weights = (powers / cfg.n_streams).reshape(-1)
        cov = (steer * weights) @ steer.conj().T
        _hermitian_part_inplace(cov)
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
        return SystemMatrix._adopt(q, "antenna")
    except NotFiniteError as err:
        raise ConfigError("assembled system matrix is not finite") from err


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
    """Parse a flat key=value scenario config file into a ScenarioConfig.

    Each key may appear once; a repeated key is a ConfigError naming both
    of its lines."""
    cfg = ScenarioConfig()
    first_line = {}
    for lineno, line in read_config_lines(path):
        if "=" not in line:
            raise ConfigError("%s:%d: expected key = value, got %r"
                              % (path, lineno, line))
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError("%s:%d: unknown config key %r" % (path, lineno, key))
        if key in first_line:
            raise ConfigError("%s:%d: duplicate config key %r, first set on "
                              "line %d" % (path, lineno, key, first_line[key]))
        first_line[key] = lineno
        try:
            parsed = _CONFIG_KEYS[key](value)
        except ValueError as err:
            raise ConfigError("%s:%d: bad value for %s: %r"
                              % (path, lineno, key, value)) from err
        cfg = replace(cfg, **{key: parsed})
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


# perfbench's tracer binds the `path` argument of these four by name
def save_scenario(path, cfg, stats, channels):
    """Write config, covariances and channels as one BSLV container."""
    cfg.validate()
    n = cfg.n_antennas
    parts = [_HEADER.pack(*_header_values(cfg))]
    if len(stats) != cfg.n_ue or len(channels) != cfg.n_ue:
        raise ValueError("stats/channels length must match n_ue")
    for st, ch in zip(stats, channels):
        parts.append(_USER.pack(st.alpha, st.symbol_energy))
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
        cfg = ScenarioConfig(*_HEADER.unpack_from(payload, 0))
    except struct.error as err:
        raise MalformedHeaderError("%s: scenario header does not parse" % path) from err
    cfg.validate()
    n = cfg.n_antennas
    shape = (cfg.n_streams, cfg.paths_per_user)
    offset = _HEADER.size
    stats = []
    channels = []
    for _ in range(cfg.n_ue):
        if offset + _USER.size > len(payload):
            raise ChecksumError("%s: truncated user block" % path)
        alpha, energy = _USER.unpack_from(payload, offset)
        offset += _USER.size
        cov_flat, offset = _unpack_complex(payload, offset, n * n)
        cov = cov_flat.reshape(n, n)
        records, offset = _unpack(payload, offset, shape[0] * shape[1], _PATH)
        powers, azimuths, elevations, phases = (
            records[name].reshape(shape).astype(np.float64)
            for name in _PATH.names[:4])
        taps = records["tap"].reshape(shape).astype(np.int64)
        h_flat, offset = _unpack_complex(
            payload, offset, cfg.subcarriers * n * cfg.n_streams)
        h = h_flat.reshape(cfg.subcarriers, n, cfg.n_streams)
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
                     [_SHAPE.pack(*a.shape),
                      _pack_complex(a.reshape(-1))])


def load_matrix(path):
    """Read a BSLV matrix container, as an aligned view into its read
    buffer."""
    payload = _read_container(path, _KIND_MATRIX)
    try:
        rows, cols = _SHAPE.unpack_from(payload, 0)
    except struct.error as err:
        raise MalformedHeaderError("%s: matrix header does not parse" % path) from err
    flat, offset = _unpack_complex(payload, _SHAPE.size, rows * cols)
    if offset != len(payload):
        raise MalformedHeaderError("%s: %d stray payload bytes"
                                   % (path, len(payload) - offset))
    return flat.reshape(rows, cols)
