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

load_scenario and load_matrix read a file's payload into one buffer and
check its CRC before any array is made.  The loaded covariance, channel
and matrix arrays are views into that buffer, which lives as long as any
of them does.  The payload sits in the buffer where the first complex
block is 16-byte aligned; a later block sits off the 8-byte complex
alignment only after an odd number of 36-byte path records, and is
copied.

load_system reads a scenario file in one sequential pass for the system
matrix alone, and holds Q plus one N x N buffer whatever the file's size:
each covariance is read into the buffer, checked and added into Q, and
the path and channel bytes pass through the same buffer unread.  Its
contract:

- Q's bytes and the exception class of a rejected file are those of
  assemble_q(load_scenario(path)[1]); both routes share the frame,
  header, size and per-user checks.
- No array leaves before the CRC over the whole payload has passed.  Any
  header, config, size or statistics error waits for the end of the CRC
  pass, so a corrupt or truncated file raises only a FileFormatError
  subclass, even where a partial sum would fail a statistics check first.
- The payload size the header implies is compared with the file's size
  (os.fstat) before any N x N block is made; a read that comes back
  short, as from a file cut while it is read, is a ChecksumError.

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
    "load_system",
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
# each user's record ahead of its covariance
_USER = np.dtype([("alpha", "<f8"), ("symbol_energy", "<f8")])
# the scenario header (the ScenarioConfig fields in order), a matrix's
# (rows, cols)
_HEADER = struct.Struct("<5I3dQ")
_SHAPE = struct.Struct("<2I")
# payload offset of each kind's first complex block: a scenario's first
# covariance follows the header and the first user's record
_FIRST_BLOCK = {_KIND_SCENARIO: _HEADER.size + _USER.itemsize,
                _KIND_MATRIX: _SHAPE.size}
# bytes of load_system's skip scratch, and the least its covariance buffer
# holds, since that buffer takes the scratch's place
_SKIP_BYTES = 1 << 16
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
    alpha c goes into q a few rows at a time through the same tile
    buffer, each entry as q + alpha * c forms it, so no panel-sized
    temporary is made.
    """
    n = c.shape[0]
    tile = np.empty(max(_PANEL * _PANEL, n), dtype=np.complex128)
    step = tile.size // n  # rows of alpha c per pass through the tile
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
        for r in range(0, rows.shape[0], step):
            part = rows[r:r + step]
            scaled = tile[:part.size].reshape(part.shape)
            np.multiply(part, alpha, out=scaled)
            q[i + r:i + r + part.shape[0]] += scaled
    return float(np.sqrt(squares)), float(np.sqrt(skew_squares))


def _add_user(q, cov, alpha, symbol_energy):
    """Check one user's statistics and add alpha cov into Q in place.

    The checks of assemble_q and load_system: the covariance must be
    N x N, finite and Hermitian with trace N
    (||C - C^H||_F <= 1e-12 ||C||_F), alpha and symbol_energy positive and
    finite; otherwise a ConfigError.  NaN fails every check.  One panel
    pass over the covariance checks it and adds it into Q.
    """
    n = q.shape[0]
    if cov.shape != (n, n):
        raise ConfigError("covariance shapes disagree")
    with np.errstate(over="ignore", invalid="ignore"):
        trace = float(np.real(np.trace(cov)))
        if not abs(trace - n) <= 1e-9 * n:
            raise ConfigError("covariance trace %r deviates from N=%d"
                              % (trace, n))
        scale, skew = _add_checked(q, cov, alpha)
    if not (np.isfinite(scale) and skew <= 1e-12 * scale):
        raise ConfigError("covariance is not finite and Hermitian")
    if not (alpha > 0.0 and np.isfinite(alpha)):
        raise ConfigError("alpha must be positive and finite, got %r" % alpha)
    if not (symbol_energy > 0.0 and np.isfinite(symbol_energy)):
        raise ConfigError("symbol_energy must be positive and finite, "
                          "got %r" % symbol_energy)


def _q_system(q):
    """The antenna system of the summed Q; a non-finite one is a
    ConfigError, as for any statistics a CRC-valid file can carry."""
    try:
        return SystemMatrix._adopt(q, "antenna")
    except NotFiniteError as err:
        raise ConfigError("assembled system matrix is not finite") from err


def assemble_q(stats):
    """Assemble the system matrix Q = I + sum_i alpha_i covariance_i.

    Empty stats are a ValueError: with no users the dimension is unknown.
    Each user passes the checks of _add_user, and Q must be finite;
    otherwise a ConfigError, as for an invalid config, since a CRC-valid
    scenario file can carry such statistics.
    """
    if not stats:
        raise ValueError("assemble_q needs at least one user")
    n = stats[0].covariance.shape[0]
    q = np.eye(n, dtype=np.complex128)
    for st in stats:
        _add_user(q, st.covariance, st.alpha, st.symbol_energy)
    return _q_system(q)


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


def _user_layout(cfg):
    """One user's blocks in file order, as (dtype, count): its record, its
    covariance, its path records and its channels."""
    n = cfg.n_antennas
    return ((_USER, 1), (np.dtype("<c16"), n * n),
            (_PATH, cfg.n_streams * cfg.paths_per_user),
            (np.dtype("<c16"), cfg.subcarriers * n * cfg.n_streams))


def _nbytes(blocks):
    return sum(dtype.itemsize * count for dtype, count in blocks)


def _check_size(path, expected, size):
    """A payload of `size` bytes must hold the `expected` bytes its header
    implies: fewer is a truncated file, more are stray bytes."""
    if size < expected:
        raise ChecksumError("%s: file truncated: the header implies %d "
                            "payload bytes, the file holds %d"
                            % (path, expected, size))
    if size > expected:
        raise MalformedHeaderError("%s: %d stray payload bytes"
                                   % (path, size - expected))


def _parse_header(path, head):
    """The validated config of a scenario payload that starts with `head`."""
    try:
        cfg = ScenarioConfig(*_HEADER.unpack_from(head, 0))
    except struct.error as err:
        raise MalformedHeaderError("%s: scenario header does not parse"
                                   % path) from err
    return cfg.validate()


def _unpack(buf, offset, count, dtype):
    """`count` records of `dtype` at `offset`, and the offset past them: a
    view of the buffer when it is aligned, else an aligned copy.  The
    caller has checked the buffer's length."""
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    return np.require(arr, requirements="A"), offset + arr.nbytes


def _write_container(path, kind, parts):
    """Write the payload `parts` in order, framed, without joining them."""
    crc = 0
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<HH", _VERSION, kind))
        for part in parts:
            crc = zlib.crc32(part, crc)
            fh.write(part)
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


def _check_frame(path, size, frame, expect_kind):
    """Check the magic, version and kind in the first 8 bytes of a
    container file of `size` bytes."""
    if size < 12 or frame[:4] != _MAGIC:
        raise MalformedHeaderError("%s: not a BSLV container" % path)
    version, kind = struct.unpack_from("<HH", frame, 4)
    if version != _VERSION:
        raise VersionError("%s: unsupported version %d" % (path, version))
    if kind != expect_kind:
        raise MalformedHeaderError("%s: record kind %d, expected %d"
                                   % (path, kind, expect_kind))


class _PayloadStream:
    """One sequential pass over the payload of an open container file.

    Construction checks the frame.  Every read adds its bytes to the CRC,
    and a read that comes back short, as from a file cut while it is read,
    is a ChecksumError.  Skipped bytes pass through `scratch`, which the
    caller may replace by a buffer of its own.
    """

    def __init__(self, fh, path, expect_kind):
        self.fh = fh
        self.path = path
        size = os.fstat(fh.fileno()).st_size
        frame = fh.read(8)
        if size >= 12 and len(frame) < 8:
            raise self._short()
        _check_frame(path, size, frame, expect_kind)
        self.size = self.left = size - 12  # payload bytes, and those unread
        self.crc = 0
        self.scratch = np.empty(_SKIP_BYTES, dtype=np.uint8)

    def _short(self):
        return ChecksumError("%s: file shorter than its size" % self.path)

    def read_into(self, out):
        """Fill the writable byte buffer `out` from the payload."""
        if self.fh.readinto(out) != len(out):
            raise self._short()
        self.crc = zlib.crc32(out, self.crc)
        self.left -= len(out)
        return out

    def read(self, count):
        return self.read_into(bytearray(count))

    def skip(self, count):
        while count:
            step = min(count, len(self.scratch))
            self.read_into(self.scratch[:step])
            count -= step

    def finish(self):
        """Read the rest of the payload and check the CRC."""
        self.skip(self.left)
        self.scratch = None  # the caller's buffer may go
        stored = self.fh.read(4)
        if len(stored) < 4:
            raise self._short()
        if struct.unpack("<I", stored)[0] != self.crc & 0xFFFFFFFF:
            raise ChecksumError("%s: payload CRC mismatch" % self.path)


def _read_container(path, expect_kind):
    """The CRC-checked payload of a container, as a byte array.

    The payload is read into one uninitialised buffer 16 bytes longer
    than it, starting at the pad that puts the kind's first complex block
    on a 16-byte boundary, so that the loaders can hand out views.
    """
    with open(path, "rb") as fh:
        stream = _PayloadStream(fh, path, expect_kind)
        buf = np.empty(stream.size + 16, dtype=np.uint8)
        pad = -(buf.ctypes.data + _FIRST_BLOCK[expect_kind]) % 16
        payload = stream.read_into(buf[pad:pad + stream.size])
        stream.finish()
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
        parts.append(np.array([(st.alpha, st.symbol_energy)],
                              dtype=_USER).tobytes())
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
    cfg = _parse_header(path, payload)
    layout = _user_layout(cfg)
    _check_size(path, _HEADER.size + cfg.n_ue * _nbytes(layout), len(payload))
    n = cfg.n_antennas
    shape = (cfg.n_streams, cfg.paths_per_user)
    offset = _HEADER.size
    stats = []
    channels = []
    for _ in range(cfg.n_ue):
        blocks = []
        for dtype, count in layout:
            block, offset = _unpack(payload, offset, count, dtype)
            blocks.append(block)
        (user,), cov_flat, records, h_flat = blocks
        powers, azimuths, elevations, phases = (
            records[name].reshape(shape).astype(np.float64)
            for name in _PATH.names[:4])
        taps = records["tap"].reshape(shape).astype(np.int64)
        stats.append(UserStats(covariance=cov_flat.reshape(n, n),
                               alpha=float(user["alpha"]),
                               symbol_energy=float(user["symbol_energy"])))
        channels.append(InstantChannel(
            h=h_flat.reshape(cfg.subcarriers, n, cfg.n_streams),
            powers=powers, azimuths=azimuths, elevations=elevations,
            phases=phases, taps=taps))
    return cfg, stats, channels


def _sum_covariances(stream):
    """(cfg, Q as an array) from the payload stream, one user at a time:
    each covariance is read into one N x N buffer, checked and added into
    Q, and the rest of its user's bytes pass through that buffer too."""
    cfg = _parse_header(stream.path, stream.read(min(_HEADER.size, stream.left)))
    layout = _user_layout(cfg)
    _check_size(stream.path, _HEADER.size + cfg.n_ue * _nbytes(layout),
                stream.size)
    n = cfg.n_antennas
    q = np.eye(n, dtype=np.complex128)
    buf = np.empty(max(n * n, _SKIP_BYTES // 16), dtype="<c16")
    stream.scratch = buf.view(np.uint8)  # the covariance's bytes lead it
    cov = buf[:n * n].reshape(n, n)
    rest = _nbytes(layout[2:])
    for _ in range(cfg.n_ue):
        user = np.frombuffer(stream.read(_USER.itemsize), dtype=_USER)[0]
        stream.read_into(stream.scratch[:cov.nbytes])
        _add_user(q, cov, float(user["alpha"]), float(user["symbol_energy"]))
        stream.skip(rest)
    return cfg, q


def load_system(path):
    """(cfg, antenna SystemMatrix Q) of a BSLV scenario container, read in
    one sequential pass that holds Q and one N x N buffer; the module
    docstring states its contract."""
    with open(path, "rb") as fh:
        stream = _PayloadStream(fh, path, _KIND_SCENARIO)
        try:
            cfg, q = _sum_covariances(stream)
        finally:  # a CRC mismatch or a short read takes precedence
            stream.finish()
    return cfg, _q_system(q)


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
    _check_size(path, _SHAPE.size + 16 * rows * cols, len(payload))
    flat, _ = _unpack(payload, _SHAPE.size, rows * cols, "<c16")
    return flat.reshape(rows, cols)
