"""Scenario configuration and geometry-driven random channel generation.

Channels combine a unit-variance circularly-symmetric complex Gaussian
fading draw with a distance-dependent path loss:

    links into the base station (cellular or D2D transmitter):
        37.6*log10(d_km) + 128.1 dB
    links into a device (D2D pair link, cellular-to-receiver cross link):
        40*log10(d_km) + 148 dB

Randomness is split into named streams derived from one 64-bit seed via
numpy's SeedSequence.spawn, in the fixed order (geometry, fading,
baseline, skeleton), so every experiment is reproducible and independent
sub-draws never alias.  Within the geometry and fading streams all
per-pair quantities are drawn pair by pair, so a scenario with fewer D2D
pairs consumes a prefix of the draws of a scenario with more pairs and
shared-geometry comparisons stay paired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


class ConfigError(ValueError):
    """Configuration file or field range problem."""


def dbm_to_watts(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watts_to_dbm(x_w: float) -> float:
    return 10.0 * np.log10(x_w) + 30.0


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def path_loss_db(kind: str, distance_m: float) -> float:
    """Distance-dependent path loss in dB; kind is "cellular" or "d2d"."""
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    d_km = distance_m / 1000.0
    if kind == "cellular":
        return 37.6 * np.log10(d_km) + 128.1
    if kind == "d2d":
        return 40.0 * np.log10(d_km) + 148.0
    raise ValueError(f"unknown path loss kind {kind!r}")


# which model each link type uses: links terminating at the base station
# share its antenna-height assumptions and use the cellular model, links
# terminating at a device use the device-to-device model
LINK_MODELS = {
    "cell_to_bs": "cellular",
    "d2d_to_bs": "cellular",
    "d2d_pair": "d2d",
    "cell_to_d2d": "d2d",
}


@dataclass
class ScenarioConfig:
    """Scenario parameters; defaults are the baseline simulation scenario."""

    J: int = 6                                  # cellular users
    K: int = 4                                  # OFDM subcarriers
    N: int = 2                                  # non-zero codeword dimensions
    J_D: int = 1                                # D2D pairs
    noise_dbm_per_hz: float = -174.0
    bandwidth_hz: float = 180e3
    cellular_power_cap_dbm: float = 30.0
    d2d_power_cap_dbm: float = 30.0
    cellular_sinr_floor_db: float = 0.0
    d2d_sinr_floor_db: float = 10.0
    cell_radius_m: float = 500.0
    d2d_distance_range_m: tuple = (1.0, 20.0)
    seed: int = 0
    report_bits_per_second: bool = False

    # -- derived linear-unit quantities -------------------------------
    @property
    def noise_power_w(self) -> float:
        """Total noise power per subcarrier: density times bandwidth."""
        return dbm_to_watts(self.noise_dbm_per_hz) * self.bandwidth_hz

    @property
    def cellular_power_cap_w(self) -> float:
        return dbm_to_watts(self.cellular_power_cap_dbm)

    @property
    def d2d_power_cap_w(self) -> float:
        return dbm_to_watts(self.d2d_power_cap_dbm)

    @property
    def cellular_sinr_floor(self) -> float:
        return db_to_linear(self.cellular_sinr_floor_db)

    @property
    def d2d_sinr_floor(self) -> float:
        return db_to_linear(self.d2d_sinr_floor_db)

    @property
    def rate_scale(self) -> float:
        """Multiplier applied to reported rates (bandwidth when reporting
        bits/s, 1 for bits/s/Hz)."""
        return self.bandwidth_hz if self.report_bits_per_second else 1.0

    def validate(self):
        """Range-check every field, naming the offender."""
        for name in ("J", "K", "N"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if self.J_D < 0:
            raise ConfigError("J_D must be non-negative")
        if self.J_D > self.K:
            raise ConfigError(f"J_D = {self.J_D} exceeds the K = {self.K} subcarriers")
        if self.N > self.K:
            raise ConfigError("N must not exceed K")
        if not 0.0 < self.bandwidth_hz < math.inf:
            raise ConfigError("bandwidth_hz must be positive and finite")
        if not 0.0 < self.cell_radius_m < math.inf:
            raise ConfigError("cell_radius_m must be positive and finite")
        lo, hi = self.d2d_distance_range_m
        if not (1.0 <= lo <= hi < math.inf):
            raise ConfigError("d2d_distance_range_m must satisfy 1 <= min <= max < inf")
        # every dB or dBm field must give a positive, finite linear value; a
        # finite one can still overflow or underflow on the way
        for name, linear in (("noise_dbm_per_hz", "noise_power_w"),
                             ("cellular_power_cap_dbm", "cellular_power_cap_w"),
                             ("d2d_power_cap_dbm", "d2d_power_cap_w"),
                             ("cellular_sinr_floor_db", "cellular_sinr_floor"),
                             ("d2d_sinr_floor_db", "d2d_sinr_floor")):
            try:
                value = getattr(self, linear)
            except OverflowError:
                value = math.inf
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} = {getattr(self, name)!r} is out of range: "
                                  f"{linear} must be positive and finite")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        return self


@dataclass
class RngStreams:
    """Named random streams spawned from one seed (fixed spawn order)."""

    geometry: np.random.Generator
    fading: np.random.Generator
    baseline: np.random.Generator
    skeleton: np.random.Generator


def rng_streams(seed: int) -> RngStreams:
    children = np.random.SeedSequence(seed).spawn(4)
    return RngStreams(*(np.random.default_rng(c) for c in children))


@dataclass
class NodeGeometry:
    """Positions in meters; the base station sits at the origin."""

    cell_user_positions: np.ndarray   # (J, 2)
    d2d_tx_positions: np.ndarray      # (J_D, 2)
    d2d_rx_positions: np.ndarray      # (J_D, 2)

    def pair_distances(self):
        return np.linalg.norm(self.d2d_tx_positions - self.d2d_rx_positions, axis=1)


@dataclass
class ChannelRealization:
    """Complex gains for every link plus the per-subcarrier noise power."""

    cell_to_bs: np.ndarray    # (J, K)
    d2d_to_bs: np.ndarray     # (J_D,)
    d2d_pair: np.ndarray      # (J_D,)
    cell_to_d2d: np.ndarray   # (J, J_D)
    noise_power_w: float

    def __post_init__(self):
        for name in ("cell_to_bs", "d2d_to_bs", "d2d_pair", "cell_to_d2d"):
            a = getattr(self, name)
            if not np.all(np.isfinite(a)) or np.any(a == 0):
                raise ValueError(f"{name} gains must be finite and non-zero")
        if not self.noise_power_w > 0:
            raise ValueError("noise_power_w must be positive")


def _disk_point(rng, radius):
    r = radius * np.sqrt(rng.uniform())
    theta = rng.uniform(0, 2 * np.pi)
    return np.array([r * np.cos(theta), r * np.sin(theta)])


def _annulus_offset(rng, r_min, r_max):
    # area-uniform over the annulus
    r = np.sqrt(rng.uniform(r_min ** 2, r_max ** 2))
    theta = rng.uniform(0, 2 * np.pi)
    return np.array([r * np.cos(theta), r * np.sin(theta)])


def sample_geometry(cfg: ScenarioConfig, rng: np.random.Generator) -> NodeGeometry:
    """Cellular users uniform in the cell disk; each D2D transmitter
    uniform in the disk with its receiver on the configured annulus."""
    cell = np.array([_disk_point(rng, cfg.cell_radius_m) for _ in range(cfg.J)])
    lo, hi = cfg.d2d_distance_range_m
    txs, rxs = [], []
    for _ in range(cfg.J_D):
        tx = _disk_point(rng, cfg.cell_radius_m)
        rx = tx + _annulus_offset(rng, lo, hi)
        txs.append(tx)
        rxs.append(rx)
    return NodeGeometry(
        cell_user_positions=cell.reshape(cfg.J, 2),
        d2d_tx_positions=np.array(txs).reshape(cfg.J_D, 2),
        d2d_rx_positions=np.array(rxs).reshape(cfg.J_D, 2),
    )


def rayleigh_fading(rng, size):
    """Unit-variance circularly-symmetric complex Gaussian draws."""
    return (rng.normal(size=size) + 1j * rng.normal(size=size)) / np.sqrt(2)


def _gain(rng, kind, distance_m, size):
    amp = np.sqrt(db_to_linear(-path_loss_db(LINK_MODELS[kind], distance_m)))
    return rayleigh_fading(rng, size) * amp


def sample_channels(cfg: ScenarioConfig, geo: NodeGeometry,
                    rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization for the given geometry.

    Cellular fading is independent per subcarrier; per-pair draws happen
    pair by pair (see module docstring).
    """
    bs = np.zeros(2)
    cell_dist = np.linalg.norm(geo.cell_user_positions - bs, axis=1)
    cell_to_bs = np.empty((cfg.J, cfg.K), dtype=complex)
    for j in range(cfg.J):
        cell_to_bs[j] = _gain(rng, "cell_to_bs", cell_dist[j], cfg.K)
    d2d_to_bs = np.empty(cfg.J_D, dtype=complex)
    d2d_pair = np.empty(cfg.J_D, dtype=complex)
    cell_to_d2d = np.empty((cfg.J, cfg.J_D), dtype=complex)
    for l in range(cfg.J_D):
        tx, rx = geo.d2d_tx_positions[l], geo.d2d_rx_positions[l]
        d2d_to_bs[l] = _gain(rng, "d2d_to_bs", np.linalg.norm(tx - bs), None)
        d2d_pair[l] = _gain(rng, "d2d_pair", np.linalg.norm(tx - rx), None)
        for j in range(cfg.J):
            cell_to_d2d[j, l] = _gain(
                rng, "cell_to_d2d",
                np.linalg.norm(geo.cell_user_positions[j] - rx), None)
    return ChannelRealization(
        cell_to_bs=cell_to_bs,
        d2d_to_bs=d2d_to_bs,
        d2d_pair=d2d_pair,
        cell_to_d2d=cell_to_d2d,
        noise_power_w=cfg.noise_power_w,
    )


def dump_channels_csv(ch: ChannelRealization, path) -> None:
    """One row per link (0-based indices): type,index1,index2,real,imag."""
    with open(path, "w") as fh:
        fh.write("type,index1,index2,real,imag\n")
        for (j, k), v in np.ndenumerate(ch.cell_to_bs):
            fh.write(f"cell_to_bs,{j},{k},{float(v.real)!r},{float(v.imag)!r}\n")
        for l, v in enumerate(ch.d2d_to_bs):
            fh.write(f"d2d_to_bs,{l},,{float(v.real)!r},{float(v.imag)!r}\n")
        for l, v in enumerate(ch.d2d_pair):
            fh.write(f"d2d_pair,{l},,{float(v.real)!r},{float(v.imag)!r}\n")
        for (j, l), v in np.ndenumerate(ch.cell_to_d2d):
            fh.write(f"cell_to_d2d,{j},{l},{float(v.real)!r},{float(v.imag)!r}\n")
        fh.write(f"noise_power_w,,,{float(ch.noise_power_w)!r},0.0\n")


# ---------------------------------------------------------------------------
# flat key-value config files ("key = value" per line, # starts a comment)

def parse_config(path) -> ScenarioConfig:
    """Read a scenario file; unspecified fields keep baseline defaults.
    Raises ConfigError with the offending line or field named."""
    with open(path) as fh:
        text = fh.read()
    return parse_config_text(text)


def _parse_bool(val: str) -> bool:
    if val.lower() not in ("true", "false", "0", "1"):
        raise ValueError(val)
    return val.lower() in ("true", "1")


def _parse_pair(val: str) -> tuple:
    parts = [p for p in val.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise ValueError(val)
    return float(parts[0]), float(parts[1])


# declared field type (a string under postponed annotations) -> parser
_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "tuple": _parse_pair}


def parse_config_text(text: str) -> ScenarioConfig:
    types = {f.name: f.type for f in fields(ScenarioConfig)}
    values, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown field {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: {key} already given on line {seen[key]}")
        seen[key] = lineno
        try:
            values[key] = _PARSERS[types[key]](val)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from None
    cfg = ScenarioConfig(**values)
    cfg.validate()
    return cfg


def format_config(cfg: ScenarioConfig) -> str:
    lines = []
    for f in fields(ScenarioConfig):
        v = getattr(cfg, f.name)
        if f.type == "tuple":
            v = f"{v[0]!r},{v[1]!r}"
        elif f.type == "bool":
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def save_config(cfg: ScenarioConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_config(cfg))
