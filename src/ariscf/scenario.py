"""Network scenario: static parameters, geometry, large-scale gains, RIS spatial correlation."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from functools import cached_property, lru_cache

import numpy as np
import yaml

SPEED_OF_LIGHT = 299_792_458.0

# Fields holding powers in watts; the config loader also accepts "<name>_dbm".
POWER_FIELDS = ("rho", "rho_u", "sigma2", "sigma2_bar", "P_aris", "P_c", "P_dc", "P0")

# Minimum link distance in meters; the path-loss model diverges as d -> 0.
MIN_DISTANCE = 1.0


def dbm_to_watt(value_dbm: float) -> float:
    return 10.0 ** (value_dbm / 10.0) * 1e-3


def _default_wavelength() -> float:
    return SPEED_OF_LIGHT / 1.9e9


@dataclass(frozen=True)
class Scenario:
    """Static system parameters, SI units throughout.

    Defaults follow the reference urban deployment: 500 m disc, 1.9 GHz
    carrier, -80 dBm noise, quarter-wavelength RIS elements.
    """

    M: int = 20                     # access points (single antenna)
    K: int = 15                     # users (single antenna)
    N_H: int = 8                    # RIS elements per row
    N_V: int = 8                    # RIS elements per column
    d_H: float | None = None        # element width (m), default wavelength/4
    d_V: float | None = None        # element height (m), default wavelength/4
    wavelength: float = _default_wavelength()
    radius: float = 500.0           # deployment disc radius (m)
    rho: float = 0.1                # pilot transmit power (W)
    rho_u: float = 0.1              # uplink data power (W)
    tau_p: int = 15                 # pilot length (symbols)
    tau_c: int = 200                # coherence interval (symbols)
    sigma2: float = dbm_to_watt(-80.0)       # AP noise power (W)
    sigma2_bar: float = dbm_to_watt(-80.0)   # RIS element noise power (W)
    beta_exp: float = 4.0           # AP-user path-loss exponent
    alpha1_exp: float = 2.5         # AP-RIS path-loss exponent
    alpha2_exp: float = 2.5         # RIS-user path-loss exponent
    P_aris: float = 1.0             # active-RIS power budget (W), 30 dBm
    P_c: float = dbm_to_watt(-10.0)          # per-element circuit power (W)
    P_dc: float = dbm_to_watt(-5.0)          # per-element DC bias power (W)
    xi: float = 0.8                 # amplifier efficiency
    a_max: float = 10.0             # maximum amplitude gain
    zeta: float = 0.3               # user PA efficiency
    P0: float = 0.825               # fixed backhaul power per AP (W)
    Pbt: float = 0.25e-9            # traffic-dependent backhaul power (W per bit/s)
    B: float = 20e6                 # system bandwidth (Hz)
    grid_indexing: str = "paper"    # "paper" | "row_major", see build_correlation_matrix

    def __post_init__(self):
        if self.d_H is None:
            object.__setattr__(self, "d_H", self.wavelength / 4.0)
        if self.d_V is None:
            object.__setattr__(self, "d_V", self.wavelength / 4.0)
        self.validate()

    @property
    def N(self) -> int:
        return self.N_H * self.N_V

    @property
    def element_area(self) -> float:
        return self.d_H * self.d_V

    @property
    def pilot_of(self) -> np.ndarray:
        """(K,) pilot index per user, round-robin: user k sends pilot k mod tau_p."""
        return np.arange(self.K) % self.tau_p

    @property
    def coset_mask(self) -> np.ndarray:
        """(K, K) boolean, [k, j] true iff user j shares user k's pilot."""
        pilot_of = self.pilot_of
        return pilot_of[:, None] == pilot_of[None, :]

    @property
    def geometry(self) -> tuple:
        """The RIS fields that R depends on, in `build_correlation_matrix`'s argument order."""
        return (self.N_H, self.N_V, self.d_H, self.d_V, self.wavelength, self.grid_indexing)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.M < 1 or self.K < 1 or self.N_H < 1 or self.N_V < 1:
            raise ValueError("M, K, N_H, N_V must all be >= 1")
        if self.tau_p < 1 or self.tau_p > self.tau_c:
            raise ValueError("need 1 <= tau_p <= tau_c")
        for name in POWER_FIELDS + ("Pbt",):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.rho == 0:
            raise ValueError("rho must be > 0: LMMSE estimation needs pilot power")
        if not 0 < self.xi <= 1:
            raise ValueError("xi must be in (0, 1]")
        if not 0 < self.zeta <= 1:
            raise ValueError("zeta must be in (0, 1]")
        if self.a_max < 1:
            raise ValueError("a_max must be >= 1")
        for name in ("d_H", "d_V", "wavelength", "radius", "B"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.grid_indexing not in ("paper", "row_major"):
            raise ValueError("grid_indexing must be 'paper' or 'row_major'")

    def config_hash(self) -> str:
        """SHA-256 of the fully resolved parameter set (stable key order)."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


# Declared type per field: "int" fields take integral values, the others floats or a str.
_FIELD_TYPES = {f.name: f.type for f in fields(Scenario)}


def load_scenario(path: str) -> Scenario:
    """Load a Scenario from a flat key-value YAML file of `config_field` entries."""
    with open(path) as fh:
        raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError(f"config {path!r} must be a flat key-value mapping")
    return scenario_from_dict(raw)


def _integer(key: str, value) -> int:
    """An integer field's value: an int, an integral float or a numeric string."""
    if isinstance(value, int) or isinstance(value, str) and value.strip().isdecimal():
        return int(value)   # exact, also past 2**53
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(number)


def config_field(key: str, value) -> tuple[str, object]:
    """The Scenario field and value of one config entry, for the loader and `sweep --param`.

    Keys are field names; a power may instead be given in dBm as `<field>_dbm`,
    and `carrier_frequency` (Hz) may replace `wavelength`."""
    if not isinstance(key, str):   # YAML reads keys like 1 or true as an int or a bool
        raise ValueError(f"unknown config key: {key!r}")
    # YAML reads true/yes/on as bools, which int() and float() would take as 1
    if isinstance(value, bool):
        raise ValueError(f"{key} must not be a boolean, got {value!r}")
    if key == "carrier_frequency":
        value = float(value)
        if value <= 0:
            raise ValueError(f"carrier_frequency must be > 0, got {value!r}")
        return "wavelength", SPEED_OF_LIGHT / value
    if key.endswith("_dbm") and key[:-4] in POWER_FIELDS:
        return key[:-4], dbm_to_watt(float(value))
    if _FIELD_TYPES.get(key) == "int":
        return key, _integer(key, value)
    if key == "grid_indexing":
        return key, str(value)
    if key in _FIELD_TYPES:
        # YAML 1.1 reads exponents like 1.0e6 as strings; coerce
        return key, float(value)
    raise ValueError(f"unknown config key: {key!r}")


def scenario_from_dict(raw: dict) -> Scenario:
    """A Scenario from config entries; a field given in two spellings is an error."""
    kwargs = {}
    for key, value in raw.items():
        name, value = config_field(key, value)
        if name in kwargs:
            raise ValueError(f"{name} is given twice: {key!r} spells it a second time")
        kwargs[name] = value
    return Scenario(**kwargs)


def element_positions(N_H: int, N_V: int, d_H: float, d_V: float,
                      indexing: str = "paper") -> np.ndarray:
    """3-D positions of the RIS elements, one row per element.

    "paper" enumerates horizontal offsets mod N_H and vertical offsets by
    floor division with N_V; for N_H != N_V this is not a plain row-major
    grid walk (it can revisit positions). "row_major" divides by N_H instead
    and always fills the N_H x N_V grid.
    """
    idx = np.arange(N_H * N_V)
    if indexing == "paper":
        horiz = np.mod(idx, N_H) * d_H
        vert = (idx // N_V) * d_V
    elif indexing == "row_major":
        horiz = np.mod(idx, N_H) * d_H
        vert = (idx // N_H) * d_V
    else:
        raise ValueError("indexing must be 'paper' or 'row_major'")
    return np.column_stack([np.zeros_like(horiz), horiz, vert])


def build_correlation_matrix(N_H: int, N_V: int, d_H: float, d_V: float,
                             wavelength: float, indexing: str = "paper") -> np.ndarray:
    """Base spatial correlation of the RIS: [R]_(n1,n2) = sinc(2 ||u_n1 - u_n2|| / wavelength).

    Squared distances summed axis by axis, then np.sinc's steps in place: the
    bytes of np.sinc(2 sqrt(sum(diff ** 2, -1)) / wavelength) without its
    (N, N, 3) difference cube.
    """
    pos = element_positions(N_H, N_V, d_H, d_V, indexing)
    R = sum(np.subtract.outer(p, p) ** 2 for p in pos.T)
    np.sqrt(R, out=R)
    R *= 2.0
    R /= wavelength
    R *= np.pi
    R[R == 0] = np.finfo(R.dtype).eps
    np.divide(np.sin(R), R, out=R)
    return R


@lru_cache(maxsize=1)
def ris_correlation(geometry: tuple) -> tuple[np.ndarray, np.ndarray]:
    """R and R @ R of one `Scenario.geometry`, read-only. The last geometry's pair
    is kept: a sweep visits all seeds of one geometry in a row."""
    R = build_correlation_matrix(*geometry)
    R2 = R @ R
    R.flags.writeable = R2.flags.writeable = False
    return R, R2


def large_scale_gain(distance_m: float, exponent: float) -> float:
    """Power-law gain 1e-3 * d^(-exponent); distances below 1 m are clamped."""
    d = np.maximum(distance_m, MIN_DISTANCE)
    return 1e-3 * d ** (-exponent)


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor F with F F^H == cov after clipping negative eigenvalues to zero.

    Eigendecomposition rather than Cholesky: the sinc kernel is PSD only up
    to numerical noise and may be singular.
    """
    w, v = np.linalg.eigh(cov)
    return v * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True)
class NetworkRealization:
    """One draw of the network geometry and its large-scale quantities.

    R and R's factor are not fields: they follow from `scenario.geometry`,
    read once per realization.
    """

    scenario: Scenario
    ap_positions: np.ndarray      # (M, 2)
    user_positions: np.ndarray    # (K, 2)
    beta: np.ndarray              # (M, K) AP-user gains
    alpha: np.ndarray             # (M,)   AP-RIS gains
    alpha_bar: np.ndarray         # (K,)   RIS-user gains

    @cached_property
    def R(self) -> np.ndarray:
        """(N, N) base correlation matrix of the scenario's RIS geometry, shared per geometry."""
        return ris_correlation(self.scenario.geometry)[0]

    @cached_property
    def R_factor(self) -> np.ndarray:
        """(N, N) PSD-repaired factor of R; only the Monte Carlo oracle samples from it."""
        return psd_factor(self.R)


def sample_layout(scenario: Scenario, rng_seed: int) -> NetworkRealization:
    """Drop APs equispaced on the disc diameter, the RIS at one diameter
    endpoint, and users uniformly inside the disc; derive all large-scale
    quantities. Deterministic in `rng_seed`."""
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    r = scenario.radius
    m_idx = np.arange(scenario.M)
    ap_positions = np.column_stack([-r + (2 * m_idx + 1) * r / scenario.M,
                                    np.zeros(scenario.M)])
    ris_position = np.array([r, 0.0])

    u = rng.uniform(size=scenario.K)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=scenario.K)
    user_positions = np.column_stack([r * np.sqrt(u) * np.cos(phi),
                                      r * np.sqrt(u) * np.sin(phi)])

    d_mk = np.linalg.norm(ap_positions[:, None, :] - user_positions[None, :, :], axis=-1)
    d_m = np.linalg.norm(ap_positions - ris_position, axis=-1)
    d_k = np.linalg.norm(user_positions - ris_position, axis=-1)

    beta = large_scale_gain(d_mk, scenario.beta_exp)
    alpha = large_scale_gain(d_m, scenario.alpha1_exp)
    alpha_bar = large_scale_gain(d_k, scenario.alpha2_exp)

    return NetworkRealization(
        scenario=scenario,
        ap_positions=ap_positions,
        user_positions=user_positions,
        beta=beta,
        alpha=alpha,
        alpha_bar=alpha_bar,
    )
