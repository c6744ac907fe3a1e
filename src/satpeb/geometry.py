"""Spherical-Earth geometry: coordinate frames, circular orbits, anchor layouts.

All positions are ECEF numpy arrays in meters unless stated otherwise. The
Earth is a non-rotating sphere of radius EARTH_RADIUS_M; measurement windows
are short enough (<= 10 s) that Earth rotation is absorbed into the anchor
positions, which are treated as known exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import EARTH_RADIUS_M, MU_EARTH


class SatRole(str, Enum):
    SERVING_LEO = "serving-leo"
    NEIGHBOR_LEO = "neighbor-leo"
    GNSS = "gnss"


def _wrap_longitude(lon: float) -> float:
    return (lon + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class Geodetic:
    """Latitude/longitude in radians, altitude in meters above the sphere."""

    lat_rad: float
    lon_rad: float
    alt_m: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.lat_rad) and math.isfinite(self.lon_rad)
                and math.isfinite(self.alt_m)):
            raise ValueError("geodetic components must be finite")
        if not -math.pi / 2 <= self.lat_rad <= math.pi / 2:
            raise ValueError(f"latitude {self.lat_rad} outside [-pi/2, pi/2]")
        object.__setattr__(self, "lon_rad", _wrap_longitude(self.lon_rad))


@dataclass(frozen=True)
class OrbitSpec:
    """Circular orbit: altitude, inclination, ascending-node longitude, and
    initial argument of latitude (angle along the orbit from the node)."""

    altitude_m: float
    inclination_rad: float
    raan_rad: float = 0.0
    arg_lat0_rad: float = 0.0

    def __post_init__(self):
        if self.altitude_m <= 0:
            raise ValueError("orbit altitude must be positive")

    @property
    def radius_m(self) -> float:
        return EARTH_RADIUS_M + self.altitude_m

    @property
    def angular_rate(self) -> float:
        """Mean motion of the circular orbit, rad/s."""
        return math.sqrt(MU_EARTH / self.radius_m**3)

    @property
    def speed(self) -> float:
        return math.sqrt(MU_EARTH / self.radius_m)


@dataclass(frozen=True)
class SatelliteState:
    """ECEF position/velocity of an anchor at one time instant."""

    position: np.ndarray
    velocity: np.ndarray
    time_s: float
    role: SatRole = SatRole.SERVING_LEO


@dataclass(frozen=True)
class AnchorSet:
    """Ordered anchors sharing an epoch convention, one of them serving."""

    states: tuple[SatelliteState, ...]
    serving_index: int = 0

    def __post_init__(self):
        if not self.states:
            raise ValueError("anchor set must be non-empty")
        if not 0 <= self.serving_index < len(self.states):
            raise ValueError("serving index out of range")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def serving(self) -> SatelliteState:
        return self.states[self.serving_index]

    def positions(self) -> np.ndarray:
        """(N, 3) stack of anchor positions."""
        return np.array([s.position for s in self.states])


def geodetic_to_ecef(g: Geodetic) -> np.ndarray:
    r = EARTH_RADIUS_M + g.alt_m
    cl = math.cos(g.lat_rad)
    return np.array([
        r * cl * math.cos(g.lon_rad),
        r * cl * math.sin(g.lon_rad),
        r * math.sin(g.lat_rad),
    ])


def ecef_to_geodetic(p: np.ndarray) -> Geodetic:
    r = float(np.linalg.norm(p))
    if r == 0.0:
        raise ValueError("cannot convert the Earth center to geodetic")
    lat = math.asin(np.clip(p[2] / r, -1.0, 1.0))
    lon = math.atan2(p[1], p[0])
    return Geodetic(lat, lon, r - EARTH_RADIUS_M)


def enu_basis(origin: Geodetic) -> np.ndarray:
    """Rows are the east, north, up unit vectors at `origin` in ECEF."""
    sl, cl = math.sin(origin.lat_rad), math.cos(origin.lat_rad)
    so, co = math.sin(origin.lon_rad), math.cos(origin.lon_rad)
    return np.array([
        [-so, co, 0.0],
        [-sl * co, -sl * so, cl],
        [cl * co, cl * so, sl],
    ])


def enu_frames(lat_rad, lon_rad, alt_m=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Array form of `geodetic_to_ecef` and `enu_basis`: (..., 3) ECEF
    positions and (..., 3, 3) bases (rows east, north, up) for arrays of
    latitudes, longitudes and altitudes."""
    sl, cl = np.sin(lat_rad), np.cos(lat_rad)
    so, co = np.sin(lon_rad), np.cos(lon_rad)
    r = EARTH_RADIUS_M + np.asarray(alt_m, dtype=float)
    ecef = np.stack([r * cl * co, r * cl * so, r * sl], axis=-1)
    basis = np.stack([
        np.stack([-so, co, np.zeros_like(so)], axis=-1),
        np.stack([-sl * co, -sl * so, cl], axis=-1),
        np.stack([cl * co, cl * so, sl], axis=-1),
    ], axis=-2)
    return ecef, basis


def ecef_to_enu(point: np.ndarray, origin: Geodetic) -> np.ndarray:
    """Express `point` in the local east-north-up frame at `origin`."""
    return enu_basis(origin) @ (np.asarray(point, dtype=float) - geodetic_to_ecef(origin))


def enu_to_ecef(enu: np.ndarray, origin: Geodetic) -> np.ndarray:
    return geodetic_to_ecef(origin) + enu_basis(origin).T @ np.asarray(enu, dtype=float)


def propagate_circular_orbit(spec: OrbitSpec, t: float,
                             role: SatRole = SatRole.SERVING_LEO) -> SatelliteState:
    """Two-body circular orbit state at time `t` seconds from epoch."""
    if not math.isfinite(t):
        raise ValueError("propagation time must be finite")
    r = spec.radius_m
    w = spec.angular_rate
    u = spec.arg_lat0_rad + w * t
    ci, si = math.cos(spec.inclination_rad), math.sin(spec.inclination_rad)
    co, so = math.cos(spec.raan_rad), math.sin(spec.raan_rad)
    cu, su = math.cos(u), math.sin(u)
    position = r * np.array([
        cu * co - su * ci * so,
        cu * so + su * ci * co,
        su * si,
    ])
    velocity = r * w * np.array([
        -su * co - cu * ci * so,
        -su * so + cu * ci * co,
        cu * si,
    ])
    return SatelliteState(position=position, velocity=velocity, time_s=t, role=role)


def ground_track_orbit(point: Geodetic, altitude_m: float) -> OrbitSpec:
    """Polar orbit whose satellite sits above `point` at t = 0, heading north."""
    return OrbitSpec(
        altitude_m=altitude_m,
        inclination_rad=math.pi / 2,
        raan_rad=point.lon_rad,
        arg_lat0_rad=point.lat_rad,
    )


def elevation_angle(ue: np.ndarray, sat: np.ndarray) -> float | np.ndarray:
    """Angle between the local horizontal plane at the UE and the UE->satellite
    direction. Negative values mean below the horizon. `sat` may be (3,) or
    (N, 3)."""
    ue = np.asarray(ue, dtype=float)
    sat = np.asarray(sat, dtype=float)
    up = ue / np.linalg.norm(ue)
    d = sat - ue
    dist = np.linalg.norm(d, axis=-1)
    sin_el = (d @ up) / dist
    el = np.arcsin(np.clip(sin_el, -1.0, 1.0))
    return float(el) if el.ndim == 0 else el


def angle_between(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Angle between vectors; broadcasts over leading dimensions."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    cosang = np.sum(a * b, axis=-1) / (na * nb)
    ang = np.arccos(np.clip(cosang, -1.0, 1.0))
    return float(ang) if ang.ndim == 0 else ang


def make_virtual_anchors(spec: OrbitSpec, measurement_time_s: float,
                         n_anchors: int,
                         role: SatRole = SatRole.SERVING_LEO) -> AnchorSet:
    """Satellite states uniformly spaced in time over [-T/2, +T/2] about the
    epoch at which the beam center crosses the coverage-area center."""
    if measurement_time_s <= 0:
        raise ValueError("measurement time must be positive")
    if n_anchors < 2:
        raise ValueError("at least two virtual anchors are required")
    times = np.linspace(-measurement_time_s / 2.0, measurement_time_s / 2.0, n_anchors)
    states = tuple(propagate_circular_orbit(spec, float(t), role) for t in times)
    return AnchorSet(states=states, serving_index=0)


def destination_point(origin: Geodetic, bearing_rad: float,
                      angular_distance_rad: float) -> Geodetic:
    """Great-circle destination from `origin` along `bearing` (clockwise from
    north) through the given Earth-central angle; altitude preserved."""
    sd, cd = math.sin(angular_distance_rad), math.cos(angular_distance_rad)
    s1, c1 = math.sin(origin.lat_rad), math.cos(origin.lat_rad)
    lat2 = math.asin(max(-1.0, min(1.0, s1 * cd + c1 * sd * math.cos(bearing_rad))))
    lon2 = origin.lon_rad + math.atan2(
        math.sin(bearing_rad) * sd * c1, cd - s1 * math.sin(lat2))
    return Geodetic(lat2, lon2, origin.alt_m)


def _state_above(point: Geodetic, altitude_m: float, role: SatRole,
                 time_s: float = 0.0) -> SatelliteState:
    # Velocity from the north-heading polar orbit through the point, so the
    # circular-orbit invariants (speed, perpendicularity) hold exactly.
    orbit = ground_track_orbit(Geodetic(point.lat_rad, point.lon_rad, altitude_m),
                               altitude_m)
    state = propagate_circular_orbit(orbit, 0.0, role)
    return SatelliteState(position=state.position, velocity=state.velocity,
                          time_s=time_s, role=role)


def hex_constellation(center: Geodetic, lon_gap_rad: float, lat_gap_rad: float,
                      altitude_m: float) -> AnchorSet:
    """Seven satellites on a hexagonal grid: the serving satellite above
    `center`, two same-row neighbors at +-lon_gap, and four side-row neighbors
    at +-lat_gap offset by half a longitude gap. A zero latitude gap collapses
    the grid onto a single parallel."""
    if lon_gap_rad <= 0 or lat_gap_rad < 0:
        raise ValueError("grid gaps must be positive (latitude gap may be zero)")
    offsets = [
        (0.0, 0.0),
        (0.0, -lon_gap_rad),
        (0.0, lon_gap_rad),
        (lat_gap_rad, -lon_gap_rad / 2.0),
        (lat_gap_rad, lon_gap_rad / 2.0),
        (-lat_gap_rad, -lon_gap_rad / 2.0),
        (-lat_gap_rad, lon_gap_rad / 2.0),
    ]
    states = []
    for k, (dlat, dlon) in enumerate(offsets):
        point = Geodetic(center.lat_rad + dlat, center.lon_rad + dlon, 0.0)
        role = SatRole.SERVING_LEO if k == 0 else SatRole.NEIGHBOR_LEO
        states.append(_state_above(point, altitude_m, role))
    return AnchorSet(states=tuple(states), serving_index=0)
