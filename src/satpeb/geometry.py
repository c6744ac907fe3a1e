"""Spherical-Earth geometry: coordinate frames, circular orbits, anchor layouts.

All positions are ECEF numpy arrays in meters unless stated otherwise, and an
anchor layout is an (N, 3) stack of them: an anchor enters the bound only
through its position. The Earth is a non-rotating sphere of radius
EARTH_RADIUS_M; measurement windows are short enough (<= 10 s) that Earth
rotation is absorbed into the anchor positions, which are treated as known
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EARTH_RADIUS_M, MU_EARTH


def wrap_longitude(lon):
    """Longitude in radians, or an array of them, wrapped into [-pi, pi)."""
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
        object.__setattr__(self, "lon_rad", wrap_longitude(self.lon_rad))


@dataclass(frozen=True)
class OrbitSpec:
    """Circular orbit: altitude, inclination, ascending-node longitude, and
    initial argument of latitude (angle along the orbit from the node); the
    last two may be arrays of one shape, one orbit per element."""

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


def geodetic_to_ecef(g: Geodetic) -> np.ndarray:
    r = EARTH_RADIUS_M + g.alt_m
    cl = math.cos(g.lat_rad)
    return np.array([
        r * cl * math.cos(g.lon_rad),
        r * cl * math.sin(g.lon_rad),
        r * math.sin(g.lat_rad),
    ])


def enu_frames(lat_rad, lon_rad, alt_m=0.0) -> tuple[np.ndarray, np.ndarray]:
    """(..., 3) ECEF positions and (..., 3, 3) local bases (rows east, north,
    up) for arrays of latitudes, longitudes and altitudes."""
    sl, cl = np.sin(lat_rad), np.cos(lat_rad)
    so, co = np.sin(lon_rad), np.cos(lon_rad)
    r = EARTH_RADIUS_M + np.asarray(alt_m, dtype=float)
    rcl = r * cl
    ecef = np.empty(np.broadcast_shapes(rcl.shape, np.shape(co)) + (3,))
    ecef[..., 0], ecef[..., 1], ecef[..., 2] = rcl * co, rcl * so, r * sl
    basis = np.empty(np.broadcast_shapes(np.shape(sl), np.shape(so)) + (3, 3))
    basis[..., 0, 0], basis[..., 0, 1], basis[..., 0, 2] = -so, co, 0.0
    basis[..., 1, 0], basis[..., 1, 1], basis[..., 1, 2] = -sl * co, -sl * so, cl
    basis[..., 2, 0], basis[..., 2, 1], basis[..., 2, 2] = cl * co, cl * so, sl
    return ecef, basis


def propagate_circular_orbit(spec: OrbitSpec, t) -> np.ndarray:
    """(..., 3) ECEF positions on two-body circular orbits at the times `t`
    (seconds from epoch), broadcast against the spec's array fields, if any."""
    if not np.all(np.isfinite(t)):
        raise ValueError("propagation time must be finite")
    u = spec.arg_lat0_rad + spec.angular_rate * np.asarray(t, dtype=float)
    ci, si = np.cos(spec.inclination_rad), np.sin(spec.inclination_rad)
    co, so = np.cos(spec.raan_rad), np.sin(spec.raan_rad)
    cu, su = np.cos(u), np.sin(u)
    return spec.radius_m * np.stack([
        cu * co - su * ci * so,
        cu * so + su * ci * co,
        su * si,
    ], axis=-1)


def ground_track_orbit(point: Geodetic, altitude_m: float) -> OrbitSpec:
    """Polar orbit whose satellite sits above `point` at t = 0, heading north."""
    return OrbitSpec(
        altitude_m=altitude_m,
        inclination_rad=math.pi / 2,
        raan_rad=point.lon_rad,
        arg_lat0_rad=point.lat_rad,
    )


def angle_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between vectors; broadcasts over leading dimensions."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    cosang = np.sum(a * b, axis=-1) / (na * nb)
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def make_virtual_anchors(spec: OrbitSpec, measurement_time_s,
                         n_anchors: int) -> np.ndarray:
    """(n_anchors, ..., 3) satellite positions uniformly spaced in time over
    [-T/2, +T/2] about the epoch at which the beam center crosses the
    coverage-area center, in one propagation for all window lengths T of
    `measurement_time_s` (a scalar, or an array of shape `...`)."""
    times = np.asarray(measurement_time_s, dtype=float)
    if np.any(times <= 0):
        raise ValueError("measurement time must be positive")
    if n_anchors < 2:
        raise ValueError("at least two virtual anchors are required")
    return propagate_circular_orbit(spec, np.linspace(-times / 2.0, times / 2.0, n_anchors))


def hex_constellation(center: Geodetic, lon_gap_rad: float, lat_gap_rad: float,
                      altitude_m: float) -> np.ndarray:
    """(7, 3) positions at t = 0, in one propagation, of seven satellites on the
    `ground_track_orbit`s of a hexagonal grid: the serving satellite above
    `center` first, two same-row neighbors at +-lon_gap, and four side-row
    neighbors at +-lat_gap offset by half a longitude gap. A zero latitude gap
    collapses the grid onto a single parallel."""
    if not (0 < lon_gap_rad < math.inf and 0 <= lat_gap_rad < math.inf):
        raise ValueError("grid gaps must be finite and positive (latitude gap may be zero)")
    lat = center.lat_rad + lat_gap_rad * np.array([0.0, 0.0, 0.0, 1.0, 1.0, -1.0, -1.0])
    lon = center.lon_rad + lon_gap_rad * np.array([0.0, -1.0, 1.0, -0.5, 0.5, -0.5, 0.5])
    if not (np.all(np.abs(lat) <= math.pi / 2) and np.all(np.isfinite(lon))):
        raise ValueError("grid latitudes must lie in [-pi/2, pi/2] and longitudes be finite")
    return propagate_circular_orbit(
        OrbitSpec(altitude_m, math.pi / 2, wrap_longitude(lon), lat), 0.0)
