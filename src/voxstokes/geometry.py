"""Binary voxel geometries with periodic topology.

A grid covers the unit square or cube with ``n`` voxels per axis. Every
boundary wraps around, so voxel ``(0, j)`` and voxel ``(n - 1, j)`` are
face neighbors. Axis order is ``(x, y)`` in 2D and ``(x, y, z)`` in 3D,
one array index per axis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = [
    "VoxelGrid",
    "GeometryStats",
    "PackingParams",
    "generate_packing",
    "stats",
    "connected_components",
    "enforce_connectivity",
    "periodize",
    "read_grid",
    "write_grid",
]


@dataclass(frozen=True)
class VoxelGrid:
    """Immutable binary voxel image.

    Parameters
    ----------
    fluid : ndarray of bool
        Indicator array, True where the voxel is fluid. Must be a square
        (2D) or cube (3D) with at least 2 voxels per axis. The grid
        covers the unit square or cube, so the mesh width is 1/n.
    """

    fluid: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.fluid, dtype=bool).copy()
        if arr.ndim not in (2, 3):
            raise ValueError(f"grid dimension must be 2 or 3, got {arr.ndim}")
        if len(set(arr.shape)) != 1:
            raise ValueError(f"grid must be cubic, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError(f"grid extent must be at least 2, got {arr.shape[0]}")
        arr.setflags(write=False)
        object.__setattr__(self, "fluid", arr)

    @property
    def dim(self) -> int:
        return self.fluid.ndim

    @property
    def n(self) -> int:
        """Extent in voxels per axis."""
        return self.fluid.shape[0]


@dataclass(frozen=True)
class GeometryStats:
    """Exact integer counts and derived percentages for one grid."""

    v_fluid: int
    v_surf: int
    porosity_pct: float
    stv_pct: float
    n_components: int


@dataclass(frozen=True)
class PackingParams:
    """Parameters of the synthetic obstacle-array generator.

    Each of the ``N x N`` (or ``N x N x N``) cells of side ``n_c`` holds one
    solid square (cube) of side ``n_c - n_avg``, shifted from the centered
    position by integer offsets drawn uniformly from
    ``[-(n_avg - n_min) / 2, +(n_avg - n_min) / 2]`` per axis. The mean
    fluid channel between obstacles is then ``n_avg`` voxels thick and
    never thinner than ``n_min``.
    """

    N: int
    n_c: int
    n_avg: int
    n_min: int
    seed: int
    dim: int = 2

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.N < 1:
            raise ValueError(f"cell count N must be at least 1, got {self.N}")
        if self.n_min < 1:
            raise ValueError(f"n_min must be at least 1, got {self.n_min}")
        if self.n_avg < self.n_min:
            raise ValueError(
                f"n_avg ({self.n_avg}) must be at least n_min ({self.n_min})"
            )
        if self.n_c <= self.n_avg:
            raise ValueError(
                f"cell side n_c ({self.n_c}) must exceed n_avg ({self.n_avg})"
            )
        if self.n_avg % 2 != 0:
            raise ValueError(f"n_avg must be even, got {self.n_avg}")
        if (self.n_avg - self.n_min) % 2 != 0:
            raise ValueError(
                f"n_avg - n_min must be even, got {self.n_avg - self.n_min}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")

    @property
    def extent(self) -> int:
        """Total grid extent N * n_c."""
        return self.N * self.n_c

    @property
    def shift_range(self) -> int:
        """Largest obstacle shift magnitude per axis."""
        return (self.n_avg - self.n_min) // 2


def generate_packing(params: PackingParams) -> VoxelGrid:
    """Generate a periodic array of randomly shifted solid squares or cubes.

    The PRNG is NumPy's default_rng (PCG64) seeded with ``params.seed``;
    one shift vector is drawn per cell, cells in row-major order. Output
    is bit-exact reproducible for a fixed seed.
    """
    half = params.shift_range
    side = params.n_c - params.n_avg
    n = params.extent
    fluid = np.ones((n,) * params.dim, dtype=bool)
    rng = np.random.default_rng(params.seed)
    for cell in np.ndindex(*(params.N,) * params.dim):
        shifts = rng.integers(-half, half + 1, size=params.dim)
        index = tuple(
            slice(
                c * params.n_c + params.n_avg // 2 + int(r),
                c * params.n_c + params.n_avg // 2 + int(r) + side,
            )
            for c, r in zip(cell, shifts)
        )
        fluid[index] = False
    return VoxelGrid(fluid)


def stats(grid: VoxelGrid) -> GeometryStats:
    """Measure porosity, no-slip surface count, and connectivity.

    ``v_surf`` counts solid voxels that touch fluid across at least one
    face (periodic wraparound included), each such voxel counted once.
    """
    fluid = grid.fluid
    v_fluid = int(fluid.sum())
    if v_fluid == 0:
        raise ValueError("empty fluid domain")
    near_fluid = np.zeros_like(fluid)
    for axis in range(grid.dim):
        near_fluid |= np.roll(fluid, 1, axis) | np.roll(fluid, -1, axis)
    v_surf = int((near_fluid & ~fluid).sum())
    _, n_components = connected_components(grid)
    return GeometryStats(
        v_fluid=v_fluid,
        v_surf=v_surf,
        porosity_pct=100.0 * v_fluid / fluid.size,
        stv_pct=100.0 * v_surf / v_fluid,
        n_components=n_components,
    )


def connected_components(grid: VoxelGrid) -> tuple[np.ndarray, int]:
    """Label fluid components under face adjacency with periodic wrap.

    Returns ``(labels, n_components)`` where ``labels`` matches the grid
    shape, holds -1 on solid voxels and dense component ids in
    ``[0, n_components)`` on fluid voxels. Ids are deterministic: they
    follow the first row-major appearance of each component.
    """
    structure = ndimage.generate_binary_structure(grid.dim, 1)
    raw, n_raw = ndimage.label(grid.fluid, structure=structure)
    if n_raw == 0:
        return np.full(grid.fluid.shape, -1, dtype=np.int64), 0

    parent = np.arange(n_raw + 1)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # merge components that touch across opposite boundary layers
    for axis in range(grid.dim):
        low = np.take(raw, 0, axis=axis).ravel()
        high = np.take(raw, -1, axis=axis).ravel()
        for a, b in zip(low.tolist(), high.tolist()):
            if a and b:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    remap = np.full(n_raw + 1, -1, dtype=np.int64)
    next_id = 0
    for lab in range(1, n_raw + 1):
        root = find(lab)
        if remap[root] < 0:
            remap[root] = next_id
            next_id += 1
        remap[lab] = remap[root]
    return remap[raw], next_id


def enforce_connectivity(grid: VoxelGrid) -> tuple[VoxelGrid, int]:
    """Solidify every fluid voxel outside the largest fluid component.

    Ties between equal-sized components keep the lowest label. Returns
    the (possibly unchanged) grid and the number of voxels removed.
    """
    labels, n_components = connected_components(grid)
    if n_components == 0:
        raise ValueError("empty fluid domain")
    if n_components == 1:
        return grid, 0
    sizes = np.bincount(labels[labels >= 0], minlength=n_components)
    keep = int(np.argmax(sizes))
    fluid = labels == keep
    removed = int(grid.fluid.sum() - fluid.sum())
    return VoxelGrid(fluid), removed


def periodize(grid: VoxelGrid) -> VoxelGrid:
    """Mirror the grid across every axis, doubling the extent.

    Output voxel i maps to input voxel i for i < n and to 2n - 1 - i
    otherwise, so opposite boundary layers of the result match and the
    result is periodic by construction.
    """
    fluid = grid.fluid
    for axis in range(grid.dim):
        fluid = np.concatenate([fluid, np.flip(fluid, axis=axis)], axis=axis)
    return VoxelGrid(fluid)


_MAGIC = "voxgeo 1"


def write_grid(grid: VoxelGrid, path) -> None:
    """Write a grid as text: header then one line of {0,1} per x-run.

    Format: ``voxgeo 1`` / ``dim D`` / ``size N`` / data lines of exactly
    N symbols, 1 = fluid, x fastest, then y, then z. Newlines are LF.
    """
    symbols = np.where(grid.fluid, "1", "0")
    n = grid.n
    if grid.dim == 2:
        lines = ["".join(symbols[:, j]) for j in range(n)]
    else:
        lines = ["".join(symbols[:, j, k]) for k in range(n) for j in range(n)]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{_MAGIC}\ndim {grid.dim}\nsize {n}\n")
        handle.write("\n".join(lines))
        handle.write("\n")


def read_grid(path) -> VoxelGrid:
    """Parse a grid written by write_grid. Errors carry line/column info."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        text = handle.read()
    lines = text.split("\n")
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"line 1: malformed header, expected {_MAGIC!r}")
    dim = _header_int(lines, 1, "dim")
    if dim not in (2, 3):
        raise ValueError(f"line 2: malformed header, dim must be 2 or 3, got {dim}")
    n = _header_int(lines, 2, "size")
    if n < 2:
        raise ValueError(f"line 3: malformed header, size must be at least 2, got {n}")

    expected = n if dim == 2 else n * n
    data = lines[3 : 3 + expected]
    if len(data) < expected or any(not row for row in data):
        found = sum(1 for row in data if row)
        raise ValueError(
            f"size mismatch: expected {expected} data lines of {n} symbols, found {found}"
        )
    for extra in lines[3 + expected :]:
        if extra:
            raise ValueError(
                f"line {4 + expected}: size mismatch: unexpected content after data"
            )

    fluid = np.empty((n,) * dim, dtype=bool)
    for idx, row in enumerate(data):
        lineno = 4 + idx
        if len(row) != n:
            raise ValueError(
                f"line {lineno}: size mismatch: expected {n} symbols, found {len(row)}"
            )
        bad = next((c for c in row if c not in "01"), None)
        if bad is not None:
            raise ValueError(
                f"line {lineno}, column {row.index(bad) + 1}: "
                f"non-binary voxel symbol {bad!r}"
            )
        values = np.frombuffer(row.encode("ascii"), dtype=np.uint8) == ord("1")
        if dim == 2:
            fluid[:, idx] = values
        else:
            fluid[:, idx % n, idx // n] = values
    return VoxelGrid(fluid)


def _header_int(lines, index, key):
    if index >= len(lines):
        raise ValueError(f"line {index + 1}: malformed header, missing {key!r}")
    parts = lines[index].split()
    if len(parts) != 2 or parts[0] != key:
        raise ValueError(
            f"line {index + 1}: malformed header, expected {key!r} <integer>"
        )
    try:
        return int(parts[1])
    except ValueError:
        raise ValueError(
            f"line {index + 1}: malformed header, {key!r} value {parts[1]!r} "
            "is not an integer"
        ) from None
