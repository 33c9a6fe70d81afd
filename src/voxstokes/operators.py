"""Staggered-grid (MAC) operators for Stokes flow on periodic voxel images.

Pressure lives at voxel centers, velocity components on voxel faces: the
face along axis ``a`` at grid position I sits between voxels I - e_a and
I and carries a velocity unknown only when both voxels are fluid. Faces
touching solid are eliminated, which imposes the no-slip normal velocity
exactly and keeps the Laplacian positive definite.

Wall treatment for the remaining unknowns, per stencil direction:

* same-axis neighbor face eliminated: the neighbor value is the Dirichlet
  zero one mesh width away, contributing 1 to the (scaled) diagonal;
* tangential neighbor eliminated and both voxels beside that neighbor
  face are solid: the wall runs halfway between the two face lines, and
  a linear ghost reflection (ghost value = -center value) contributes 2;
* tangential neighbor eliminated with only one solid voxel beside it:
  the neighbor face lies in the wall itself, value zero at distance one
  mesh width, contributing 1.

Scaling: the vector Laplacian carries 1/h^2 and the divergence 1/h, with
h = 1/n. This pair makes the pressure Schur complement dimensionless
with unit largest eigenvalue on connected geometries.

Velocity unknowns are numbered axis-major (all x faces, then y, then z),
row-major by face coordinate within each axis; pressure unknowns are
row-major over fluid voxels. All orderings are deterministic.

Each operator has one sparse representation, built once by
:func:`assemble` from unscaled 0/1 and +-1 incidence matrices. The 1/h
and 1/h^2 scales are applied outside the sparse products, and every row
sum runs in a fixed order, so applies and exports are bitwise
reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import VoxelGrid, connected_components

__all__ = [
    "DofMap",
    "StaggeredSystem",
    "assemble",
    "axis_index",
]

_AXIS_NAMES = {"x": 0, "y": 1, "z": 2}


def axis_index(flow_dir, dim: int) -> int:
    """Normalize an axis given as 0/1/2 or 'x'/'y'/'z'."""
    if isinstance(flow_dir, str):
        try:
            flow_dir = _AXIS_NAMES[flow_dir.lower()]
        except KeyError:
            raise ValueError(f"unknown axis name {flow_dir!r}") from None
    flow_dir = int(flow_dir)
    if not 0 <= flow_dir < dim:
        raise ValueError(f"flow axis {flow_dir} out of range for dim {dim}")
    return flow_dir


@dataclass(frozen=True)
class DofMap:
    """Dense deterministic numbering of velocity faces and fluid voxels.

    ``face_ids[a]`` is grid-shaped and holds the global velocity unknown
    id of the axis-``a`` face at each position, or -1 where the face is
    eliminated. ``pressure_ids`` holds the pressure unknown id per voxel,
    -1 on solid.
    """

    face_ids: tuple
    pressure_ids: np.ndarray
    axis_counts: tuple
    axis_offsets: tuple
    m_u: int
    m_p: int

    def velocity_coords(self, axis: int) -> np.ndarray:
        """Face coordinates of axis unknowns, in unknown order, shape (count, dim)."""
        return np.argwhere(self.face_ids[axis] >= 0)


class StaggeredSystem:
    """Discrete Stokes operators over one voxel grid.

    Use :func:`assemble` to build one. Besides the scaled Laplacian
    diagonal ``laplacian_diag`` the system holds two unscaled incidence
    matrices:

    * the stencil adjacency N (m_u x m_u, entries 1): row i lists the
      existing neighbor faces of face i in stencil-slot order, so a face
      reached through two slots (periodic grids two voxels wide) appears
      twice;
    * one gradient block G_a per axis (count_a x m_p, entries +-1): the
      row of a face holds +1 at the voxel above it, then -1 at the voxel
      below.

    Then A = diag - N/h^2, B^T stacks the blocks G_a/h, and B sums the
    G_a^T/h one axis at a time.
    """

    def __init__(self, grid, dof_map, flow_dir, diag, adjacency, gradient_blocks):
        self.grid = grid
        self.dof_map = dof_map
        self.flow_dir = flow_dir
        self.h = 1.0 / grid.n
        self.laplacian_diag = diag
        self._adjacency = adjacency
        self._gradient_blocks = gradient_blocks
        self._divergence_blocks = tuple(block.T for block in gradient_blocks)
        self._axis_slices = tuple(
            slice(lo, lo + count)
            for lo, count in zip(dof_map.axis_offsets, dof_map.axis_counts)
        )
        self._inv_h2 = 1.0 / self.h**2
        self._inv_h = 1.0 / self.h
        force = np.zeros(dof_map.m_u)
        force[self._axis_slices[flow_dir]] = 1.0
        force.setflags(write=False)
        self.force = force

    @property
    def m_u(self) -> int:
        return self.dof_map.m_u

    @property
    def m_p(self) -> int:
        return self.dof_map.m_p

    def _check(self, vec, m, what):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (m,):
            raise ValueError(
                f"{what} vector length mismatch: expected {m}, got {vec.shape}"
            )
        return vec

    def _sum_over_axes(self, blocks, u):
        # one partial sum per axis, added in axis order: summing all faces
        # of a voxel in a single sparse product would round differently
        return sum(block @ u[rows] for block, rows in zip(blocks, self._axis_slices))

    def apply_laplacian(self, u) -> np.ndarray:
        """Negative vector Laplacian with no-slip walls, scaled by 1/h^2."""
        u = self._check(u, self.m_u, "velocity")
        return self.laplacian_diag * u - self._inv_h2 * (self._adjacency @ u)

    def apply_divergence(self, u) -> np.ndarray:
        """Negative discrete divergence, one value per fluid voxel, scaled by 1/h."""
        u = self._check(u, self.m_u, "velocity")
        return self._sum_over_axes(self._divergence_blocks, u) * self._inv_h

    def apply_gradient(self, p) -> np.ndarray:
        """Pressure gradient on velocity faces, the exact transpose of the divergence."""
        p = self._check(p, self.m_p, "pressure")
        parts = [block @ p for block in self._gradient_blocks]
        return np.concatenate(parts) * self._inv_h

    def matrix_laplacian(self) -> sp.csr_matrix:
        """Explicit sparse Laplacian, equal to apply_laplacian on every vector."""
        mat = sp.diags(self.laplacian_diag) - self._inv_h2 * self._adjacency
        mat.sum_duplicates()  # N keeps stencil order; exports are sorted by column
        return mat

    def matrix_divergence(self) -> sp.csr_matrix:
        """Explicit sparse divergence operator."""
        return (sp.vstack(self._gradient_blocks).T * self._inv_h).tocsr()

    def divergence_weighted_diagonal(self, face_weights) -> np.ndarray:
        """Diagonal of B W B^T for a diagonal face weighting W.

        Every divergence row holds +-1/h at the existing faces of one
        voxel, so the diagonal is the weight sum over those faces times
        1/h^2.
        """
        w = self._check(face_weights, self.m_u, "face weight")
        blocks = [abs(block) for block in self._divergence_blocks]
        return self._sum_over_axes(blocks, w) * self._inv_h2


def assemble(grid: VoxelGrid, flow_dir=0, *, check_connectivity: bool = True,
             require_walls: bool = True) -> StaggeredSystem:
    """Build the staggered operators for a voxel grid.

    ``check_connectivity`` and ``require_walls`` exist for degenerate
    test harnesses (all-fluid torus, deliberately split domains); the
    physical pipeline keeps both checks on.
    """
    fluid = grid.fluid
    dim = grid.dim
    flow_dir = axis_index(flow_dir, dim)
    if not fluid.any():
        raise ValueError("empty fluid domain")
    if require_walls and fluid.all():
        raise ValueError("velocity operator singular: no no-slip boundary")
    if check_connectivity:
        _, n_components = connected_components(grid)
        if n_components > 1:
            raise ValueError(
                f"fluid domain is disconnected ({n_components} components); "
                "run enforce_connectivity first"
            )

    face_masks = [fluid & np.roll(fluid, 1, axis=a) for a in range(dim)]
    axis_counts = tuple(int(mask.sum()) for mask in face_masks)
    m_u = sum(axis_counts)
    axis_offsets = tuple(sum(axis_counts[:a]) for a in range(dim))
    if require_walls and m_u == 0:
        raise ValueError("no velocity unknowns: every face touches solid")

    face_ids = []
    for a, mask in enumerate(face_masks):
        ids = np.full(fluid.shape, -1, dtype=np.int64)
        ids[mask] = axis_offsets[a] + np.arange(axis_counts[a], dtype=np.int64)
        ids.setflags(write=False)
        face_ids.append(ids)

    pressure_ids = np.full(fluid.shape, -1, dtype=np.int64)
    m_p = int(fluid.sum())
    pressure_ids[fluid] = np.arange(m_p, dtype=np.int64)
    pressure_ids.setflags(write=False)

    dof_map = DofMap(
        face_ids=tuple(face_ids),
        pressure_ids=pressure_ids,
        axis_counts=axis_counts,
        axis_offsets=axis_offsets,
        m_u=m_u,
        m_p=m_p,
    )

    inv_h2 = float(grid.n) ** 2
    diag = np.zeros(m_u)
    # neighbor face id per stencil slot, -1 where that face is eliminated
    neighbors = np.empty((m_u, 2 * dim), dtype=np.int32)
    for a in range(dim):
        mask = face_masks[a]
        rows = slice(axis_offsets[a], axis_offsets[a] + axis_counts[a])
        slot = 0
        for d in range(dim):
            for s in (1, -1):
                nb = np.roll(face_ids[a], -s, axis=d)[mask]
                if d == a:
                    diag[rows] += 1.0
                else:
                    # voxels on both sides of the missing neighbor face
                    hi = np.roll(fluid, -s, axis=d)
                    lo = np.roll(np.roll(fluid, 1, axis=a), -s, axis=d)
                    both_solid = (~hi & ~lo)[mask]
                    diag[rows] += np.where((nb < 0) & both_solid, 2.0, 1.0)
                neighbors[rows, slot] = nb
                slot += 1
    diag *= inv_h2
    diag.setflags(write=False)

    present = neighbors >= 0
    indptr = np.zeros(m_u + 1, dtype=np.int32)
    # running count of present slots, read at the last slot of each row
    indptr[1:] = np.cumsum(present, dtype=np.int32)[2 * dim - 1 :: 2 * dim]
    adjacency = sp.csr_matrix(
        (np.ones(indptr[-1]), neighbors[present], indptr), shape=(m_u, m_u)
    )

    gradient_blocks = []
    for a, mask in enumerate(face_masks):
        count = axis_counts[a]
        above_below = np.empty((count, 2), dtype=np.int32)
        above_below[:, 0] = pressure_ids[mask]
        above_below[:, 1] = np.roll(pressure_ids, 1, axis=a)[mask]
        gradient_blocks.append(sp.csr_matrix(
            (
                np.tile([1.0, -1.0], count),
                above_below.ravel(),
                np.arange(0, 2 * count + 1, 2, dtype=np.int32),
            ),
            shape=(count, m_p),
        ))
    return StaggeredSystem(
        grid, dof_map, flow_dir, diag, adjacency, tuple(gradient_blocks)
    )
