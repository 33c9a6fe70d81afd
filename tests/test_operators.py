import hashlib

import numpy as np
import pytest

from voxstokes.geometry import PackingParams, VoxelGrid, generate_packing
from voxstokes.operators import assemble, axis_index


@pytest.fixture(scope="module")
def packing_system():
    grid = generate_packing(PackingParams(N=2, n_c=10, n_avg=4, n_min=2, seed=11))
    return assemble(grid, flow_dir=0)


def channel_grid(n, w):
    fluid = np.zeros((n, n), dtype=bool)
    fluid[:, :w] = True
    return VoxelGrid(fluid)


def test_dof_counts_and_ordering(packing_system):
    sys = packing_system
    dm = sys.dof_map
    assert dm.m_p == int(sys.grid.fluid.sum())
    assert dm.m_u == sum(dm.axis_counts)
    assert dm.axis_offsets == (0, dm.axis_counts[0])
    # ids dense and deterministic: axis-major, row-major within axis
    for a in range(2):
        ids = dm.face_ids[a][dm.face_ids[a] >= 0]
        expected = dm.axis_offsets[a] + np.arange(dm.axis_counts[a])
        assert np.array_equal(ids, expected)
    coords = dm.velocity_coords(0)
    assert np.array_equal(coords, coords[np.lexsort(coords.T[::-1])])


def test_faces_touching_solid_are_eliminated(packing_system):
    sys = packing_system
    fluid = sys.grid.fluid
    for a in range(2):
        ids = sys.dof_map.face_ids[a]
        has_dof = ids >= 0
        both_fluid = fluid & np.roll(fluid, 1, axis=a)
        assert np.array_equal(has_dof, both_fluid)


def test_force_vector(packing_system):
    sys = packing_system
    dm = sys.dof_map
    assert sys.force.sum() == dm.axis_counts[0]
    assert np.all(sys.force[: dm.axis_counts[0]] == 1.0)
    assert np.all(sys.force[dm.axis_counts[0] :] == 0.0)


def test_divergence_gradient_adjoint(packing_system):
    sys = packing_system
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.standard_normal(sys.m_u)
        p = rng.standard_normal(sys.m_p)
        left = sys.apply_divergence(u) @ p
        right = u @ sys.apply_gradient(p)
        assert abs(left - right) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(p)


def test_gradient_of_constant_pressure_is_zero(packing_system):
    sys = packing_system
    out = sys.apply_gradient(np.full(sys.m_p, 3.7))
    assert np.max(np.abs(out)) == 0.0


def test_laplacian_symmetry_and_positivity(packing_system):
    sys = packing_system
    rng = np.random.default_rng(1)
    norm_bound = 2.0 * sys.laplacian_diag.max()  # Gershgorin
    for _ in range(50):
        u = rng.standard_normal(sys.m_u)
        v = rng.standard_normal(sys.m_u)
        au = sys.apply_laplacian(u)
        av = sys.apply_laplacian(v)
        gap = abs(au @ v - u @ av)
        assert gap <= 1e-12 * norm_bound * np.linalg.norm(u) * np.linalg.norm(v)
        assert u @ au > 0.0


def test_zero_vectors(packing_system):
    sys = packing_system
    assert np.all(sys.apply_laplacian(np.zeros(sys.m_u)) == 0.0)
    assert np.all(sys.apply_divergence(np.zeros(sys.m_u)) == 0.0)


def test_diagonal_range(packing_system):
    sys = packing_system
    inv_h2 = 1.0 / sys.h**2
    d = sys.laplacian_diag
    assert d.min() >= 2 * 2 * inv_h2 - 1e-9
    assert d.max() <= 3 * 2 * inv_h2 + 1e-9


def test_channel_stencil_diagonals():
    n, w = 8, 3
    sys = assemble(channel_grid(n, w), flow_dir=0)
    inv_h2 = float(n * n)
    ids = sys.dof_map.face_ids[0]
    diag = sys.laplacian_diag
    for j, expected in ((0, 5.0), (1, 4.0), (2, 5.0)):
        for i in range(n):
            assert diag[ids[i, j]] == pytest.approx(expected * inv_h2)


def test_divergence_of_uniform_flow_on_torus():
    grid = VoxelGrid(np.ones((6, 6), dtype=bool))
    sys = assemble(grid, flow_dir=0, require_walls=False)
    div = sys.apply_divergence(sys.force)
    assert np.max(np.abs(div)) == 0.0


def test_matrix_exports_match_matrix_free(packing_system):
    sys = packing_system
    a_mat = sys.matrix_laplacian()
    b_mat = sys.matrix_divergence()
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = rng.standard_normal(sys.m_u)
        p = rng.standard_normal(sys.m_p)
        assert np.allclose(a_mat @ u, sys.apply_laplacian(u), rtol=0, atol=1e-9)
        assert np.allclose(b_mat @ u, sys.apply_divergence(u), rtol=0, atol=1e-9)
        assert np.allclose(b_mat.T @ p, sys.apply_gradient(p), rtol=0, atol=1e-9)
    asym = (a_mat - a_mat.T)
    assert abs(asym).max() == 0.0


def test_small_periodic_grid_duplicate_edges():
    # n = 2 wraps both ways onto the same neighbor; matrix and
    # matrix-free paths must count it twice identically
    fluid = np.array([[True, True], [True, False]])
    sys = assemble(VoxelGrid(fluid), flow_dir=0)
    a_mat = sys.matrix_laplacian()
    rng = np.random.default_rng(3)
    u = rng.standard_normal(sys.m_u)
    assert np.allclose(a_mat @ u, sys.apply_laplacian(u), rtol=0, atol=1e-12)


def test_assemble_errors():
    with pytest.raises(ValueError, match="no no-slip boundary"):
        assemble(VoxelGrid(np.ones((4, 4), dtype=bool)))
    with pytest.raises(ValueError, match="empty fluid"):
        assemble(VoxelGrid(np.zeros((4, 4), dtype=bool)))
    fluid = np.zeros((6, 6), dtype=bool)
    fluid[1, 1] = True
    fluid[4, 4] = True
    with pytest.raises(ValueError, match="enforce_connectivity"):
        assemble(VoxelGrid(fluid))
    # bypassed connectivity check still needs at least one velocity unknown
    with pytest.raises(ValueError, match="no velocity unknowns"):
        assemble(VoxelGrid(fluid), check_connectivity=False)


def test_apply_length_validation(packing_system):
    sys = packing_system
    with pytest.raises(ValueError, match="length mismatch"):
        sys.apply_laplacian(np.zeros(sys.m_u + 1))
    with pytest.raises(ValueError, match="length mismatch"):
        sys.apply_gradient(np.zeros(sys.m_p - 1))


def test_axis_index():
    assert axis_index("x", 2) == 0
    assert axis_index("Z", 3) == 2
    assert axis_index(1, 2) == 1
    with pytest.raises(ValueError, match="out of range"):
        axis_index("z", 2)
    with pytest.raises(ValueError, match="unknown axis"):
        axis_index("w", 2)


def test_3d_assembly_basics():
    grid = generate_packing(
        PackingParams(N=1, n_c=6, n_avg=2, n_min=2, seed=0, dim=3)
    )
    sys = assemble(grid, flow_dir="z")
    inv_h2 = 36.0
    assert sys.laplacian_diag.min() >= 6 * inv_h2 - 1e-9
    assert sys.laplacian_diag.max() <= 9 * inv_h2 + 1e-9
    rng = np.random.default_rng(4)
    u = rng.standard_normal(sys.m_u)
    p = rng.standard_normal(sys.m_p)
    assert abs(sys.apply_divergence(u) @ p - u @ sys.apply_gradient(p)) \
        <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(p)
    assert u @ sys.apply_laplacian(u) > 0


# sha256 of the bytes of every apply on seeded vectors and of the
# indptr/indices/data of both exports. Any change to the arithmetic or
# the summation order of an operator shows up here, even one far below
# the tolerances of the comparisons above.
BIT_PATTERNS = {
    "packing2d": {
        "apply_laplacian": "8f82ca17d0dfe0bc7960826d6b744a56136c75ae9431605ac3ac43fabad0afd8",
        "apply_divergence": "061b9a2aed7f320c4ffb2f42cf080ef2746dbf68075393338eec88ad2cbd7d22",
        "apply_gradient": "7760720ddbf9ea0e525ea6b86a51cbb4f4245f493eddbf86f1672df7f9bca646",
        "weighted_diagonal": "3c217e780fe62183ea455def55aeee98ce6fff773b5242cd0c5e23f7a1c8199f",
        "matrix_laplacian": "3f56bbac3995a5428f1111ee5abd76ac52ecea44297eca60e8189127373e8e68",
        "matrix_divergence": "e3f56800075263a4e297b4f8b78dfe351fbfd12bf0e4b81e2ab004e387c3f31a",
    },
    "packing3d": {
        "apply_laplacian": "c9798498d0855019f755366bf3627e8e07cddb56315cba06730003c25dda516d",
        "apply_divergence": "5d25e56fcd594366127bddb957f7f10c05d7bac98940273cfac7675c824faa45",
        "apply_gradient": "43f5cd1680932883c4fd34cfa1ca3332c3d2dacf4be350a12c07e37ed259d2d7",
        "weighted_diagonal": "220aa3208a8ae310403480fc581b1f2058cd07d39510d52783755baf193b2c09",
        "matrix_laplacian": "db6a0393ddaff6067fbec73fe6e9375b0e3dcf68f14908af9d73e1cc98475b19",
        "matrix_divergence": "3356f47bd680c568afc55cb7e40a179c0bfbe001f58b4da4169e7fd9ca046aa4",
    },
    "two_by_two": {
        "apply_laplacian": "123ff31f3fbbe69b141466db8e4eb9e67ba399db19dc1ddbbc8c8d95b5def1bd",
        "apply_divergence": "5f0ef92570839a0b1b892f3278905e9de9ba6fd61f23e8390413256b74c5e3bc",
        "apply_gradient": "563b14098bd4ec5b638a1ae117f7734076346b7349a301988d9edfbf48389b86",
        "weighted_diagonal": "2732b17d4c92a8359d85fac7f93fabe9f635cf0e4ff6d3e01073d9e3801814b1",
        "matrix_laplacian": "2586ab9bf5d37f3c6aee0ac43cd44d331c008d833bee668603b30cc692985ede",
        "matrix_divergence": "d6809a3f8396fc181bb83be2126a2ff049ea45147ddb15dba34fa8585e030526",
    },
}


def _sha256(*arrays):
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(BIT_PATTERNS))
def test_operator_bit_patterns(case):
    grid = {
        "packing2d": lambda: generate_packing(
            PackingParams(N=2, n_c=10, n_avg=4, n_min=2, seed=11)
        ),
        "packing3d": lambda: generate_packing(
            PackingParams(N=2, n_c=6, n_avg=2, n_min=2, seed=5, dim=3)
        ),
        "two_by_two": lambda: VoxelGrid(np.array([[True, True], [True, False]])),
    }[case]()
    sys = assemble(grid, flow_dir=0)
    rng = np.random.default_rng(2024)
    u = rng.standard_normal(sys.m_u)
    p = rng.standard_normal(sys.m_p)
    a_mat = sys.matrix_laplacian()
    b_mat = sys.matrix_divergence()
    got = {
        "apply_laplacian": _sha256(sys.apply_laplacian(u)),
        "apply_divergence": _sha256(sys.apply_divergence(u)),
        "apply_gradient": _sha256(sys.apply_gradient(p)),
        "weighted_diagonal": _sha256(
            sys.divergence_weighted_diagonal(1.0 / sys.laplacian_diag)
        ),
        "matrix_laplacian": _sha256(a_mat.indptr, a_mat.indices, a_mat.data),
        "matrix_divergence": _sha256(b_mat.indptr, b_mat.indices, b_mat.data),
    }
    assert got == BIT_PATTERNS[case]
