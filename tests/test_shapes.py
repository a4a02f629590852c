"""Shape rasterization counts and the boundary partition."""

import numpy as np
import pytest

from mcd.errors import InvalidInputError
from mcd.shapes import boundary_partition, boundary_type_counts, gen_shape


class TestGenShape:
    def test_lshape_exact_count(self):
        mask = gen_shape("lshape", (100, 100))
        assert int(mask.sum()) == 400

    def test_default_counts_within_tolerance(self):
        targets = {"oval": 1142, "triangle": 864, "yshape": 1344}
        for kind, target in targets.items():
            n = int(gen_shape(kind, (100, 100)).sum())
            assert abs(n - target) <= 0.02 * target, (kind, n)

    def test_lshape_geometry(self):
        mask = gen_shape("lshape", (100, 100))
        assert mask[35:65, 35:45].all()  # vertical bar
        assert mask[55:65, 45:55].all()  # foot
        assert not mask[35:55, 45:55].any()

    def test_disc_parameters(self):
        mask = gen_shape("disc", (50, 50), radius=10)
        assert abs(int(mask.sum()) - np.pi * 100) < 25

    def test_oversized_disc_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_shape("disc", (20, 20), radius=15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_shape("pentagon", (10, 10))

    @pytest.mark.parametrize("kind", ["lshape", "oval", "triangle", "yshape", "disc"])
    def test_dims_below_2x2_rejected(self, kind):
        with pytest.raises(InvalidInputError, match="at least 2x2, got 1x40"):
            gen_shape(kind, (1, 40))

    def test_deterministic(self):
        a = gen_shape("yshape", (100, 100))
        b = gen_shape("yshape", (100, 100))
        np.testing.assert_array_equal(a, b)

    def test_shapes_fit_inside_grid(self):
        for kind in ("lshape", "oval", "triangle", "yshape", "disc"):
            mask = gen_shape(kind, (100, 100))
            assert mask.any() and not mask.all()


class TestBoundaryPartition:
    def test_partition_covers_grid(self):
        truth = gen_shape("disc", (40, 40), radius=8)
        noise, boundary, signal = boundary_partition(truth)
        total = noise.astype(int) + boundary.astype(int) + signal.astype(int)
        assert (total == 1).all()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(401)
        truth = rng.random((12, 12)) < 0.4
        _, boundary, _ = boundary_partition(truth)
        for i in range(12):
            for j in range(12):
                groups = {truth[i, j]}
                for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    if 0 <= i + di < 12 and 0 <= j + dj < 12:
                        groups.add(truth[i + di, j + dj])
                assert boundary[i, j] == (len(groups) == 2), (i, j)

    def test_single_cell_boundary_types(self):
        truth = np.zeros((5, 5), dtype=bool)
        truth[2, 2] = True
        _, boundary, _ = boundary_partition(truth)
        # the cell and its four neighbors all straddle the groups
        assert int(boundary.sum()) == 5
        counts = boundary_type_counts(truth)
        # center has 4 other-group (noise) neighbors; each neighbor sees 1 signal cell
        assert counts == {1: 4, 4: 1}

    def test_uniform_truth_has_no_boundary(self):
        _, boundary, _ = boundary_partition(np.zeros((6, 6), dtype=bool))
        assert not boundary.any()
