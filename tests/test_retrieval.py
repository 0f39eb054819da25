"""Tests for Hamming primitives, metrics, protocol, and the engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotFittedError, ShapeError
from repro.retrieval import (
    HammingIndex,
    PRCurve,
    average_precision,
    evaluate_codes,
    hamming,
    hamming_distance_matrix,
    mean_average_precision,
    mean_average_precision_from_distances,
    pack_codes,
    packed_hamming_distance,
    pr_curve_hamming,
    precision_at_n,
    relevance_matrix,
    unpack_codes,
)

codes_strategy = st.integers(2, 40).flatmap(
    lambda k: st.integers(1, 12).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k),
            min_size=n, max_size=n,
        )
    )
)


def random_codes(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)


class TestHammingDistances:
    def test_identity_zero(self):
        c = random_codes(5, 16)
        d = hamming_distance_matrix(c, c)
        np.testing.assert_array_equal(np.diag(d), 0.0)

    def test_opposite_full(self):
        c = random_codes(3, 8)
        d = hamming_distance_matrix(c, -c)
        np.testing.assert_array_equal(np.diag(d), 8.0)

    def test_manual_case(self):
        a = np.array([[1.0, 1.0, -1.0, -1.0]])
        b = np.array([[1.0, -1.0, -1.0, 1.0]])
        assert hamming_distance_matrix(a, b)[0, 0] == 2.0

    def test_rejects_nonbinary(self):
        with pytest.raises(ShapeError):
            hamming_distance_matrix(np.array([[0.5, 1.0]]), random_codes(1, 2))

    def test_rejects_mismatched_length(self):
        with pytest.raises(ShapeError):
            hamming_distance_matrix(random_codes(2, 8), random_codes(2, 16))

    @given(codes_strategy)
    @settings(max_examples=40, deadline=None)
    def test_property_packed_matches_blas(self, rows):
        codes = np.asarray(rows)
        blas = hamming_distance_matrix(codes, codes)
        packed = packed_hamming_distance(pack_codes(codes), pack_codes(codes))
        np.testing.assert_array_equal(blas, packed.astype(float))

    @pytest.mark.parametrize("one_row_tiles", [False, True])
    def test_packed_matches_blas_at_every_row_width(self, monkeypatch,
                                                    one_row_tiles):
        # 1-17 bytes per row: every word view (uint8, uint16, uint32,
        # uint64, several words) and widths with padding bits.
        if one_row_tiles:
            monkeypatch.setattr(hamming, "TILE_BYTES", 1)
        for n_bytes in range(1, 18):
            for bits in {8 * n_bytes, 8 * n_bytes - 3}:
                a = random_codes(5, bits, seed=bits)
                b = random_codes(33, bits, seed=bits + 1)
                packed = packed_hamming_distance(pack_codes(a), pack_codes(b))
                assert packed.dtype == np.uint16
                np.testing.assert_array_equal(
                    packed, hamming_distance_matrix(a, b), err_msg=str(bits))

    @given(codes_strategy)
    @settings(max_examples=40, deadline=None)
    def test_property_pack_roundtrip(self, rows):
        codes = np.asarray(rows)
        np.testing.assert_array_equal(unpack_codes(pack_codes(codes)), codes)

    def test_packed_storage_is_8x_smaller_than_bytes(self):
        codes = random_codes(100, 64)
        packed = pack_codes(codes)
        assert packed.nbytes == 100 * 8


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(np.array([1, 1, 0, 0]), top_n=4) == 1.0

    def test_worst_ranking(self):
        ap = average_precision(np.array([0, 0, 1, 1]), top_n=4)
        # Hits at ranks 3 and 4: (1/3 + 2/4) / 2.
        assert ap == pytest.approx((1 / 3 + 2 / 4) / 2)

    def test_no_relevant(self):
        assert average_precision(np.zeros(5), top_n=5) == 0.0

    def test_truncation(self):
        # Relevant item beyond top_n is invisible.
        assert average_precision(np.array([0, 0, 1]), top_n=2) == 0.0

    @pytest.mark.parametrize("top_n", [0, -1])
    def test_rejects_nonpositive_top_n(self, top_n):
        # [:-1] would score [1, 0, 0, 1] as 1.0 instead of 0.75.
        with pytest.raises(ShapeError):
            average_precision(np.array([1, 0, 0, 1]), top_n=top_n)

    def test_eq12_hand_example(self):
        # ranked = [1, 0, 1]: AP = (1/1 + 2/3) / 2.
        ap = average_precision(np.array([1, 0, 1]), top_n=3)
        assert ap == pytest.approx((1.0 + 2 / 3) / 2)


class TestMap:
    def test_perfect_codes(self):
        codes = random_codes(6, 16, seed=1)
        labels = np.eye(6, dtype=int)
        # Query = database: each query's only relevant item is itself at
        # distance 0 -> MAP 1.
        assert mean_average_precision(codes, codes, relevance_matrix(
            labels, labels)) == 1.0

    def test_map_bounds(self):
        q = random_codes(4, 8, seed=2)
        db = random_codes(20, 8, seed=3)
        rel = np.random.default_rng(0).random((4, 20)) > 0.5
        value = mean_average_precision(q, db, rel)
        assert 0.0 <= value <= 1.0

    def test_ties_broken_by_index(self):
        q = np.array([[1.0, 1.0]])
        db = np.array([[1.0, 1.0], [1.0, 1.0]])
        rel = np.array([[False, True]])
        # Both at distance 0; stable sort puts index 0 first.
        value = mean_average_precision(q, db, rel)
        assert value == pytest.approx(0.5)


    @pytest.mark.parametrize("top_n", [0, -1])
    def test_map_entry_points_reject_nonpositive_top_n(self, top_n):
        codes = random_codes(6, 16, seed=2)
        rel = np.eye(6, dtype=bool)
        with pytest.raises(ShapeError):
            mean_average_precision(codes, codes, rel, top_n=top_n)
        with pytest.raises(ShapeError):
            mean_average_precision_from_distances(
                hamming_distance_matrix(codes, codes), rel, top_n)
        with pytest.raises(ShapeError):
            evaluate_codes(codes, codes, np.eye(6), np.eye(6), top_n=top_n)


class TestPrecisionAtN:
    def test_values(self):
        distances = np.array([[0.0, 1.0, 2.0, 3.0]])
        rel = np.array([[True, False, True, False]])
        pn = precision_at_n(distances, rel, points=(1, 2, 4))
        assert pn[1] == 1.0
        assert pn[2] == 0.5
        assert pn[4] == 0.5

    def test_requested_beyond_db_raises(self):
        with pytest.raises(ShapeError):
            precision_at_n(np.zeros((1, 3)), np.zeros((1, 3), bool), points=(5,))

    def test_empty_points_returns_empty_dict(self):
        assert precision_at_n(np.zeros((1, 3)), np.zeros((1, 3), bool),
                              points=()) == {}

    def test_unsorted_points(self):
        distances = np.array([[0.0, 1.0, 2.0, 3.0]])
        rel = np.array([[True, False, True, False]])
        pn = precision_at_n(distances, rel, points=(4, 1, 2))
        assert pn[1] == 1.0 and pn[2] == 0.5 and pn[4] == 0.5


class TestPRCurve:
    def test_monotone_recall(self):
        q = random_codes(5, 16, seed=4)
        db = random_codes(50, 16, seed=5)
        rel = np.random.default_rng(1).random((5, 50)) > 0.7
        curve = pr_curve_hamming(q, db, rel)
        assert curve.radii.size == 17
        assert np.all(np.diff(curve.recall) >= 0)
        assert curve.recall[-1] == pytest.approx(1.0)

    def test_precision_at_full_radius_is_base_rate(self):
        q = random_codes(3, 8, seed=6)
        db = random_codes(30, 8, seed=7)
        rel = np.random.default_rng(2).random((3, 30)) > 0.5
        curve = pr_curve_hamming(q, db, rel)
        assert curve.precision[-1] == pytest.approx(rel.mean())

    def test_no_relevant_raises(self):
        q = random_codes(2, 8)
        db = random_codes(5, 8)
        with pytest.raises(ShapeError):
            pr_curve_hamming(q, db, np.zeros((2, 5), bool))

    def test_prcurve_shape_validation(self):
        with pytest.raises(ShapeError):
            PRCurve(np.arange(3), np.zeros(2), np.zeros(3))


class TestProtocol:
    def test_share_one_label(self):
        q = np.array([[1, 0, 1]])
        db = np.array([[0, 0, 1], [0, 1, 0]])
        np.testing.assert_array_equal(
            relevance_matrix(q, db), [[True, False]]
        )

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            relevance_matrix(np.zeros((1, 2)), np.zeros((1, 3)))


class TestHammingIndex:
    def test_search_orders_by_distance(self):
        db = np.array([[1.0, 1.0, 1.0, 1.0],
                       [-1.0, -1.0, -1.0, -1.0],
                       [1.0, 1.0, 1.0, -1.0]])
        index = HammingIndex(4).add(db)
        idx, dist = index.search(np.array([[1.0, 1.0, 1.0, 1.0]]), top_k=3)
        np.testing.assert_array_equal(idx[0], [0, 2, 1])
        np.testing.assert_array_equal(dist[0], [0, 1, 4])

    def test_radius_search(self):
        db = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        index = HammingIndex(2).add(db)
        hits = index.radius_search(np.array([[1.0, 1.0]]), radius=1)
        np.testing.assert_array_equal(hits[0], [0, 1])

    def test_unbuilt_raises(self):
        with pytest.raises(NotFittedError):
            HammingIndex(4).search(random_codes(1, 4), top_k=1)

    def test_top_k_bounds(self):
        index = HammingIndex(4).add(random_codes(3, 4))
        with pytest.raises(ShapeError):
            index.search(random_codes(1, 4), top_k=10)

    def test_storage_bytes(self):
        index = HammingIndex(64).add(random_codes(10, 64))
        assert index.storage_bytes == 80
        assert len(index) == 10

    def test_add_rejects_1d_input_with_shape_error(self):
        # Regression: used to raise a raw IndexError from codes.shape[1].
        with pytest.raises(ShapeError):
            HammingIndex(4).add(np.array([1.0, -1.0, 1.0, -1.0]))

    def test_add_rejects_nonbinary_with_shape_error(self):
        with pytest.raises(ShapeError):
            HammingIndex(4).add(np.full((2, 4), 0.5))

    def test_search_rejects_malformed_queries(self):
        index = HammingIndex(4).add(random_codes(3, 4))
        with pytest.raises(ShapeError):
            index.search(np.array([1.0, -1.0, 1.0, -1.0]), top_k=1)
        with pytest.raises(ShapeError):
            index.search(random_codes(1, 8), top_k=1)
        with pytest.raises(ShapeError):
            index.radius_search(np.array([1.0, -1.0]), radius=1)

    def test_clear_empties_index(self):
        index = HammingIndex(4).add(random_codes(3, 4))
        index.clear()
        assert len(index) == 0
        with pytest.raises(NotFittedError):
            index.search(random_codes(1, 4), top_k=1)


class TestEvaluateCodes:
    def test_report_fields(self):
        q = random_codes(4, 16, seed=8)
        db = random_codes(40, 16, seed=9)
        ql = np.eye(4, dtype=int)[:, :2].repeat(1, axis=1)
        ql = np.random.default_rng(3).integers(0, 2, size=(4, 3))
        ql[ql.sum(axis=1) == 0, 0] = 1
        dl = np.random.default_rng(4).integers(0, 2, size=(40, 3))
        dl[dl.sum(axis=1) == 0, 0] = 1
        report = evaluate_codes(q, db, ql, dl, pn_points=(5, 10))
        assert 0 <= report.map <= 1
        assert set(report.precision_at_n) == {5, 10}
        assert report.n_bits == 16
        assert "MAP" in str(report)

    def test_unsorted_pn_points_fallback_clamps_to_db(self):
        # Regression: the fallback read pn_points[0], assuming sorted input;
        # it now clamps to the database size regardless of point order.
        q = random_codes(2, 8, seed=10)
        db = random_codes(6, 8, seed=11)
        labels_q = np.ones((2, 1), dtype=int)
        labels_db = np.ones((6, 1), dtype=int)
        report = evaluate_codes(q, db, labels_q, labels_db,
                                pn_points=(500, 100))
        assert set(report.precision_at_n) == {6}
