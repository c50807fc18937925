"""Tests for the factor graph, incidence sets and covariance skeleton."""

import numpy as np
import pytest

from scma_d2d.factor_graph import (
    CodebookSkeleton,
    DimensionError,
    FactorGraph,
    build_covariance,
    build_factor_graph,
    covariance_split,
    default_skeleton,
    incidence_sets,
    random_skeleton,
    selector_matrix,
)

# the regular 4x6 indicator for K=4, J=6, N=2 (independently verified)
REGULAR_4x6 = np.array([
    [1, 1, 1, 0, 0, 0],
    [1, 0, 0, 1, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1],
])


class TestBuildFactorGraph:
    def test_regular_4x6(self):
        g = build_factor_graph(4, 6, 2)
        assert np.array_equal(g.indicator, REGULAR_4x6)
        assert g.indicator.sum(axis=1).tolist() == [3, 3, 3, 3]
        assert g.indicator.sum(axis=0).tolist() == [2] * 6
        assert g.d_c == 3 and g.d_f == 2

    def test_single_user_two_tones(self):
        g = build_factor_graph(2, 1, 2)
        assert np.array_equal(g.indicator, [[1], [1]])
        assert g.d_f == 2 and g.d_c == 1

    def test_regularity_invariants(self):
        for K, J, N in [(4, 6, 2), (2, 1, 2), (2, 2, 1), (3, 3, 2), (6, 6, 1)]:
            g = build_factor_graph(K, J, N)
            assert (g.indicator.sum(axis=0) == N).all()
            assert (g.indicator.sum(axis=1) == J * N // K).all()
            assert K * g.d_c == J * g.d_f

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            build_factor_graph(4, 5, 2)      # J*N not divisible by K
        with pytest.raises(DimensionError):
            build_factor_graph(2, 1, 3)      # N > K
        with pytest.raises(DimensionError):
            build_factor_graph(3, 4, 3)      # only C(3,3)=1 column available
        with pytest.raises(DimensionError):
            build_factor_graph(0, 1, 1)
        # an all-zero indicator passes every sum check with N = 0
        with pytest.raises(DimensionError, match="N = 0"):
            FactorGraph(np.zeros((2, 2), dtype=int), 2, 2, 0)
        with pytest.raises(DimensionError, match="N = 0"):
            FactorGraph.from_text("0 0\n0 0")

    def test_lex_prefix_can_be_irregular(self):
        """(4, 4, 2) passes the arithmetic preconditions but the first four
        lexicographic 2-subsets are not row-regular; rejected explicitly."""
        with pytest.raises(DimensionError):
            build_factor_graph(4, 4, 2)

    def test_entries_other_than_zero_and_one_rejected(self):
        """Entries 2 and -1 keep every column sum at N but are not 0/1."""
        ind = REGULAR_4x6.copy()
        ind[:, 0] = [2, 1, -1, 0]
        with pytest.raises(DimensionError, match="0 or 1"):
            FactorGraph(ind, 4, 6, 2)
        skel = default_skeleton(build_factor_graph(2, 2, 1))
        with pytest.raises(DimensionError, match="exactly one 1"):
            CodebookSkeleton((np.array([[2], [-1]]), skel.selectors[1]),
                             skel.rotation, skel.phases, skel.qam_covariance)

    def test_text_round_trip(self):
        g = build_factor_graph(4, 6, 2)
        again = FactorGraph.from_text(g.to_text())
        assert np.array_equal(again.indicator, g.indicator)
        assert (again.K, again.J, again.N) == (4, 6, 2)

    @pytest.mark.parametrize("text", ["", " \n\n", "1 0\n0 1 1", "1 0 1\n0 1"])
    def test_from_text_rejects_empty_or_ragged(self, text):
        with pytest.raises(DimensionError, match="empty or ragged"):
            FactorGraph.from_text(text)

    @pytest.mark.parametrize("text, token, line", [
        ("1 a\n0 1", "a", 1), ("1 0\n0.5 1", "0.5", 2), ("\n1 0\n0 nan", "nan", 3)])
    def test_from_text_rejects_non_integer_token(self, text, token, line):
        with pytest.raises(DimensionError,
                           match=f"entry '{token}' on line {line} is not an integer"):
            FactorGraph.from_text(text)


class TestIncidenceSets:
    def test_regular_4x6_rows_and_columns(self):
        inc = incidence_sets(build_factor_graph(4, 6, 2))
        assert inc.users_of_subcarrier[0] == (0, 1, 2)   # subcarrier 1: users 1,2,3
        assert inc.users_of_subcarrier[1] == (0, 3, 4)   # subcarrier 2: users 1,4,5
        assert inc.subcarriers_of_user[3] == (1, 2)      # user 4: subcarriers 2,3

    def test_trivial_1x1(self):
        inc = incidence_sets(FactorGraph(np.ones((1, 1), dtype=int), K=1, J=1, N=1))
        assert inc.users_of_subcarrier == ((0,),)
        assert inc.subcarriers_of_user == ((0,),)

    def test_membership_biconditional(self):
        """j in xi_k exactly when k in zeta_j, scanned over all 24 entries."""
        g = build_factor_graph(4, 6, 2)
        inc = incidence_sets(g)
        for k in range(4):
            for j in range(6):
                assert (j in inc.users_of_subcarrier[k]) == \
                       (k in inc.subcarriers_of_user[j])
                assert (j in inc.users_of_subcarrier[k]) == bool(g.indicator[k, j])

    def test_degrees(self):
        inc = incidence_sets(build_factor_graph(4, 6, 2))
        assert all(len(s) == 3 for s in inc.users_of_subcarrier)
        assert all(len(s) == 2 for s in inc.subcarriers_of_user)


class TestCovariance:
    def test_single_dimension_hand_value(self):
        """N=1 skeleton with spreading (1, i)/sqrt(2) and unit constellation
        powers puts exactly 1.0 at the occupied diagonal entry."""
        skel = CodebookSkeleton(
            selectors=(np.array([[1], [0]]),),   # dimension on subcarrier 1 of 2
            rotation=np.array([[1.0, 1.0j]]) / np.sqrt(2),
            phases=np.zeros(1),
            qam_covariance=np.ones((1, 2)),
        )
        cov = build_covariance(skel, 0)
        assert cov[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(np.delete(cov.reshape(-1), 0), 0.0)

    def test_zero_constellation_powers(self):
        g = build_factor_graph(4, 6, 2)
        skel = default_skeleton(g)
        zero = CodebookSkeleton(skel.selectors, skel.rotation, skel.phases,
                                np.zeros_like(skel.qam_covariance))
        assert np.allclose(build_covariance(zero, 2), 0.0)

    def test_random_skeleton_hermitian_psd(self):
        g = build_factor_graph(4, 6, 2)
        skel = random_skeleton(g, np.random.default_rng(42))
        for j in range(6):
            cov = build_covariance(skel, j)
            assert np.linalg.norm(cov - cov.conj().T) < 1e-12
            assert np.linalg.eigvalsh(cov).min() > -1e-10

    def test_zero_padding_outside_support(self):
        g = build_factor_graph(4, 6, 2)
        inc = incidence_sets(g)
        skel = random_skeleton(g, np.random.default_rng(7))
        for j in range(6):
            cov = build_covariance(skel, j)
            outside = [k for k in range(4) if k not in inc.subcarriers_of_user[j]]
            assert np.allclose(cov[outside, :], 0.0)
            assert np.allclose(cov[:, outside], 0.0)

    def test_split_sums_to_covariance(self):
        g = build_factor_graph(4, 6, 2)
        skel = random_skeleton(g, np.random.default_rng(3))
        for j in range(6):
            s1, s2 = covariance_split(skel, j)
            assert np.allclose(s1 + s2, build_covariance(skel, j))
            for part in (s1, s2):
                assert np.linalg.norm(part - part.conj().T) < 1e-12
                assert np.linalg.eigvalsh(part).min() > -1e-10
