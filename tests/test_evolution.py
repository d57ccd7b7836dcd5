import numpy as np
import pytest

from areaflow import evolution
from areaflow.evolution import (
    PointState,
    bound_A,
    bound_B,
    bound_C,
    bound_D,
    draw_states,
    grad_theta_sq,
    lemma_constant,
    positivity_gap,
    random_positive_state,
    random_state,
    sweep_algebra,
    sweep_bound,
    sweep_gradient_formula,
    sweep_positivity,
    sweep_term_II,
    terms_I_II_III,
    term_II_bruteforce,
)
from areaflow.profile import SingularProfile


def make_state(lam, kg=None, kh=None, a2=None, dtg=None, dth=None, n=None, **kw):
    lam = np.asarray(lam, dtype=float)
    m = lam.size
    n = m if n is None else n
    ell = min(m, n)
    profile = SingularProfile.from_lambdas(lam, m=m, n=n)
    kg = np.zeros((m, m)) if kg is None else np.asarray(kg, dtype=float)
    kh = np.zeros((ell, ell)) if kh is None else np.asarray(kh, dtype=float)
    a2 = np.zeros((n, m, m)) if a2 is None else np.asarray(a2, dtype=float)
    dtg = np.zeros(m) if dtg is None else np.asarray(dtg, dtype=float)
    dth = np.zeros(ell) if dth is None else np.asarray(dth, dtype=float)
    return PointState(m, n, profile, kg, kh, a2, dtg, dth, **kw)


def const_table(d, c):
    t = np.full((d, d), float(c))
    np.fill_diagonal(t, 0.0)
    return t


class TestTerms:
    def test_all_zero(self):
        st = make_state([1.5, 0.5])
        assert terms_I_II_III(st, 0) == (0.0, 0.0, 0.0)

    def test_isometry_kills_term_I(self):
        a2 = np.zeros((2, 2, 2))
        a2[0, 0, 0] = 1.0
        st = make_state([1.0, 1.0], a2=a2)
        t1, _, _ = terms_I_II_III(st, 0)
        assert t1 == 0.0

    def test_constant_map_kills_term_II(self):
        st = make_state([0.0, 0.0, 0.0], kg=const_table(3, 1.0))
        assert terms_I_II_III(st, 0)[1] == 0.0

    def test_term_I_hand_value(self):
        # lam = (2, 0): S = (-3/5, 1); a single A[1,0,1] entry of size 1
        a2 = np.zeros((2, 2, 2))
        a2[1, 0, 1] = a2[1, 1, 0] = 1.0
        st = make_state([2.0, 0.0], a2=a2)
        t1, _, _ = terms_I_II_III(st, 0)
        assert t1 == pytest.approx(2 * (-0.6 + 1.0) * 1.0, abs=1e-14)

    def test_term_II_hand_value(self):
        # II = C_11^2 [ (K12 - l2^2 Kh12)/(1+l2^2) ] for m = 2, i = 0
        st = make_state([2.0, 1.0], kg=const_table(2, 0.7), kh=const_table(2, 0.3))
        _, t2, _ = terms_I_II_III(st, 0)
        assert t2 == pytest.approx((0.8**2) * (0.7 - 1.0 * 0.3) / 2.0, abs=1e-14)

    def test_term_III(self):
        st = make_state([1.0, 0.5], dtg=[0.3, 0.0], dth=[-0.1, 0.0])
        _, _, t3 = terms_I_II_III(st, 0)
        assert t3 == pytest.approx(0.5 * 1.0 * (0.3 + 0.1), abs=1e-14)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            terms_I_II_III(make_state([1.0, 0.5]), 2)


class TestTermIIBruteforce:
    def test_flat_blocks(self):
        st = make_state([1.0, 0.5])
        assert term_II_bruteforce(st, 0) == 0.0

    def test_unit_sphere_blocks_isometry(self):
        st = make_state([1.0, 1.0], kg=const_table(2, 1.0), kh=const_table(2, 1.0))
        assert term_II_bruteforce(st, 0) == pytest.approx(0.0, abs=1e-14)
        assert terms_I_II_III(st, 0)[1] == pytest.approx(0.0, abs=1e-14)

    def test_matches_closed_form_randomly(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            st = random_state(rng, None)
            for i in range(st.m):
                want = terms_I_II_III(st, i)[1]
                assert term_II_bruteforce(st, i) == pytest.approx(want, abs=1e-12)

    def test_sweep(self):
        out = sweep_term_II(5000, seed=5)
        assert out["max_abs_diff"] <= 1e-12


class TestPositivity:
    def test_zero_A_zero_gap_components(self):
        st = make_state([0.5, 0.25], kg=const_table(2, 0.4))
        gap = positivity_gap(st, 0.7)
        # with A = 0 the estimate collapses to an identity
        assert gap == pytest.approx(0.0, abs=1e-14)

    def test_requires_theta_plus_alpha_positive(self):
        st = make_state([3.0, 2.0])  # Theta well below zero
        with pytest.raises(ValueError):
            positivity_gap(st, 0.0)

    def test_rejects_negative_alpha(self):
        st = make_state([0.5, 0.25])
        with pytest.raises(ValueError):
            positivity_gap(st, -0.1)

    def test_sweeps_nonnegative(self):
        assert sweep_positivity(1500, 11, alpha_positive=True)["min_gap"] >= -1e-10
        assert sweep_positivity(1500, 12, alpha_positive=False)["min_gap"] >= -1e-10

    def test_gradient_formula(self):
        out = sweep_gradient_formula(800, 13)
        assert out["max_abs_diff"] <= 1e-12

    def test_gradient_formula_catches_a_wrong_formula(self, monkeypatch):
        # C_ii with its factor 2 dropped scales |grad Theta|^2 by 1/4
        right = evolution.grad_theta_sq
        monkeypatch.setattr(evolution, "grad_theta_sq", lambda st: 0.25 * right(st))
        assert sweep_gradient_formula(800, 13)["max_abs_diff"] > 1e-3


class TestBounds:
    def test_vanishing_stretch_gives_zero(self):
        st = make_state([0.0, 0.0, 0.0], kg=const_table(3, 1.0), kh=const_table(3, 1.0))
        assert bound_A(st) == pytest.approx(0.0, abs=1e-14)

    def test_equal_spheres_isometry_equality(self):
        st = make_state([1.0, 1.0, 1.0], kg=const_table(3, 1.0),
                        kh=const_table(3, 1.0))
        assert bound_A(st) == pytest.approx(0.0, abs=1e-13)
        st_b = make_state([1.0, 1.0, 1.0], kg=const_table(3, 1.0),
                          kh=const_table(3, 1.0), kappa_m=1.0, tau_n=1.0)
        assert bound_B(st_b) == pytest.approx(0.0, abs=1e-13)

    def test_bound_A_rejects_inadmissible(self):
        st = make_state([1.0, 0.5], kg=const_table(2, -1.0), kh=const_table(2, 1.0))
        with pytest.raises(ValueError):
            bound_A(st)

    def test_bound_B_needs_declarations(self):
        st = make_state([1.0, 0.5])
        with pytest.raises(ValueError):
            bound_B(st)

    def test_bound_C_requires_ricci_rows(self):
        st = make_state([1.0, 0.5], kg=const_table(2, 1.0), kh=const_table(2, 1.0))
        with pytest.raises(ValueError):
            bound_C(st)  # dtg = 0 but Ric rows are not

    def test_shrinking_equal_spheres_equality(self):
        kg = const_table(3, 1.0)
        st = make_state([1.0, 1.0, 1.0], kg=kg, kh=const_table(3, 1.0),
                        dtg=-kg.sum(axis=1), dth=-kg.sum(axis=1))
        assert bound_C(st) == pytest.approx(0.0, abs=1e-13)

    def test_flat_everything_is_exactly_zero(self):
        st = make_state([1.5, 0.5])
        assert bound_C(st) == 0.0
        st_d = make_state([1.5, 0.5], tau_n=0.0)
        assert bound_D(st_d) == 0.0

    def test_sweeps(self):
        for cond in ("A", "B", "C", "D"):
            out = sweep_bound(cond, 1500, seed=21)
            assert out["min_gap"] >= -1e-10, cond
            if cond in ("C", "D"):
                assert out["chosen_constants"]["c0"] == 8.0

    def test_lemma_constant_scales(self):
        st = make_state([1.0, 0.5], kg=const_table(2, 2.0))
        assert lemma_constant(st) == pytest.approx(8.0 * 2.0 * 4)


class TestRandomStates:
    def test_validity(self):
        rng = np.random.default_rng(31)
        for cond in (None, "A", "B", "C", "D"):
            st = random_state(rng, cond)
            assert st.profile.lam[0] >= st.profile.lam[-1]
            assert abs(st.kg - st.kg.T).max() == 0.0

    def test_impossible_draw_raises_instead_of_spinning(self):
        with pytest.raises(RuntimeError, match="admissible"):
            random_positive_state(np.random.default_rng(33), -5.0)

    def test_positive_state_has_positive_theta(self):
        rng = np.random.default_rng(32)
        st = random_positive_state(rng, 0.0)
        assert st.theta_min() > 0

    def test_algebra_sweep(self):
        out = sweep_algebra(30000, 41)
        assert max(out["pythagoras"], out["keystone"], out["weighted"],
                   out["wedge"]) <= 1e-12


class TestBatchOfOne:
    """Every oracle on a batch agrees with its scalar call on each row."""

    GAPS = {None: (), "A": (bound_A,), "B": (bound_B,), "C": (bound_C,), "D": (bound_D,)}

    @staticmethod
    def assert_rowwise(batched, scalar_of_row, rows):
        for r in range(rows):
            assert abs(batched[r] - scalar_of_row(r)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("condition", [None, "A", "B", "C", "D"])
    def test_rows_match_scalar_calls(self, condition, m, n):
        rng = np.random.default_rng(7)
        rows = 12
        alpha = rng.uniform(0.0, 1.0, rows)
        b = draw_states(rng, condition, m, n, rows,
                        alpha=alpha if condition is None else None)
        assert len(b) == rows
        states = [b.row(r) for r in range(rows)]  # each row validates as a PointState
        for i in range(m):
            for k, batched in enumerate(terms_I_II_III(b, i)):
                self.assert_rowwise(batched, lambda r: terms_I_II_III(states[r], i)[k], rows)
            self.assert_rowwise(term_II_bruteforce(b, i),
                                lambda r: term_II_bruteforce(states[r], i), rows)
        self.assert_rowwise(grad_theta_sq(b), lambda r: grad_theta_sq(states[r]), rows)
        self.assert_rowwise(lemma_constant(b), lambda r: lemma_constant(states[r]), rows)
        if condition is None:
            self.assert_rowwise(positivity_gap(b, alpha),
                                lambda r: positivity_gap(states[r], alpha[r]), rows)
            assert all(st.theta_min() + a > 0 for st, a in zip(states, alpha))
        for gap in self.GAPS[condition]:
            self.assert_rowwise(gap(b), lambda r: gap(states[r]), rows)

    def test_batch_of_one_round_trips(self):
        st = random_state(np.random.default_rng(7), "B", dims=(3, 4))
        back = st.batch().row(0)
        for name in ("kg", "kh", "a2", "dtg", "dth"):
            assert np.array_equal(getattr(back, name), getattr(st, name))
        assert np.array_equal(back.profile.lam, st.profile.lam)
        assert (back.kappa_m, back.tau_n) == (st.kappa_m, st.tau_n)
        assert bound_B(st) == float(bound_B(st.batch())[0])

    def test_one_inadmissible_row_fails_the_batch(self):
        b = draw_states(np.random.default_rng(8), "A", 2, 2, 3)
        assert bound_A(b).shape == (3,)
        b.kg[1], b.kh[1] = const_table(2, -1.0), const_table(2, 1.0)
        with pytest.raises(ValueError, match="condition"):
            bound_A(b)
