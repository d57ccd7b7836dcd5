import tracemalloc

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
from areaflow.profile import SingularProfile, c_of, graph_frames, s_of


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


def block_curvature(table):
    """Minimal curvature tensors (B, d, d, d, d) with R[i,k,k,i] = table[i,k]."""
    d = table.shape[1]
    comp = np.zeros((len(table),) + (d,) * 4)
    i, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    comp[:, i, k, k, i] = table
    comp[:, i, k, i, k] = -table
    return comp


def dense_term_II_product(n, lam, kg, kh):
    """Term II through the whole block curvature of each factor, every entry of
    R contracted with -2 C_ii sum_k R(e_i, e_k, e_k, nu_i): the reference
    for the oracle, which reads only the nonzero entries."""
    m, ell = lam.shape[1], kh.shape[1]
    kh = np.pad(kh, ((0, 0), (0, n - ell), (0, n - ell)))
    e, nu = graph_frames(lam, np.eye(m), np.eye(n))
    path = "bpqrs,bip,bkq,bkr,bis->bik"
    tg = np.einsum(path, block_curvature(kg), e[:, :ell, :m], e[..., :m], e[..., :m],
                   nu[:, :ell, :m], optimize=True)
    th = np.einsum(path, block_curvature(kh), e[:, :ell, m:], e[..., m:], e[..., m:],
                   nu[:, :ell, m:], optimize=True)
    out = np.zeros((len(lam), m))
    out[:, :ell] = -2.0 * c_of(lam[:, :ell]) * (tg + th).sum(axis=2)
    return out


def term_II_inputs(m, n, rows, seed):
    """lambda, K^g and K^h as ``sweep_term_II`` draws them."""
    rng = np.random.default_rng(seed)
    lam = evolution._lambdas(rng, m, n, rows)
    kg, kh = (evolution._sym_tables(rng, rows, d, -1.0, 1.0) for d in (m, min(m, n)))
    return lam, kg, kh


class TestTermIIDenseReference:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_oracle_matches_the_dense_contraction(self, m, n):
        lam, kg, kh = term_II_inputs(m, n, 4096, 10 * m + n)
        want = dense_term_II_product(n, lam, kg, kh)
        got = evolution._term_II_product(n, lam, kg, kh)
        assert (abs(got - want) <= 4 * np.spacing(np.maximum(abs(want), 1.0))).all()

    def test_bruteforce_on_a_point_state(self):
        rng = np.random.default_rng(3)
        for dims in ((2, 4), (3, 3), (4, 2), (4, 4)):
            st = random_state(rng, None, dims=dims)
            want = dense_term_II_product(st.n, st.profile.lam[None], st.kg[None], st.kh[None])[0]
            for i in range(st.m):
                got = term_II_bruteforce(st, i)
                assert isinstance(got, float)
                assert abs(got - want[i]) <= 4 * np.spacing(max(abs(want[i]), 1.0)), (dims, i)

    def test_oracle_peak_memory(self):
        # the dense contraction peaked at 29.5 MiB on these 4096 rows
        lam, kg, kh = term_II_inputs(4, 4, 4096, 0)
        tracemalloc.start()
        try:
            evolution._term_II_product(4, lam, kg, kh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 29.5 / 2 * 2**20


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

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            positivity_gap(make_state([0.5, 0.25]), alpha)

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


class CountingRng:
    """A generator that counts the values its ``uniform`` and ``normal`` draw."""

    def __init__(self, seed):
        self.rng, self.values = np.random.default_rng(seed), 0

    def _count(self, out):
        self.values += np.size(out)
        return out

    def uniform(self, *args, **kwargs):
        return self._count(self.rng.uniform(*args, **kwargs))

    def normal(self, *args, **kwargs):
        return self._count(self.rng.normal(*args, **kwargs))


class TestRandomStates:
    def test_validity(self):
        rng = np.random.default_rng(31)
        for cond in (None, "A", "B", "C", "D"):
            st = random_state(rng, cond)
            assert st.profile.lam[0] >= st.profile.lam[-1]
            assert abs(st.kg - st.kg.T).max() == 0.0

    def test_impossible_draw_raises_instead_of_spinning(self):
        # Theta_1221 > -2, so alpha = -5 admits no candidate; the draw must stop
        # within its budget of _ROUNDS candidates per requested row
        for rows in (1, 40):
            rng = CountingRng(33)
            with pytest.raises(RuntimeError, match="admissible"):
                if rows == 1:
                    random_positive_state(rng, -5.0, dims=(3, 2))
                else:
                    draw_states(rng, None, 3, 2, rows, alpha=np.full(rows, -5.0))
            assert 0 < rng.values / 2 <= evolution._ROUNDS * rows  # two lambdas a candidate

    def test_non_finite_alpha_fails_at_once(self):
        rng = CountingRng(34)
        with pytest.raises(ValueError, match="alpha"):
            random_positive_state(rng, float("nan"), dims=(2, 2))
        assert rng.values == 0

    def test_alpha_every_candidate_passes_is_the_plain_draw(self):
        for m, n in ((2, 2), (3, 4), (4, 2)):  # Theta_1221 > -2 passes alpha = 2.5
            plain = draw_states(np.random.default_rng(9), None, m, n, 50)
            kept = draw_states(np.random.default_rng(9), None, m, n, 50, alpha=np.full(50, 2.5))
            for name, values in plain.arrays().items():
                assert np.array_equal(getattr(kept, name), values), (m, n, name)

    def test_positivity_draw_keeps_the_rejection_law(self):
        rows = 20000
        got = draw_states(np.random.default_rng(5), None, 4, 4, rows, alpha=np.zeros(rows)).lam
        # reference: candidates one at a time, each kept when admissible
        rng, kept = np.random.default_rng(6), []
        while sum(map(len, kept)) < rows:
            cand = np.sort(rng.uniform(0.0, 3.0, size=(100_000, 4)), axis=1)[:, ::-1]
            kept.append(cand[s_of(cand[:, :2]).sum(axis=1) > 1e-6])
        ref = np.concatenate(kept)[:rows]

        def quartile(x, p):
            # the p-quantile and its standard error from the order statistics
            # one binomial standard deviation of rank either side
            x = np.sort(x)
            half = np.sqrt(len(x) * p * (1 - p))
            lo, hi = x[int(len(x) * p - half)], x[int(len(x) * p + half)]
            return np.quantile(x, p), 0.5 * (hi - lo)

        for k in (0, 1):
            for p in (0.25, 0.5, 0.75):
                (q_got, se_got), (q_ref, se_ref) = quartile(got[:, k], p), quartile(ref[:, k], p)
                assert abs(q_got - q_ref) <= 3 * np.hypot(se_got, se_ref), (k, p)

    def test_empty_draw(self):
        for alpha in (None, np.zeros(0)):
            b = draw_states(np.random.default_rng(10), None, 4, 4, 0, alpha=alpha)
            assert len(b) == 0 and b.a2.shape == (0, 4, 4, 4)

    def test_per_row_alpha_is_met_row_by_row(self):
        rng = np.random.default_rng(11)
        alpha = rng.uniform(0.0, 2.0, 3000)
        b = draw_states(rng, None, 4, 3, 3000, alpha=alpha)
        assert (b.theta + alpha > 1e-6).all()

    def test_positive_state_has_positive_theta(self):
        rng = np.random.default_rng(32)
        st = random_positive_state(rng, 0.0)
        assert st.theta_min() > 0

    def test_algebra_sweep(self):
        out = sweep_algebra(30000, 41)
        assert max(out["pythagoras"], out["keystone"], out["weighted"],
                   out["wedge"]) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 41, 77])
    def test_algebra_sweep_covers_every_m(self, seed, monkeypatch):
        # a sweep of a few samples must check the wedge oracle at m = 2, 3 and 4,
        # not at one m the seed picks
        seen = []

        def recording(s):
            seen.append(s.shape[1])
            return wedge(s)

        wedge = evolution.theta_wedge_matrices
        monkeypatch.setattr(evolution, "theta_wedge_matrices", recording)
        assert sweep_algebra(30, seed)["wedge"] <= 1e-12
        assert sorted(set(seen)) == [2, 3, 4]


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
