import tracemalloc
from importlib import import_module
from pkgutil import walk_packages

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbc_lab
from sbc_lab import core
from sbc_lab.core import TestQuantity as Quantity
from sbc_lab.core import (
    InvalidQuantityError,
    SamplerError,
    compute_rank,
    ess,
    evaluate_quantities,
    run_sbc,
)
from sbc_lab.models import gaussian
from sbc_lab.rng import generation_stream, posterior_stream, stream, tiebreak_stream


def rank_one(prior, posterior, rng):
    """``(n_less, n_equals, rank)`` of one prior value: a (1, 1, n+1) block ranked from ``rng``."""
    block = np.concatenate([[prior], posterior])[None, None, :]
    return tuple(int(a[0, 0]) for a in compute_rank(block, lambda r: rng))


class TestComputeRank:
    def test_no_ties_direct_count(self):
        assert rank_one(2.5, [1.0, 2.0, 3.0], stream(0, 0)) == (2, 0, 2)

    def test_all_tied_rank_spreads_uniformly(self):
        seen = {rank_one(1.0, [1.0, 1.0, 1.0], stream(0, i))[2] for i in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_partial_ties(self):
        n_less, n_equals, rank = rank_one(5.0, [5.0, 5.0, 1.0], stream(3, 1))
        assert n_less == 1 and n_equals == 2
        assert rank in {1, 2, 3}

    def test_tie_uniformity_frequencies(self):
        # fixed inputs with 4 tied values: each rank lands with freq 1/5 +- 0.01
        n_rep = 100_000
        block = np.tile([7.0, 0.0, 7.0, 7.0, 7.0, 7.0, 9.0], (n_rep, 1, 1))
        rng = stream(42, 0)
        counts = np.bincount(compute_rank(block, lambda r: rng)[2][:, 0], minlength=7)
        freqs = counts[1:6] / n_rep
        assert np.all(np.abs(freqs - 0.2) < 0.01)
        assert counts[0] == 0 and counts[6] == 0

    def test_infinities_participate_in_ordering_and_ties(self):
        n_less, n_equals, _ = rank_one(-np.inf, [-np.inf, 0.0, np.inf], stream(1, 1))
        assert n_less == 0 and n_equals == 1

    def test_nan_rejected(self):
        # NaN in some values of a cell but not all is a broken quantity
        with pytest.raises(InvalidQuantityError):
            rank_one(np.nan, [1.0], stream(0, 0))
        with pytest.raises(InvalidQuantityError):
            rank_one(0.0, [np.nan, 1.0], stream(0, 0))

    def test_all_nan_cell_is_not_evaluated(self):
        # an all-NaN cell counts 0 and draws no tie share, so the tied cell
        # next to it draws what it would draw alone
        block = np.array([[[np.nan] * 4, [1.0, 0.5, 1.0, 2.0]]])
        n_less, n_equals, rank = compute_rank(block, lambda r: stream(5, 0))
        assert n_less.tolist() == [[0, 1]] and n_equals.tolist() == [[0, 1]]
        assert rank.tolist() == [[0, rank_one(1.0, [0.5, 1.0, 2.0], stream(5, 0))[2]]]

    def test_empty_rejected(self):
        # a block needs a prior column and at least one posterior column, in 3-D
        with pytest.raises(ValueError, match="block with M >= 1"):
            compute_rank(np.zeros((1, 1, 1)), lambda r: stream(0, 0))
        with pytest.raises(ValueError, match="block with M >= 1"):
            compute_rank(np.zeros((1, 3)), lambda r: stream(0, 0))

    @given(
        values=st.lists(st.sampled_from([k * 0.5 for k in range(-40, 41)]), min_size=1, max_size=30),
        prior=st.sampled_from([k * 0.5 for k in range(-40, 41)]),
        scale=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
        shift=st.sampled_from([k * 0.5 for k in range(-20, 21)]),
        key=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_strictly_increasing_transform_preserves_rank(self, values, prior, scale, shift, key):
        # half-integer grid and power-of-two scales keep the transform exact,
        # so orderings and ties are preserved bit-for-bit
        arr = np.asarray(values)
        a = rank_one(prior, arr, stream(key, 0))
        assert rank_one(scale * prior + shift, scale * arr + shift, stream(key, 0)) == a

    @given(
        values=st.lists(
            st.sampled_from([k * 0.5 for k in range(-40, 41)]), min_size=1, max_size=30, unique=True
        ),
        key=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_transform_flips_rank(self, values, key):
        arr = np.asarray(values)
        prior = 0.25  # off-grid: never tied
        a = rank_one(prior, arr, stream(key, 0))
        b = rank_one(-prior, -arr, stream(key, 0))
        assert b[2] == len(values) - a[2]


class TestTieBreakStream:
    """The numpy behaviour that lets one call break every quantity's ties.

    Neither fact is a documented guarantee of numpy, so both are pinned here.
    """

    def test_range_of_one_draws_nothing(self):
        for key in range(200):
            rng, fresh = stream(key, 1), stream(key, 1)
            assert rng.integers(0, 1) == 0
            assert rng.random() == fresh.random()

    def test_array_of_highs_equals_scalar_calls_in_order(self):
        shapes = stream(2024, 0)
        for key in range(2000):
            highs = shapes.integers(0, 6, size=shapes.integers(1, 16))
            highs[shapes.random(highs.size) < 0.4] = 0
            scalar, batched = stream(key, 2), stream(key, 2)
            expected = [int(scalar.integers(0, h + 1)) for h in highs]
            assert batched.integers(0, highs + 1).tolist() == expected
            assert batched.random() == scalar.random()


class TestEvaluateQuantities:
    def _group(self):
        # one simulation: its prior draw stacked on its posterior draws, and its dataset
        return np.array([[[0.3, -1.0], [1.0, 2.0], [3.0, 4.0]]]), [None]

    def test_projection_and_sum(self):
        quantities = [
            Quantity("first", lambda draws, data: draws[:, 0]),
            Quantity("total", lambda draws, data: draws.sum(axis=1)),
        ]
        values, errors = evaluate_quantities(*self._group(), quantities)
        assert errors == {}
        np.testing.assert_allclose(values[0, 0], [0.3, 1.0, 3.0])
        np.testing.assert_allclose(values[0, 1], [-0.7, 3.0, 7.0])

    def test_failure_isolated_per_quantity(self):
        def boom(draws, data):
            raise RuntimeError("broken evaluator")

        quantities = [
            Quantity("bad", boom),
            Quantity("good", lambda draws, data: draws[:, 1]),
        ]
        values, errors = evaluate_quantities(*self._group(), quantities)
        assert errors == {(0, 0): "RuntimeError: broken evaluator"}
        assert np.isnan(values[0, 0]).all() and values[0, 1].tolist() == [-1.0, 2.0, 4.0]


class _ToyGenerator:
    def generate(self, rng):
        theta = rng.normal(size=1)
        data = float(theta[0] + rng.normal())
        return theta, data


class _ToyFamily:
    name = "toy-correct"

    def sample(self, data, M, rng, thin):
        # correct posterior for x ~ N(theta, 1), theta ~ N(0, 1)
        return rng.normal(loc=data / 2.0, scale=np.sqrt(0.5), size=(M, 1))


class _ToyBatchedFamily(_ToyFamily):
    def sample_batch(self, datas, M, streams, thin):
        return [self.sample(d, M, rng, thin) for d, rng in zip(datas, streams)]


class _FlakyFamily(_ToyFamily):
    name = "toy-flaky"

    def sample(self, data, M, rng, thin):
        if data > 1.0:
            raise SamplerError("refused to fit")
        return super().sample(data, M, rng, thin)


class _PickyBatchedFamily(_ToyBatchedFamily):
    """Raises a non-SamplerError for large data, so any group holding one fails."""

    name = "toy-picky"

    def sample(self, data, M, rng, thin):
        if data > 1.5:
            raise KeyError(f"no fit for {data:.3f}")
        return super().sample(data, M, rng, thin)


class _MisshapenBatchedFamily(_ToyBatchedFamily):
    name = "toy-misshapen"

    def sample(self, data, M, rng, thin):
        draws = super().sample(data, M, rng, thin)
        return draws[:-1] if data > 1.5 else draws


class _ShortBatchedFamily(_ToyBatchedFamily):
    """Gives one result too few for every group."""

    name = "toy-short"

    def sample_batch(self, datas, M, streams, thin):
        return super().sample_batch(datas, M, streams, thin)[:-1]


class _NonNumericFamily(_ToyFamily):
    """Returns a ragged list for large data and a string for small data."""

    name = "toy-non-numeric"

    def sample(self, data, M, rng, thin):
        draws = super().sample(data, M, rng, thin)
        if data > 1.5:
            return [*draws[1:].tolist(), [0.0, 0.0]]
        return "no draws" if data < -1.5 else draws


class _NonNumericBatchedFamily(_NonNumericFamily, _ToyBatchedFamily):
    pass


class _CostlyFailingFamily(_ToyFamily):
    """Fills a working array, then raises for positive data."""

    name = "toy-costly"

    def sample(self, data, M, rng, thin):
        work = np.ones((M, 1000))
        if data > 0.0:
            raise SamplerError(f"no fit after {work.size} steps")
        return super().sample(data, M, rng, thin)


class _CostlyFailingBatchedFamily(_CostlyFailingFamily, _ToyBatchedFamily):
    pass


_QS = [Quantity("theta", lambda draws, data: draws[:, 0])]


class TestRunSbc:
    def test_deterministic_across_repeats(self):
        runs = [run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=40, M=17, seed=99) for _ in range(2)]
        tables = [
            [r.quantities, *(a.tolist() for a in (r.sim_index, r.rank, r.n_less, r.n_equals))]
            for r in runs
        ]
        assert tables[0] == tables[1]

    def test_batched_path_matches_per_sim_path(self):
        a = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=25, M=9, seed=5)
        b = run_sbc(_ToyGenerator(), _ToyBatchedFamily(), _QS, S=25, M=9, seed=5)
        assert a.rank.tolist() == b.rank.tolist()

    def test_failures_excluded_and_counted(self):
        run = run_sbc(_ToyGenerator(), _FlakyFamily(), _QS, S=60, M=5, seed=31)
        assert run.n_failed > 0
        assert len(run.sim_index) == 60 - run.n_failed
        failed = {i for i, _ in run.failures}
        assert all(i not in failed for i in run.sim_index.tolist())
        # ranks only from surviving simulations
        assert run.ranks("theta").size == len(run.sim_index)

    @pytest.mark.parametrize("family", [_PickyBatchedFamily(), _MisshapenBatchedFamily()])
    def test_batched_failures_cost_one_simulation(self, family):
        reference = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=40, M=9, seed=12)
        run = run_sbc(_ToyGenerator(), family, _QS, S=40, M=9, seed=12)
        bad = [i for i, data in zip(reference.sim_index.tolist(), reference.data) if data > 1.5]
        assert 0 < len(bad) < 40
        assert [i for i, _ in run.failures] == bad
        expected_type = "KeyError" if isinstance(family, _PickyBatchedFamily) else "ValueError"
        assert all(message.startswith(expected_type + ": ") for _, message in run.failures)
        ranks = dict(zip(reference.sim_index.tolist(), reference.rank[:, 0].tolist()))
        assert run.rank[:, 0].tolist() == [ranks[i] for i in run.sim_index.tolist()]

    def test_a_miscounted_group_is_sampled_one_simulation_at_a_time(self):
        reference = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=40, M=9, seed=12)
        run = run_sbc(_ToyGenerator(), _ShortBatchedFamily(), _QS, S=40, M=9, seed=12)
        assert run.failures == []
        assert run.sim_index.tolist() == list(range(40))
        assert run.rank.tolist() == reference.rank.tolist()

    @pytest.mark.parametrize("family", [_NonNumericFamily(), _NonNumericBatchedFamily()])
    def test_non_numeric_draws_fail_with_the_conversion_message(self, family):
        reference = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=60, M=9, seed=12)
        run = run_sbc(_ToyGenerator(), family, _QS, S=60, M=9, seed=12)

        def conversion_message(got):
            with pytest.raises(ValueError) as raised:
                np.asarray(got, dtype=float)
            return f"ValueError: {raised.value}"

        ragged = conversion_message([[0.0]] * 8 + [[0.0, 0.0]])
        text = conversion_message("no draws")
        expected = [
            (i, ragged if data > 1.5 else text)
            for i, data in zip(reference.sim_index.tolist(), reference.data)
            if abs(data) > 1.5
        ]
        assert {message for _, message in expected} == {ragged, text}
        assert run.failures == expected
        ranks = dict(zip(reference.sim_index.tolist(), reference.rank[:, 0].tolist()))
        assert run.rank[:, 0].tolist() == [ranks[i] for i in run.sim_index.tolist()]
        assert run.data == [data for data in reference.data if abs(data) <= 1.5]

    @pytest.mark.parametrize("family", [_CostlyFailingFamily(), _CostlyFailingBatchedFamily()])
    def test_peak_memory_does_not_grow_with_failures(self, family):
        # a failure is kept as its message where it is caught, so its traceback
        # and the sampler's working array it holds are freed there
        M = 100

        def failures_and_peak(S):
            tracemalloc.start()
            try:
                run = run_sbc(_ToyGenerator(), family, _QS, S=S, M=M, seed=2)
                return run.n_failed, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, small = failures_and_peak(100)
        many, large = failures_and_peak(400)
        assert many - few > 100
        assert large - small < 8 * M * 1000 * 8  # the working arrays of 8 failures

    def test_correct_toy_posterior_rank_moments(self):
        run = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=3000, M=9, seed=7)
        ranks = run.ranks("theta")
        # uniform{0..9} has mean 4.5, sd ~2.87; allow 4 sigma of the mean
        assert abs(ranks.mean() - 4.5) < 4 * 2.872 / np.sqrt(ranks.size)

    def test_ranks_equal_a_scalar_oracle(self):
        # reference: per quantity in library order, count the smaller and the
        # equal posterior values and draw one tie share from the simulation's
        # tie-break stream (a range of one draws nothing: see TestTieBreakStream)
        qs = [
            Quantity("sign", lambda draws, data: np.sign(draws[:, 0])),
            *_QS,
            Quantity("floor", lambda draws, data: np.floor(2.0 * draws[:, 0])),
        ]
        run = run_sbc(_ToyGenerator(), _ToyFamily(), qs, S=50, M=9, seed=8)
        assert run.n_equals.any() and not run.n_equals.all()
        for row, i in enumerate(run.sim_index.tolist()):
            theta, data = _ToyGenerator().generate(generation_stream(8, i))
            draws = _ToyFamily().sample(data, 9, posterior_stream(8, i), 1)
            tie_rng = tiebreak_stream(8, i)
            for j, q in enumerate(qs):
                prior, post = q.evaluator(theta[None, :], data)[0], q.evaluator(draws, data)
                n_less, n_equal = int(np.sum(post < prior)), int(np.sum(post == prior))
                rank = n_less + int(tie_rng.integers(0, n_equal + 1))
                got = (run.rank[row, j], run.n_less[row, j], run.n_equals[row, j])
                assert got == (rank, n_less, n_equal)

    def test_tie_stream_opened_only_on_ties(self, monkeypatch):
        opened = []

        def tiebreak(seed, i):
            opened.append(i)
            return tiebreak_stream(seed, i)

        monkeypatch.setattr(core, "tiebreak_stream", tiebreak)
        run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=30, M=9, seed=8)
        assert opened == []
        rounded = Quantity("rounded", lambda draws, data: np.round(draws[:, 0], 1))
        run = run_sbc(_ToyGenerator(), _ToyFamily(), [rounded, *_QS], S=30, M=9, seed=8)
        assert 0 < len(opened) < 30
        assert opened == run.sim_index[run.n_equals.any(axis=1)].tolist()

    def test_nan_quantity_is_a_quantity_error(self):
        # NaN is a per-(simulation, quantity) failure, like a wrong shape
        def flaky(draws, data):
            return np.where(data >= 1.0, np.nan, draws[:, 0])

        qs = [Quantity("flaky", flaky), *_QS]
        run = run_sbc(_ToyGenerator(), _ToyFamily(), qs, S=200, M=9, seed=3)
        reference = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=200, M=9, seed=3)
        bad = [i for i, data in zip(reference.sim_index.tolist(), reference.data) if data >= 1.0]
        assert run.n_failed == 0 and 0 < len(bad) < 200
        assert [(i, name) for i, name, _ in run.quantity_errors] == [(i, "flaky") for i in bad]
        assert all(m.startswith("InvalidQuantityError: NaN") for _, _, m in run.quantity_errors)
        assert run.ranks("flaky").size == 200 - len(bad)
        assert run.quantity_names() == ["flaky", "theta"]
        assert run.ranks("theta").size == 200

    def test_nan_draws_are_a_sampling_failure(self):
        class NanFamily(_ToyFamily):
            def sample(self, data, M, rng, thin):
                draws = super().sample(data, M, rng, thin)
                draws[0] = np.nan if data > 1.5 else draws[0]
                return draws

        reference = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=60, M=9, seed=4)
        run = run_sbc(_ToyGenerator(), NanFamily(), _QS, S=60, M=9, seed=4)
        bad = [i for i, data in zip(reference.sim_index.tolist(), reference.data) if data > 1.5]
        assert 0 < len(bad) < 60 and run.quantity_errors == []
        assert run.failures == [(i, "SamplerError: family returned NaN in 1 of 9 draws") for i in bad]
        ranks = dict(zip(reference.sim_index.tolist(), reference.rank[:, 0].tolist()))
        assert run.rank[:, 0].tolist() == [ranks[i] for i in run.sim_index.tolist()]

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=0, M=3, seed=0)
        with pytest.raises(ValueError):
            run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=3, M=0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected_before_any_stream(self, seed, monkeypatch):
        # streams key the seed mod 2^64: -1 would silently run seed 2^64 - 1
        opened = []
        monkeypatch.setattr(core, "generation_stream", lambda *key: opened.append(key))
        monkeypatch.setattr(core, "posterior_stream", lambda *key: opened.append(key))
        with pytest.raises(ValueError, match=f"seed must be from 0 to {2**64 - 1}, got {seed}"):
            run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=3, M=3, seed=seed)
        assert opened == []

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seeds_at_both_ends_run(self, seed):
        run = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=5, M=3, seed=seed)
        assert run.seed == seed and run.n_failed == 0

    def test_peak_memory_holds_one_sampled_group(self, monkeypatch):
        # each sampled group is ranked before the next one is sampled, so more
        # simulations add what a run keeps of each (its prior draw, dataset and
        # ranks) to the peak, not their posterior draws
        M = 400
        monkeypatch.setattr(core, "_LOCKSTEP_BYTES", 50 * 8 * M * 2)  # 50 simulations a group
        family = gaussian.make_variant("correct", 3)
        quantities = gaussian.quantity_library(3, family)[:1]

        def peak(S):
            tracemalloc.start()
            try:
                run_sbc(gaussian.GaussianGenerator(3), family, quantities, S=S, M=M, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        extra_draws = 2000 * M * 2 * 8  # bytes of the 2 000 more simulations' draws
        assert peak(4000) - peak(2000) < extra_draws / 2


def _rounded(draws, data):
    """Ties in some simulations; raises in others."""
    if data > 1.5:
        raise ArithmeticError(f"no value at {data:.3f}")
    return np.round(draws[:, 0], 1)


def _rounded_nan(draws, data):
    """Ties in some simulations; NaN in others."""
    return np.round(draws[:, 0], 1) + (np.nan if data > 1.5 else 0.0)


def _stacked(draws, datasets):
    """The batch form of ``_rounded_nan``: NaN rows where it gives NaN."""
    return np.stack([_rounded_nan(d, data) for d, data in zip(draws, datasets)])


def _raising_batch(draws, datasets):
    raise RuntimeError("batch form broken")


def _misshapen_batch(draws, datasets):
    return draws[:, 1:, 0]


class TestGroupedEvaluation:
    """A batch form that fails, misshapes or gives NaN costs what the per-simulation path costs."""

    @pytest.mark.parametrize(
        "evaluator, batch, error",
        [
            (_rounded, _raising_batch, "ArithmeticError: no value at "),
            (_rounded, _misshapen_batch, "ArithmeticError: no value at "),
            (_rounded_nan, _stacked, "InvalidQuantityError: NaN in rank inputs for quantity 'rounded'"),
        ],
    )
    @pytest.mark.parametrize("group_bytes", [1, 8 * 10 * 3 * 7, core._GROUP_BYTES])
    def test_same_outcome_as_the_per_simulation_path(
        self, monkeypatch, evaluator, batch, error, group_bytes
    ):
        def outcome(quantity):
            opened = []

            def tiebreak(seed, i):
                opened.append(i)
                return tiebreak_stream(seed, i)

            monkeypatch.setattr(core, "tiebreak_stream", tiebreak)
            run = run_sbc(_ToyGenerator(), _ToyFamily(), [*_QS, quantity], S=80, M=9, seed=21)
            return run, opened

        plain, plain_opened = outcome(Quantity("rounded", evaluator))
        monkeypatch.setattr(core, "_GROUP_BYTES", group_bytes)  # groups of 1, 7 and all 80
        run, opened = outcome(Quantity("rounded", evaluator, batch=batch))
        assert 0 < len(plain.quantity_errors) < 80 and 0 < len(plain_opened) < 80
        assert all(m.startswith(error) for _, _, m in run.quantity_errors)
        assert run.quantity_errors == plain.quantity_errors
        assert opened == plain_opened
        for table in ("rank", "n_less", "n_equals", "evaluated"):
            assert getattr(run, table).tolist() == getattr(plain, table).tolist(), table

    def test_evaluate_quantities_is_a_group_of_one(self):
        quantities = [
            Quantity("rounded", _rounded_nan, batch=_stacked),
            Quantity("shaped", lambda draws, data: draws[:-1, 0]),
            Quantity("first", lambda draws, data: draws[:, 0], batch=lambda d, ds: d[..., 0]),
        ]
        draws = np.array([[[0.3], [1.04], [2.0], [0.26]]])
        values, errors = evaluate_quantities(draws, [2.0], quantities)
        assert values[0, 2].tolist() == [0.3, 1.04, 2.0, 0.26]
        assert np.isnan(values[0, :2]).all()
        assert errors == {
            (0, 0): "InvalidQuantityError: NaN in rank inputs for quantity 'rounded'",
            (0, 1): "InvalidQuantityError: evaluator 'shaped' returned shape (3,), expected (4,)",
        }
        values, errors = evaluate_quantities(draws, [1.0], quantities[:1])
        assert errors == {} and values[0, 0].tolist() == [0.3, 1.0, 2.0, 0.3]


    def test_every_library_quantity_is_one_group_kernel(self):
        from sbc_lab.cli import MODELS

        for model, spec in MODELS.items():
            for variant in spec.variants:
                for n in (1, 3):
                    for q in spec.quantities(spec.family(variant, n), n):
                        assert q.batch is not None, (model, variant, n, q.name)
                        assert q.evaluator.__qualname__ == "group_quantity.<locals>.evaluator"

def test_every_exported_name_resolves():
    # a removed function must not stay behind as an export
    names = [m.name for m in walk_packages(sbc_lab.__path__, "sbc_lab.")]
    for module in [sbc_lab, *map(import_module, names)]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


class TestEss:
    def test_independent_chain(self):
        x = stream(11, 0).standard_normal(10_000)
        out = ess(x)
        assert not out.degenerate
        assert 8000 <= out.ess <= 10_500

    def test_constant_chain_degenerate(self):
        out = ess(np.ones(500))
        assert out.degenerate and out.ess == 0.0

    def test_ar1_chain_matches_analytic_ess(self):
        rng = stream(123, 0)
        n, rho = 20_000, 0.9
        eps = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = eps[0]
        for t in range(1, n):
            x[t] = rho * x[t - 1] + np.sqrt(1 - rho**2) * eps[t]
        expected = n * (1 - rho) / (1 + rho)
        out = ess(x)
        assert abs(out.ess - expected) / expected < 0.30

    def test_short_chain_rejected(self):
        with pytest.raises(ValueError):
            ess(np.arange(5.0))

    def test_cap_at_1_05_n(self):
        # strongly antithetic chain has tau < 1; estimate must stay capped
        x = np.tile([1.0, -1.0], 500) + 0.01 * stream(4, 2).standard_normal(1000)
        assert ess(x).ess <= 1050.0
