import re
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
from sbc_lab.models import bernoulli, gaussian, simplex
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
            Quantity("first", lambda draws, datasets: draws[..., 0]),
            Quantity("total", lambda draws, datasets: draws.sum(axis=2)),
        ]
        values, errors = evaluate_quantities(*self._group(), quantities)
        assert errors == {}
        np.testing.assert_allclose(values[0, 0], [0.3, 1.0, 3.0])
        np.testing.assert_allclose(values[0, 1], [-0.7, 3.0, 7.0])

    def test_failure_isolated_per_quantity(self):
        def boom(draws, datasets):
            raise RuntimeError("broken kernel")

        quantities = [
            Quantity("bad", boom),
            Quantity("good", lambda draws, datasets: draws[..., 1]),
        ]
        values, errors = evaluate_quantities(*self._group(), quantities)
        assert errors == {(0, 0): "RuntimeError: broken kernel"}
        assert np.isnan(values[0, 0]).all() and values[0, 1].tolist() == [-1.0, 2.0, 4.0]

    @pytest.mark.parametrize(
        "draws, datasets",
        [
            (np.zeros((2, 3, 1)), [None]),  # one dataset for two simulations
            (np.zeros((2, 3, 1)), [None] * 3),
            (np.zeros((3, 1)), [None] * 3),  # not a (g, N, dim) block
        ],
    )
    def test_misshapen_input_rejected(self, draws, datasets):
        quantities = [Quantity("first", lambda draws, datasets: draws[..., 0])]
        with pytest.raises(ValueError, match=r"need \(g, N, dim\) draws and g datasets"):
            evaluate_quantities(draws, datasets, quantities)


class _ToyGenerator:
    def generate(self, rng):
        theta = rng.normal(size=1)
        data = float(theta[0] + rng.normal())
        return theta, data


class _ToyFamily:
    name = "toy-correct"

    def sample_batch(self, datas, M, streams, thin):
        # correct posterior for x ~ N(theta, 1), theta ~ N(0, 1)
        return [rng.normal(loc=d / 2.0, scale=np.sqrt(0.5), size=(M, 1)) for d, rng in zip(datas, streams)]


class _FlakyFamily(_ToyFamily):
    """Raises a SamplerError for a group holding a dataset above 1.0."""

    name = "toy-flaky"

    def sample_batch(self, datas, M, streams, thin):
        if max(datas) > 1.0:
            raise SamplerError("refused to fit")
        return super().sample_batch(datas, M, streams, thin)


class _PickyFamily(_ToyFamily):
    """Raises a non-SamplerError for a group holding a dataset above 1.5."""

    name = "toy-picky"

    def sample_batch(self, datas, M, streams, thin):
        high = [d for d in datas if d > 1.5]
        if high:
            raise KeyError(f"no fit for {high[0]:.3f}")
        return super().sample_batch(datas, M, streams, thin)


class _MisshapenFamily(_ToyFamily):
    """Returns one draw too few for a dataset above 1.5."""

    name = "toy-misshapen"

    def sample_batch(self, datas, M, streams, thin):
        out = super().sample_batch(datas, M, streams, thin)
        return [draws[:-1] if d > 1.5 else draws for d, draws in zip(datas, out)]


class _ShortFamily(_ToyFamily):
    """Gives one result too few for every group of more than one."""

    name = "toy-short"

    def sample_batch(self, datas, M, streams, thin):
        out = super().sample_batch(datas, M, streams, thin)
        return out[:-1] if len(out) > 1 else out


class _EmptyFamily(_ToyFamily):
    """Returns no result for a group holding a dataset above 1.0."""

    name = "toy-empty"

    def sample_batch(self, datas, M, streams, thin):
        return [] if max(datas) > 1.0 else super().sample_batch(datas, M, streams, thin)


class _NonNumericFamily(_ToyFamily):
    """Returns a ragged list for large data and a string for small data."""

    name = "toy-non-numeric"

    def sample_batch(self, datas, M, streams, thin):
        out = super().sample_batch(datas, M, streams, thin)
        return [
            [*draws[1:].tolist(), [0.0, 0.0]] if d > 1.5 else "no draws" if d < -1.5 else draws
            for d, draws in zip(datas, out)
        ]


class _CostlyFailingFamily(_ToyFamily):
    """Fills a working array, then raises for a group holding positive data."""

    name = "toy-costly"

    def sample_batch(self, datas, M, streams, thin):
        work = np.ones((M, 1000))
        if max(datas) > 0.0:
            raise SamplerError(f"no fit after {work.size} steps")
        return super().sample_batch(datas, M, streams, thin)


class _SampleOnlyFamily:
    """A family with a per-simulation `sample` and no `sample_batch`."""

    name = "toy-sample-only"

    def sample(self, data, M, rng, thin):
        return rng.normal(size=(M, 1))


_QS = [Quantity("theta", lambda draws, datasets: draws[..., 0])]


class TestRunSbc:
    def test_deterministic_across_repeats(self):
        runs = [run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=40, M=17, seed=99) for _ in range(2)]
        tables = [
            [r.quantities, *(a.tolist() for a in (r.sim_index, r.rank, r.n_less, r.n_equals))]
            for r in runs
        ]
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("family", [_PickyFamily(), _MisshapenFamily()])
    def test_same_outcome_at_every_sampled_grouping(self, monkeypatch, family):
        # sampling fails for datasets above 1.5, by a raising group call that is
        # then sampled as groups of one or by draws of the wrong shape, and
        # `low` gives NaN for datasets below -1
        def low(draws, datasets):
            return np.round(draws[..., 0], 1) + np.where(np.less(datasets, -1.0), np.nan, 0.0)[:, None]

        def outcome(lockstep_bytes):
            monkeypatch.setattr(core, "_LOCKSTEP_BYTES", lockstep_bytes)
            quantities = [*_QS, Quantity("low", low)]
            return run_sbc(_ToyGenerator(), family, quantities, S=80, M=9, seed=21)

        # groups of 1, 7 and all 80: 8 * M * thin * dim bytes a simulation
        single, *grouped = map(outcome, (8 * 9, 8 * 9 * 7, core._LOCKSTEP_BYTES))
        assert 0 < single.n_failed < 80 and 0 < len(single.quantity_errors) < 80 - single.n_failed
        for run in grouped:
            assert (run.failures, run.data) == (single.failures, single.data)
            assert run.quantity_errors == single.quantity_errors
            assert run.rank.tolist() == single.rank.tolist()

    def test_a_family_without_sample_batch_is_rejected_before_any_simulation(self, monkeypatch):
        opened = []
        monkeypatch.setattr(core, "generation_stream", lambda *key: opened.append(key))
        with pytest.raises(TypeError, match="posterior family _SampleOnlyFamily has no sample_batch"):
            run_sbc(_ToyGenerator(), _SampleOnlyFamily(), _QS, S=3, M=3, seed=0)
        assert opened == []

    def test_failures_excluded_and_counted(self):
        run = run_sbc(_ToyGenerator(), _FlakyFamily(), _QS, S=60, M=5, seed=31)
        assert run.n_failed > 0
        assert len(run.sim_index) == 60 - run.n_failed
        failed = {i for i, _ in run.failures}
        assert all(i not in failed for i in run.sim_index.tolist())
        # ranks only from surviving simulations
        assert run.ranks("theta").size == len(run.sim_index)

    @pytest.mark.parametrize("family", [_PickyFamily(), _MisshapenFamily()])
    def test_batched_failures_cost_one_simulation(self, family):
        reference = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=40, M=9, seed=12)
        run = run_sbc(_ToyGenerator(), family, _QS, S=40, M=9, seed=12)
        bad = [i for i, data in zip(reference.sim_index.tolist(), reference.data) if data > 1.5]
        assert 0 < len(bad) < 40
        assert [i for i, _ in run.failures] == bad
        expected_type = "KeyError" if isinstance(family, _PickyFamily) else "ValueError"
        assert all(message.startswith(expected_type + ": ") for _, message in run.failures)
        ranks = dict(zip(reference.sim_index.tolist(), reference.rank[:, 0].tolist()))
        assert run.rank[:, 0].tolist() == [ranks[i] for i in run.sim_index.tolist()]

    @pytest.mark.parametrize(
        "family, message",
        [
            (_FlakyFamily, "SamplerError: refused to fit"),
            (_EmptyFamily, "ValueError: not enough values to unpack (expected 1, got 0)"),
        ],
    )
    def test_a_group_of_one_simulation_is_sampled_once(self, monkeypatch, family, message):
        # a group of one whose call raises or miscounts is recorded from that
        # call, with the message the groups of one of a larger group record
        calls = []

        class Counting(family):
            def sample_batch(self, datas, M, streams, thin):
                calls.append(len(datas))
                return super().sample_batch(datas, M, streams, thin)

        grouped = run_sbc(_ToyGenerator(), Counting(), _QS, S=40, M=9, seed=3)
        assert calls == [40] + [1] * 40
        calls.clear()
        monkeypatch.setattr(core, "_LOCKSTEP_BYTES", 8 * 9)  # one simulation a group
        single = run_sbc(_ToyGenerator(), Counting(), _QS, S=40, M=9, seed=3)
        assert calls == [1] * 40
        assert single.n_failed == 11
        assert {m for _, m in single.failures} == {message}
        assert single.failures == grouped.failures
        assert single.rank.tolist() == grouped.rank.tolist()

    def test_a_miscounted_group_is_sampled_one_simulation_at_a_time(self):
        reference = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=40, M=9, seed=12)
        run = run_sbc(_ToyGenerator(), _ShortFamily(), _QS, S=40, M=9, seed=12)
        assert run.failures == []
        assert run.sim_index.tolist() == list(range(40))
        assert run.rank.tolist() == reference.rank.tolist()

    def test_non_numeric_draws_fail_with_the_conversion_message(self):
        reference = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=60, M=9, seed=12)
        run = run_sbc(_ToyGenerator(), _NonNumericFamily(), _QS, S=60, M=9, seed=12)

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

    def test_peak_memory_does_not_grow_with_failures(self):
        # a failure is kept as its message where it is caught, so its traceback
        # and the sampler's working array it holds are freed there
        M = 100

        def failures_and_peak(S):
            tracemalloc.start()
            try:
                run = run_sbc(_ToyGenerator(), _CostlyFailingFamily(), _QS, S=S, M=M, seed=2)
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
            Quantity("sign", lambda draws, datasets: np.sign(draws[..., 0])),
            *_QS,
            Quantity("floor", lambda draws, datasets: np.floor(2.0 * draws[..., 0])),
        ]
        run = run_sbc(_ToyGenerator(), _ToyFamily(), qs, S=50, M=9, seed=8)
        assert run.n_equals.any() and not run.n_equals.all()
        for row, i in enumerate(run.sim_index.tolist()):
            theta, data = _ToyGenerator().generate(generation_stream(8, i))
            [draws] = _ToyFamily().sample_batch([data], 9, [posterior_stream(8, i)], 1)
            tie_rng = tiebreak_stream(8, i)
            for j, q in enumerate(qs):
                values = q.kernel(np.vstack([theta, draws])[None], [data])[0]
                prior, post = values[0], values[1:]
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
        rounded = Quantity("rounded", lambda draws, datasets: np.round(draws[..., 0], 1))
        run = run_sbc(_ToyGenerator(), _ToyFamily(), [rounded, *_QS], S=30, M=9, seed=8)
        assert 0 < len(opened) < 30
        assert opened == run.sim_index[run.n_equals.any(axis=1)].tolist()

    def test_nan_quantity_is_a_quantity_error(self):
        # NaN is a per-(simulation, quantity) failure, like a wrong shape
        def flaky(draws, datasets):
            return np.where(np.greater_equal(datasets, 1.0)[:, None], np.nan, draws[..., 0])

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
            def sample_batch(self, datas, M, streams, thin):
                out = super().sample_batch(datas, M, streams, thin)
                for data, draws in zip(datas, out):
                    draws[0] = np.nan if data > 1.5 else draws[0]
                return out

        reference = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=60, M=9, seed=4)
        run = run_sbc(_ToyGenerator(), NanFamily(), _QS, S=60, M=9, seed=4)
        bad = [i for i, data in zip(reference.sim_index.tolist(), reference.data) if data > 1.5]
        assert 0 < len(bad) < 60 and run.quantity_errors == []
        assert run.failures == [(i, "SamplerError: family returned NaN in 1 of 9 draws") for i in bad]
        ranks = dict(zip(reference.sim_index.tolist(), reference.rank[:, 0].tolist()))
        assert run.rank[:, 0].tolist() == [ranks[i] for i in run.sim_index.tolist()]

    @pytest.mark.parametrize("flaw", ["none", "nan", "shape"])
    @pytest.mark.parametrize("groups_of", [7, 80])
    def test_one_array_and_a_list_of_draws_give_the_same_run(self, monkeypatch, flaw, groups_of):
        # a family may return its group's (M, 2) draws as one (g, M, 2) array
        # or as a list: the same draws give the same ranks, failures and
        # quantity errors either way
        class Generator:
            def generate(self, rng):
                theta, data = _ToyGenerator().generate(rng)
                return np.repeat(theta, 2), data

        class ListFamily(_ToyFamily):
            def sample_batch(self, datas, M, streams, thin):
                out = [np.repeat(draws, 2, axis=1) for draws in super().sample_batch(datas, M, streams, thin)]
                if flaw == "shape":
                    return [draws[:-1] for draws in out]
                for data, draws in zip(datas, out):
                    if flaw == "nan" and data > 1.0:
                        # the first k draws wholly NaN, and one component of the next
                        k = min(8, int(4 * (data - 1.0)))
                        draws[:k] = np.nan
                        draws[k, 1] = np.nan
                return out

        class ArrayFamily(ListFamily):
            def sample_batch(self, datas, M, streams, thin):
                return np.stack(super().sample_batch(datas, M, streams, thin))

        def low(draws, datasets):
            return np.round(draws[..., 0], 1) + np.where(np.less(datasets, -1.0), np.nan, 0.0)[:, None]

        monkeypatch.setattr(core, "_LOCKSTEP_BYTES", 8 * 9 * 2 * groups_of)
        quantities = [*_QS, Quantity("low", low)]
        listed, stacked = (
            run_sbc(Generator(), family, quantities, S=80, M=9, seed=8)
            for family in (ListFamily(), ArrayFamily())
        )
        for field in ("sim_index", "n_less", "n_equals", "rank", "evaluated"):
            assert getattr(stacked, field).tobytes() == getattr(listed, field).tobytes(), field
        assert (stacked.failures, stacked.quantity_errors) == (listed.failures, listed.quantity_errors)
        assert stacked.quantity_errors or flaw == "shape"
        if flaw == "none":
            assert stacked.failures == []
        elif flaw == "nan":
            messages = {message for _, message in stacked.failures}
            assert 0 < stacked.n_failed < 80 and len(messages) > 2
            assert all(re.fullmatch(r"SamplerError: family returned NaN in \d of 9 draws", m) for m in messages)
        else:
            assert stacked.failures == [
                (i, "ValueError: family returned draws of shape (8, 2), expected (9, 2)") for i in range(80)
            ]

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


def _rounded(draws, datasets):
    """Ties in some simulations; raises for a group holding a dataset above 1.5."""
    high = [data for data in datasets if data > 1.5]
    if high:
        raise ArithmeticError(f"no value at {high[0]:.3f}")
    return np.round(draws[..., 0], 1)


def _rounded_misshapen(draws, datasets):
    """Ties in some simulations; one column short for a group holding a dataset above 1.5."""
    values = np.round(draws[..., 0], 1)
    return values[:, :-1] if max(datasets) > 1.5 else values


def _rounded_nan(draws, datasets):
    """Ties in some simulations; NaN in those with a dataset above 1.5."""
    return np.round(draws[..., 0], 1) + np.where(np.greater(datasets, 1.5), np.nan, 0.0)[:, None]


class TestGroupedEvaluation:
    """A kernel that fails, misshapes or gives NaN in some simulations costs the same at any grouping."""

    @pytest.mark.parametrize(
        "kernel, error",
        [
            (_rounded, "ArithmeticError: no value at "),
            (_rounded_misshapen, "InvalidQuantityError: quantity 'rounded' returned shape (1, 9), expected (1, 10)"),
            (_rounded_nan, "InvalidQuantityError: NaN in rank inputs for quantity 'rounded'"),
        ],
    )
    def test_same_outcome_at_every_grouping(self, monkeypatch, kernel, error):
        def outcome(group_bytes):
            opened = []

            def tiebreak(seed, i):
                opened.append(i)
                return tiebreak_stream(seed, i)

            monkeypatch.setattr(core, "tiebreak_stream", tiebreak)
            monkeypatch.setattr(core, "_GROUP_BYTES", group_bytes)
            quantities = [*_QS, Quantity("rounded", kernel)]
            run = run_sbc(_ToyGenerator(), _ToyFamily(), quantities, S=80, M=9, seed=21)
            return run, opened

        # groups of 1, 7 and all 80
        (single, single_opened), *grouped = map(outcome, (1, 8 * 10 * 3 * 7, core._GROUP_BYTES))
        assert 0 < len(single.quantity_errors) < 80 and 0 < len(single_opened) < 80
        bad = [i for i, data in zip(single.sim_index.tolist(), single.data) if data > 1.5]
        assert [i for i, _, _ in single.quantity_errors] == bad
        assert all(m.startswith(error) for _, _, m in single.quantity_errors)
        for run, opened in grouped:
            assert run.quantity_errors == single.quantity_errors
            assert opened == single_opened
            for table in ("rank", "n_less", "n_equals", "evaluated"):
                assert getattr(run, table).tolist() == getattr(single, table).tolist(), table

    def test_evaluate_quantities_is_a_group_of_one(self):
        quantities = [
            Quantity("rounded", _rounded_nan),
            Quantity("shaped", lambda draws, datasets: draws[:, :-1, 0]),
            Quantity("first", lambda draws, datasets: draws[..., 0]),
        ]
        draws = np.array([[[0.3], [1.04], [2.0], [0.26]]])
        values, errors = evaluate_quantities(draws, [2.0], quantities)
        assert values[0, 2].tolist() == [0.3, 1.04, 2.0, 0.26]
        assert np.isnan(values[0, :2]).all()
        assert errors == {
            (0, 0): "InvalidQuantityError: NaN in rank inputs for quantity 'rounded'",
            (0, 1): "InvalidQuantityError: quantity 'shaped' returned shape (1, 3), expected (1, 4)",
        }
        values, errors = evaluate_quantities(draws, [1.0], quantities[:1])
        assert errors == {} and values[0, 0].tolist() == [0.3, 1.0, 2.0, 0.3]


# every posterior family the package ships, as (generator, family, M, thin); the
# RWM chains are short enough that some of the six fail their ESS target
_SHIPPED_FAMILIES = [
    *(
        pytest.param(gaussian.GaussianGenerator(3), gaussian.make_variant(v, 3), 20, 1, id=f"gaussian-{v}")
        for v in gaussian.VARIANT_NAMES
    ),
    *(
        pytest.param(bernoulli.BernoulliGenerator(), bernoulli.FamilySampler(bernoulli.get_family(f)), 20, 1,
                     id=f"bernoulli-{f}")
        for f in bernoulli.FAMILY_NAMES
    ),
    pytest.param(simplex.SimplexGenerator(), simplex.RwmSimplexFamily("min"), 20, 5, id="simplex-min"),
    pytest.param(simplex.SimplexGenerator(), simplex.ExactOrderedDirichletFamily(), 20, 1, id="simplex-exact"),
]


@pytest.mark.parametrize("generator, family, M, thin", _SHIPPED_FAMILIES)
def test_a_shipped_family_samples_a_group_as_its_groups_of_one(generator, family, M, thin):
    # sample_batch is the one family method; only GaussianPosterior keeps a
    # `sample`, its group of one
    assert isinstance(family, gaussian.GaussianPosterior) or not hasattr(family, "sample")
    sims = [generator.generate(generation_stream(4, i)) for i in range(6)]
    datasets = [data for _, data in sims]
    grouped = family.sample_batch(datasets, M, [posterior_stream(4, i) for i in range(6)], thin)
    assert len(grouped) == 6
    assert any(isinstance(got, np.ndarray) for got in grouped)
    for i, got in enumerate(grouped):
        [alone] = family.sample_batch([datasets[i]], M, [posterior_stream(4, i)], thin)
        if isinstance(got, Exception):
            assert (type(alone), str(alone)) == (type(got), str(got))
        else:
            assert got.shape == (M, np.size(sims[i][0])) and got.dtype == alone.dtype == float
            assert got.tobytes() == alone.tobytes()


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
