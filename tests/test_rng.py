import math

import numpy as np
import pytest
from scipy import stats

from infodyn import dynamics as dyn
from infodyn import rng


class TestStreams:
    def test_same_key_same_sequence(self):
        a = rng.stream(rng.derive_key(42, 3)).integers(0, 2**63, size=16)
        b = rng.stream(rng.derive_key(42, 3)).integers(0, 2**63, size=16)
        assert np.array_equal(a, b)

    def test_distinct_indices_decorrelated(self):
        a = rng.stream(rng.derive_key(42, 0)).integers(0, 2**63, size=64)
        b = rng.stream(rng.derive_key(42, 1)).integers(0, 2**63, size=64)
        assert not np.array_equal(a, b)

    def test_multi_index_paths_distinct(self):
        assert rng.derive_key(rng.derive_key(7, 1), 2) != rng.derive_key(rng.derive_key(7, 2), 1)
        assert rng.derive_key(7, 1) != rng.derive_key(rng.derive_key(7, 1), 0)

    def test_key_is_64_bit(self):
        for seed in (0, 1, 2**64 - 1):
            assert 0 <= rng.derive_key(seed, 123456789) < 2**64

    @pytest.mark.parametrize("seed", [0, 1, 91, 2**63 + 5, 2**64 - 1, -3])
    def test_array_indices_match_scalar_keys(self, seed):
        indices = np.array([0, 1, 2, 40, 2**32, 2**63, 2**64 - 2], dtype=np.uint64)
        keys = rng.derive_key(seed, indices)
        assert keys.dtype == np.uint64
        assert [int(k) for k in keys] == [rng.derive_key(seed, int(i)) for i in indices]
        # scalars of any integer kind, masked to their low 64 bits, key as the
        # array element of the same word does, and give a Python int
        scalars = [-1, -3, 2**63, 2**64 - 1, 2**64 + 5, np.int64(-3), np.int8(-1),
                   np.uint64(2**64 - 1), np.int32(40)]
        words = np.array([int(i) & (2**64 - 1) for i in scalars], dtype=np.uint64)
        scalar_keys = [rng.derive_key(seed, i) for i in scalars]
        assert all(type(k) is int for k in scalar_keys)
        assert scalar_keys == [int(k) for k in rng.derive_key(seed, words)]


def fresh_stream(key):
    """A Generator on a newly built Philox with this key, at counter 0."""
    return np.random.Generator(np.random.Philox(key=int(key)))


def reference_sample_counts(p, n, gen):
    """The sequential conditional-binomial loop numpy's multinomial follows.

    Category mu gets a binomial draw with the remaining trials and the
    renormalized probability p[mu] / mass of the categories not yet drawn.
    """
    p = np.asarray(p, dtype=float)
    counts = np.zeros(p.size, dtype=np.int64)
    remaining = int(n)
    mass = 1.0
    for mu in range(p.size - 1):
        if remaining == 0:
            break
        ratio = min(max(p[mu] / mass, 0.0), 1.0) if mass > 0 else 1.0
        counts[mu] = gen.binomial(remaining, ratio)
        remaining -= counts[mu]
        mass -= p[mu]
    counts[-1] += remaining
    return counts


def reference_cases():
    """Probability vectors at M = 2..1000 with zero and 1e-12 entries."""
    gen = np.random.default_rng(20260)
    for m in (2, 10, 100, 1000):
        w = gen.random(m) + 0.01
        yield m, "dense", w / w.sum()
        w = w.copy()
        w[gen.choice(m, size=max(1, m // 5), replace=False)] = 0.0
        yield m, "zeros", w / w.sum()
        w = gen.random(m) + 0.01
        w[gen.choice(m, size=max(1, m // 5), replace=False)] = 1e-12
        yield m, "tiny", w / w.sum()
    yield 3, "zero-first", np.array([0.0, 0.4, 0.6])
    yield 3, "zero-last", np.array([0.5, 0.5, 0.0])


class TestSampleCounts:
    @pytest.mark.parametrize("n", [1, 7, 1000, 100000])
    def test_bit_identical_to_reference_loop(self, n):
        # numpy's multinomial: same counts and the same stream state after
        # every draw; a row of sample_block is the first draw of its stream
        for r, (m, kind, p) in enumerate(reference_cases()):
            key = rng.derive_key(rng.derive_key(31, n), r)
            ours, ref = rng.stream(key), rng.stream(key)
            for draw in range(3):
                got = ours.multinomial(n, p)
                want = reference_sample_counts(p, n, ref)
                assert np.array_equal(got, want), (m, kind, n, draw)
                assert ours.integers(0, 2**63) == ref.integers(0, 2**63), (m, kind, n, draw)
            row = rng.sample_block(p, n, np.array([key], dtype=np.uint64))
            assert row.dtype == np.int64
            assert np.array_equal(row[0], reference_sample_counts(p, n, rng.stream(key)))

    def test_bit_identical_on_trajectory_rows(self):
        traj = dyn.solve_sir(dyn.default_sir_params(10), np.arange(1001) * 0.01)
        rows = np.arange(0, traj.times.size, 50)
        block = rng.sample_block(traj.p(rows), 100000, rng.derive_key(5, rows.astype(np.uint64)))
        for k, row in zip(rows.tolist(), block):
            ours, ref = rng.stream(rng.derive_key(5, k)), rng.stream(rng.derive_key(5, k))
            want = reference_sample_counts(traj.p(k), 100000, ref)
            assert np.array_equal(ours.multinomial(100000, traj.p(k)), want)
            assert ours.integers(0, 2**63) == ref.integers(0, 2**63)
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("count", [2, 41])
    @pytest.mark.parametrize("n", [1, 100000])
    def test_rows_match_one_stream_per_row(self, count, n):
        # sample_block re-keys one Philox; each row must equal a fresh stream's
        # draw, also at the ends 0 and 2**64 - 1 of the key range
        cases = [(m, kind, p) for m, kind, p in reference_cases() if m in (2, 10, 100, 1000)]
        seed = 2**63 + count
        reps = np.arange(3, dtype=np.uint64)
        keys = rng.derive_key(rng.derive_key(seed, reps[:, None]),
                              np.arange(count, dtype=np.uint64))
        keys[0, 0], keys[2, 1] = 0, 2**64 - 1
        for m, kind, p in cases:
            rows = np.stack([np.roll(p, k) for k in range(count)])
            counts = rng.sample_block(rows, n, keys)
            assert counts.shape == (3, count, m)
            for r in range(3):
                for k in range(count):
                    want = fresh_stream(keys[r, k]).multinomial(n, rows[k])
                    assert np.array_equal(counts[r, k], want), (m, kind, n, r, k)
            flat = rng.sample_block(p, n, keys)  # a 1-D p is drawn under every key
            assert flat.shape == (3, count, m)
            for r, k in ((0, 0), (2, 1), (1, count - 1)):
                want = fresh_stream(keys[r, k]).multinomial(n, p)
                assert np.array_equal(flat[r, k], want), (m, kind, n, r, k)

    @pytest.mark.parametrize("shape", [(2, 10), (41, 10), (2, 1000)])
    def test_block_slices_are_rows_of_the_whole_block(self, shape):
        # the determinism contract: drawing keys[a:b] alone gives rows a..b
        gen = np.random.default_rng(shape[0] * shape[1])
        p = gen.dirichlet(np.ones(shape[1]), size=shape[0])
        keys = rng.derive_key(rng.derive_key(5, np.arange(9, dtype=np.uint64)[:, None]),
                              np.arange(shape[0], dtype=np.uint64))
        whole = rng.sample_block(p, 1000, keys)
        for a, b in ((0, 1), (0, 9), (3, 7), (8, 9)):
            assert np.array_equal(rng.sample_block(p, 1000, keys[a:b]), whole[a:b]), (a, b)

    def test_rows_reject_zero_draws(self):
        with pytest.raises(ValueError):
            rng.sample_block(np.array([[0.5, 0.5]]), 0, np.array([1], dtype=np.uint64))

    @pytest.mark.parametrize("n", [0, -3])
    def test_block_checks_sample_size_before_drawing(self, n):
        # no keys means no draw, but the sample size is still rejected
        with pytest.raises(ValueError, match=f"sample size must be >= 1, got {n}"):
            rng.sample_block(np.array([[0.5, 0.5]]), n, np.zeros((0, 1), dtype=np.uint64))

    def test_block_rejects_a_sample_size_numpy_cannot_draw(self):
        # numpy draws a size that fits an int64 and overflows above it
        p, keys = np.array([0.5, 0.5]), np.zeros(1, dtype=np.uint64)
        assert rng.sample_block(p, (1 << 63) - 1, keys).sum() == (1 << 63) - 1
        with pytest.raises(ValueError, match=rf"sample size must be < 2\*\*63, got {1 << 63}"):
            rng.sample_block(p, 1 << 63, keys)

    def test_block_keys_must_match_rows(self):
        with pytest.raises(ValueError, match="do not match"):
            rng.sample_block(np.full((3, 2), 0.5), 10, np.zeros((4, 2), dtype=np.uint64))

    @pytest.mark.parametrize("bad", [-0.1, float("nan")])
    def test_rejects_negative_or_nan_probability(self, bad):
        with pytest.raises(ValueError):
            rng.sample_block(np.array([0.6, bad, 0.5]), 10, np.zeros(1, dtype=np.uint64))

    def test_counts_sum_to_n(self):
        p = np.array([0.2, 0.3, 0.5])
        keys = rng.derive_key(0, np.arange(20, dtype=np.uint64))
        for n in (1, 7, 1000):
            counts = rng.sample_block(p, n, keys)
            assert np.all(counts.sum(axis=1) == n)
            assert np.all(counts >= 0)

    def test_degenerate_distribution(self):
        p = np.array([1.0, 0.0, 0.0])
        counts = rng.sample_block(p, 50, rng.derive_key(1, np.arange(20, dtype=np.uint64)))
        assert counts.tolist() == [[50, 0, 0]] * 20

    def test_empirical_mean_unbiased(self):
        p = np.array([0.3, 0.7])
        n, reps = 100, 10000
        freqs = rng.sample_block(p, n, rng.derive_key(9, np.arange(reps, dtype=np.uint64))) / n
        se = freqs.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(freqs.mean(axis=0) - p) <= 3 * se)

    def test_chi_square_against_exact_binomial(self):
        # all 6 outcomes of n=5 draws from (0.4, 0.6), exact reference pmf
        n, reps = 5, 100000
        p = np.array([0.4, 0.6])
        expected = np.array(
            [math.comb(n, k) * 0.4**k * 0.6 ** (n - k) for k in range(n + 1)]
        )
        counts = rng.sample_block(p, n, rng.derive_key(1234, np.arange(reps, dtype=np.uint64)))
        observed = np.bincount(counts[:, 0], minlength=n + 1)
        chi2 = float(np.sum((observed - reps * expected) ** 2 / (reps * expected)))
        critical = stats.chi2.isf(1e-3, df=n)
        assert chi2 < critical
