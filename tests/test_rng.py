"""The random streams the artifacts rest on.

NEP 19 fixes PCG64's raw stream, but not how ``Generator`` methods turn it
into draws. The oracles pin the three methods a pipeline run draws with
(splits, folds, bootstraps, candidate features and svm shuffles), so a numpy
that changes one fails here by name, not only by a golden digest. The
forest draws its candidate features in bulk from the raw stream
(``forest._choices``); that must give the set of each ``Generator.choice``
call's picks, call for call, and leave each generator where ``choice``
leaves it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimiclearn.classifiers import forest
from mimiclearn.rng import generator

from oracles import choice_from, integers_from, pcg64_halves, permutation_from


def _used(seed, prior):
    """A generator that has drawn ``prior`` bounded halves: an odd count
    leaves the high half of its last raw output buffered."""
    rng = generator(seed)
    rng.integers(0, 7, size=prior)
    return rng


def _next_outputs(rng):
    # halves first, which read a buffered half, then whole raw outputs
    return rng.integers(0, 7, size=3).tolist(), rng.integers(0, 2**40, size=2).tolist()


class TestGeneratorStreams:
    @pytest.mark.parametrize("n", [1, 2, 7, 630, 1400, 2**31 + 3, 2**32])
    @pytest.mark.parametrize("prior", [0, 1])
    def test_integers_is_one_lemire_draw_each(self, n, prior):
        for seed in range(20):
            rng = _used(seed, prior)
            halves = pcg64_halves(rng)
            assert rng.integers(0, n, size=11).tolist() == integers_from(halves, n, 11)
            assert rng.integers(0, 2**32, dtype=np.uint64) == next(halves)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 100, 1000])
    @pytest.mark.parametrize("prior", [0, 1])
    def test_permutation_is_a_masked_fisher_yates(self, n, prior):
        for seed in range(20):
            rng = _used(seed, prior)
            halves = pcg64_halves(rng)
            assert rng.permutation(n).tolist() == permutation_from(halves, n)
            assert rng.integers(0, 2**32, dtype=np.uint64) == next(halves)

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (3, 2), (11, 4), (40, 7),
                                      (10_000, 100), (2**31 + 2, 2)])
    @pytest.mark.parametrize("prior", [0, 1])
    def test_choice_is_floyd_then_a_shuffle(self, n, k, prior):
        for seed in range(20):
            rng = _used(seed, prior)
            halves = pcg64_halves(rng)
            assert rng.choice(n, k, replace=False).tolist() == choice_from(halves, n, k)
            assert rng.integers(0, 2**32, dtype=np.uint64) == next(halves)


class TestBulkChoices:
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 40),
           prior=st.integers(0, 5), size=st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_equal_choice_call_for_call(self, seed, n, prior, size):
        # generators with and without a buffered half, two blocks in a row
        k = min(n, math.ceil(math.sqrt(n)))
        gens = [_used(seed ^ i, prior + i) for i in range(3)]
        refs = [_used(seed ^ i, prior + i) for i in range(3)]
        for _ in range(2):
            picks = forest._choices([g.bit_generator for g in gens], size, n, k)
            want = [np.sort(ref.choice(n, k, replace=False)) for ref in refs for _ in range(size)]
            np.testing.assert_array_equal(picks, np.reshape(want, (-1, k)))
        for rng, ref in zip(gens, refs):
            assert _next_outputs(rng) == _next_outputs(ref)

    @pytest.mark.parametrize("prior", [0, 1])
    def test_redraws_on_a_real_stream(self, prior):
        # ranges just over 2**31 redraw about half of all halves
        n = 2**31 + 2
        for seed in range(10):
            rng, ref = _used(seed, prior), _used(seed, prior)
            picks = forest._choices([rng.bit_generator], 6, n, 2)
            assert picks.tolist() == [sorted(ref.choice(n, 2, replace=False).tolist())
                                      for _ in range(6)]
            assert _next_outputs(rng) == _next_outputs(ref)

    @pytest.mark.parametrize("has", [0, 1])
    def test_crafted_stream_takes_the_exact_path(self, has):
        # PCG64(5) this far on draws in [0, 11) from a half that is redrawn: in
        # the first call without a buffered half, in the second with one
        def pinned():
            bits = np.random.PCG64(5)
            bits.advance(67_250_520 if has else 67_250_524)
            rng = np.random.Generator(bits)
            rng.integers(0, 7, size=has)
            return rng

        rng, ref = pinned(), pinned()
        assert rng.bit_generator.state["has_uint32"] == has
        read = []
        halves = (read.append(half) or half for half in pcg64_halves(rng))
        want = [sorted(choice_from(halves, 11, 4)) for _ in range(8)]
        h = read[10 if has else 3]  # the bound-11 draw of call 2 or call 1
        assert h == 3_123_612_579 and (h * 11) % 2**32 < (2**32 - 11) % 11
        assert len(read) > 8 * 7  # the block reads a redrawn half
        picks = forest._choices([rng.bit_generator], 8, 11, 4)
        assert picks.tolist() == want == [sorted(ref.choice(11, 4, replace=False).tolist())
                                          for _ in range(8)]
        assert _next_outputs(rng) == _next_outputs(ref)
        # the next block continues from where choice left the generator
        picks = forest._choices([rng.bit_generator], 8, 11, 4)
        assert picks.tolist() == [sorted(ref.choice(11, 4, replace=False).tolist())
                                  for _ in range(8)]
