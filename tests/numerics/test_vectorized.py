"""Differential suite: batched kernels vs the scalar bfloat16 reference.

The vectorized datapath (:mod:`repro.numerics.vectorized`) claims
*bit identity* with the scalar reference path — not closeness.  Every
test here therefore compares bit patterns (via ``float_to_bf16_bits``
or raw float32 views), never tolerances, across operand populations
chosen to stress each claim in the module docstring:

* arbitrary float32 bit patterns (NaN payloads, ±inf, subnormals) for
  the rounding kernel itself;
* on-grid operands — including on-grid NaN/inf/subnormal patterns —
  for ``grid_add``'s single-rounding shortcut;
* mixed-exponent blocks (huge next to tiny) for the tree reduction,
  where rounding order is most visible.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.numerics.adder_tree import adder_tree_reduce
from repro.numerics.bfloat16 import (
    bf16_add,
    bf16_bits_to_float,
    bf16_mul,
    float_to_bf16_bits,
    quantize_bf16,
)
from repro.numerics.vectorized import (
    CANONICAL_NAN_F32,
    LaneScratch,
    batched_tile_compute,
    batched_tree_sums,
    grid_add,
    latch_accumulate_block,
    quantize_bf16_into,
    tree_reduce_block,
)

# Arbitrary float32 *bit patterns*: covers every NaN payload, both
# infinities, subnormals, and negative zero — the cases a value-based
# strategy under-samples.
f32_bits = st.integers(min_value=0, max_value=0xFFFFFFFF)

# Arbitrary bf16 bit patterns, expanded to float32: the on-grid
# population (plus non-canonical NaNs, which the expand canonicalizes).
bf16_patterns = st.integers(min_value=0, max_value=0xFFFF)

# Exponent-diverse finite floats: adjacent huge/tiny operands make the
# per-stage rounding order observable.
mixed_exponent = st.floats(
    allow_nan=False,
    allow_infinity=False,
    width=32,
    min_value=-(2.0**120),
    max_value=2.0**120,
)


def _from_bits(bit_list):
    return np.array(bit_list, dtype=np.uint32).view(np.float32)


def _on_grid(pattern_list):
    return bf16_bits_to_float(np.array(pattern_list, dtype=np.uint16))


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(
        np.array_equal(
            np.asarray(a, dtype=np.float32).view(np.uint32),
            np.asarray(b, dtype=np.float32).view(np.uint32),
        )
    )


class TestQuantizeInto:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(f32_bits, min_size=1, max_size=48))
    def test_matches_reference_on_arbitrary_bits(self, bit_list):
        values = _from_bits(bit_list)
        reference = quantize_bf16(values)
        out = np.empty_like(values)
        quantize_bf16_into(values.copy(), out)
        assert _bits_equal(out, reference)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(f32_bits, min_size=1, max_size=32))
    def test_in_place_with_scratch(self, bit_list):
        values = _from_bits(bit_list)
        reference = quantize_bf16(values)
        buf = values.copy()
        quantize_bf16_into(
            buf,
            buf,
            bias_scratch=np.empty(buf.shape, dtype=np.uint32),
            nan_scratch=np.empty(buf.shape, dtype=np.bool_),
        )
        assert _bits_equal(buf, reference)

    def test_nan_payloads_canonicalized(self):
        payloads = _from_bits(
            [0x7F800001, 0xFF800001, 0x7FC00000, 0x7FFFFFFF, 0xFFC12345]
        )
        out = np.empty_like(payloads)
        quantize_bf16_into(payloads.copy(), out)
        assert _bits_equal(out, np.full(5, CANONICAL_NAN_F32))

    def test_multidimensional(self):
        rng = np.random.default_rng(3)
        block = rng.standard_normal((4, 3, 16)).astype(np.float32)
        out = np.empty_like(block)
        quantize_bf16_into(block.copy(), out)
        assert _bits_equal(out, quantize_bf16(block))


class TestGridAdd:
    @settings(max_examples=300, deadline=None)
    @given(bf16_patterns, bf16_patterns)
    def test_bit_equals_bf16_add_on_grid(self, pa, pb):
        """Single-rounding grid_add == operand-rounding bf16_add for
        every pair of on-grid operands — NaN, inf, subnormal included."""
        a, b = _on_grid([pa]), _on_grid([pb])
        ours = grid_add(a, b)
        reference = bf16_add(a, b)
        assert _bits_equal(
            float_to_bf16_bits(ours), float_to_bf16_bits(reference)
        )

    def test_inf_minus_inf_is_canonical_nan(self):
        a = _on_grid([0x7F80])  # +inf
        b = _on_grid([0xFF80])  # -inf
        assert _bits_equal(grid_add(a, b), np.array([CANONICAL_NAN_F32]))

    def test_overflow_saturates_to_infinity_silently(self):
        big = _on_grid([0x7F7F])  # bf16 max finite
        with np.errstate(over="raise"):
            result = grid_add(big, big)
        assert np.isinf(result[0])


class TestTreeReduceBlock:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(bf16_patterns, min_size=16, max_size=16))
    def test_single_slice_matches_adder_tree(self, patterns):
        """Also through :func:`batched_tree_sums`: against a unit input
        every product is its matrix operand, so it reduces the same
        lanes (from their bits)."""
        products = _on_grid(patterns)
        reference = np.array([adder_tree_reduce(products)], dtype=np.float32)
        block = tree_reduce_block(products[None, :])
        assert _bits_equal(np.array([block[0]], dtype=np.float32), reference)
        bits = np.array(patterns, dtype=np.uint16)[None, :]
        sums = batched_tree_sums(bits, np.ones(16, dtype=np.float32), 16)
        assert _bits_equal(sums[0], reference)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(mixed_exponent, min_size=16, max_size=16),
            min_size=1,
            max_size=6,
        )
    )
    def test_block_is_sliceswise_identical(self, rows):
        """Reducing N slices at once == reducing each alone."""
        block = quantize_bf16(np.array(rows, dtype=np.float32))
        batched = tree_reduce_block(block)
        for i in range(block.shape[0]):
            single = adder_tree_reduce(block[i])
            assert _bits_equal(
                np.array([batched[i]], dtype=np.float32),
                np.array([single], dtype=np.float32),
            )

    def test_nan_from_opposite_infinities_is_canonical(self):
        """+inf and -inf meet in the first stage: float32 makes a NaN
        whose sign the hardware picks, and the tree must return the
        reference's canonical pattern."""
        products = _on_grid([0x7F80, 0xFF80] + [0x3F80] * 14)
        block = tree_reduce_block(products[None, :])
        assert _bits_equal(block, np.array([CANONICAL_NAN_F32]))
        assert _bits_equal(
            block, np.array([adder_tree_reduce(products)], dtype=np.float32)
        )

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ProtocolError):
            tree_reduce_block(np.zeros((2, 12), dtype=np.float32))
        with pytest.raises(ProtocolError):
            tree_reduce_block(np.zeros((2, 0), dtype=np.float32))


class TestLatchAccumulateBlock:
    @settings(max_examples=200, deadline=None)
    @given(
        bf16_patterns,
        st.lists(bf16_patterns, min_size=1, max_size=8),
    )
    def test_matches_sequential_bf16_add(self, carry_pattern, sum_patterns):
        """Also with the sums stored sub-chunk-major, as the datapath
        keeps them, and walked through a transposed view."""
        carry = _on_grid([carry_pattern])
        sums = _on_grid(sum_patterns)
        batched = latch_accumulate_block(carry, sums[None, :])
        stored = np.ascontiguousarray(sums[:, None])
        viewed = latch_accumulate_block(carry, stored.T)
        acc = carry.copy()
        for s in range(sums.shape[0]):
            acc = bf16_add(acc, sums[s : s + 1])
        # Raw float32 patterns: every NaN must be the canonical one.
        assert _bits_equal(np.array([batched[0]], dtype=np.float32), acc)
        assert _bits_equal(viewed, acc)

    def test_nan_from_opposite_infinities_is_canonical(self):
        """A +inf latch meeting a -inf tree sum makes a float32 NaN of
        either sign; the latch must hold the canonical pattern."""
        carry = _on_grid([0x7F80, 0x3F80])
        sums = _on_grid([0xFF80, 0x3F80, 0x7F80, 0xFF80]).reshape(2, 2)
        batched = latch_accumulate_block(carry, sums)
        assert _bits_equal(batched, np.full(2, CANONICAL_NAN_F32))

    def test_off_grid_carry_entry_rounded_like_reference(self):
        """A carry not on the grid gets one entry rounding — exactly the
        operand rounding the reference's first bf16_add would apply."""
        carry = np.array([1.0009765625], dtype=np.float32)  # off-grid
        sums = _on_grid([0x3F80])  # 1.0
        batched = latch_accumulate_block(carry, sums[None, :])
        reference = bf16_add(carry, sums)
        assert _bits_equal(
            np.array([batched[0]], dtype=np.float32), reference
        )


class TestBatchedTileCompute:
    def _scalar_tile(self, matrix, chunk, carry, lanes):
        """The fully scalar reference: bf16_mul per lane, tree per
        sub-chunk, bf16_add into the latch, ascending order."""
        banks, chunk_elems = matrix.shape
        latches = carry.copy()
        for bank in range(banks):
            for s in range(chunk_elems // lanes):
                lo = s * lanes
                prods = bf16_mul(
                    matrix[bank, lo : lo + lanes], chunk[lo : lo + lanes]
                )
                tree = adder_tree_reduce(prods)
                latches[bank : bank + 1] = bf16_add(
                    latches[bank : bank + 1],
                    np.array([tree], dtype=np.float32),
                )
        return latches

    def _scalar_sums(self, matrix, chunk, lanes):
        """Each bank's sub-chunk tree sums: bf16_mul per lane, the tree
        per sub-chunk, no latch."""
        banks, chunk_elems = matrix.shape
        sums = np.empty((banks, chunk_elems // lanes), dtype=np.float32)
        for bank in range(banks):
            for s in range(chunk_elems // lanes):
                lo = s * lanes
                prods = bf16_mul(
                    matrix[bank, lo : lo + lanes], chunk[lo : lo + lanes]
                )
                sums[bank, s] = adder_tree_reduce(prods)
        return sums

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bit_identical_to_scalar_reference(self, data):
        """The kernel, its tree-sum half from the storage bits, and the
        two halves chained, on trees of every width the presets use
        (16 lanes for HBM2E, 8 for LPDDR4, 4 for DDR4) and of 2 and 1:
        about 60 examples each."""
        tiles = data.draw(st.integers(min_value=1, max_value=4))
        banks = data.draw(st.integers(min_value=1, max_value=4))
        subchunks = data.draw(st.integers(min_value=1, max_value=3))
        lanes = data.draw(st.sampled_from([16, 8, 4, 2, 1]))
        chunk_elems = subchunks * lanes
        patterns = data.draw(
            st.lists(
                bf16_patterns,
                min_size=tiles * banks * chunk_elems,
                max_size=tiles * banks * chunk_elems,
            )
        )
        chunk_pat = data.draw(
            st.lists(bf16_patterns, min_size=chunk_elems, max_size=chunk_elems)
        )
        carry_pat = data.draw(
            st.lists(bf16_patterns, min_size=tiles * banks, max_size=tiles * banks)
        )
        matrix = _on_grid(patterns).reshape(tiles, banks, chunk_elems)
        chunk = _on_grid(chunk_pat)
        carry = _on_grid(carry_pat).reshape(tiles, banks)

        batched = batched_tile_compute(matrix, chunk, carry.copy(), lanes)
        bits = np.array(patterns, dtype=np.uint16).reshape(matrix.shape)
        sums = batched_tree_sums(bits, chunk, lanes)
        walked = latch_accumulate_block(carry, sums)
        for t in range(tiles):
            reference = self._scalar_tile(
                matrix[t], chunk, carry[t].copy(), lanes
            )
            # Raw float32 patterns: every NaN must be the canonical one.
            assert _bits_equal(batched[t], reference)
            assert _bits_equal(walked[t], reference)
            assert _bits_equal(sums[t], self._scalar_sums(matrix[t], chunk, lanes))

    def test_special_values_flow_through(self):
        """NaN/inf in the matrix propagate identically batched vs scalar.

        +inf and -inf share the first sub-chunk, so the tree's first
        stage makes a NaN from float32 arithmetic (not from an operand):
        the kernel must still return the canonical ``0x7FC00000``."""
        lanes = 16
        matrix = _on_grid(
            [0x7F80, 0xFF80, 0x7FC0, 0x0001, 0x8001] + [0x3F80] * 11
        ).reshape(1, 1, lanes)
        chunk = _on_grid([0x3F80] * lanes)
        carry = np.zeros((1, 1), dtype=np.float32)
        batched = batched_tile_compute(matrix, chunk, carry, lanes)
        reference = self._scalar_tile(
            matrix[0], chunk, carry[0].copy(), lanes
        )
        assert _bits_equal(batched[0], reference)
        assert _bits_equal(batched[0], np.array([CANONICAL_NAN_F32]))

    def test_nan_made_in_the_latch_is_canonical(self):
        """+inf and -inf in two sub-chunks: the latch's accumulation,
        not the tree, makes the NaN, and the kernel must still return
        the canonical ``0x7FC00000``."""
        lanes = 16
        matrix = _on_grid(
            [0x7F80] + [0x3F80] * 15 + [0xFF80] + [0x3F80] * 15
        ).reshape(1, 1, 2 * lanes)
        chunk = _on_grid([0x3F80] * 2 * lanes)
        carry = np.zeros((1, 1), dtype=np.float32)
        batched = batched_tile_compute(matrix, chunk, carry, lanes)
        reference = self._scalar_tile(
            matrix[0], chunk, carry[0].copy(), lanes
        )
        assert _bits_equal(batched[0], reference)
        assert _bits_equal(batched[0], np.array([CANONICAL_NAN_F32]))

    def test_shape_validation(self):
        lanes = 16
        good = np.zeros((2, 2, lanes), dtype=np.float32)
        chunk = np.zeros(lanes, dtype=np.float32)
        carry = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ProtocolError):
            batched_tile_compute(good[0], chunk, carry, lanes)
        with pytest.raises(ProtocolError):
            batched_tile_compute(good, chunk[:8], carry, lanes)
        with pytest.raises(ProtocolError):
            batched_tile_compute(good, chunk, carry[:1], lanes)
        with pytest.raises(ProtocolError):
            batched_tile_compute(good, chunk, carry, 5)
        # The tree-sum half checks its shapes the same way.
        bits = np.zeros((2, 2 * lanes), dtype=np.uint16)
        vector = np.zeros(2 * lanes, dtype=np.float32)
        with pytest.raises(ProtocolError):
            batched_tree_sums(bits, vector[:lanes], lanes)
        with pytest.raises(ProtocolError):
            batched_tree_sums(bits, vector, 5)
        with pytest.raises(ProtocolError):
            batched_tree_sums(bits, vector, 3 * lanes)


class TestLaneScratch:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(f32_bits, min_size=16, max_size=16),
        st.lists(f32_bits, min_size=16, max_size=16),
    )
    def test_mul_matches_bf16_mul(self, bits_a, bits_b):
        a, b = _from_bits(bits_a), _from_bits(bits_b)
        scratch = LaneScratch(16)
        ours = scratch.mul(a, b).copy()
        assert _bits_equal(ours, bf16_mul(a, b))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(bf16_patterns, min_size=16, max_size=16))
    def test_tree_reduce_matches_adder_tree(self, patterns):
        products = _on_grid(patterns)
        scratch = LaneScratch(16)
        np.copyto(scratch.a, products)
        ours = scratch.tree_reduce(scratch.a)
        reference = adder_tree_reduce(products)
        assert _bits_equal(
            np.array([ours], dtype=np.float32),
            np.array([reference], dtype=np.float32),
        )

    @settings(max_examples=200, deadline=None)
    @given(bf16_patterns, bf16_patterns)
    def test_accumulate_matches_bf16_add(self, pa, pb):
        latch, tree = _on_grid([pa]), _on_grid([pb])
        scratch = LaneScratch(16)
        ours = scratch.accumulate(float(latch[0]), float(tree[0]))
        reference = bf16_add(latch, tree)
        assert _bits_equal(
            np.array([ours], dtype=np.float32), reference
        )

    def test_reusable_across_calls(self):
        """Scratch state never leaks between calls."""
        rng = np.random.default_rng(9)
        scratch = LaneScratch(16)
        for _ in range(5):
            a = rng.standard_normal(16).astype(np.float32)
            b = rng.standard_normal(16).astype(np.float32)
            assert _bits_equal(scratch.mul(a, b), bf16_mul(a, b))
