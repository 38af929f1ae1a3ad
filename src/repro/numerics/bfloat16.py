"""Software bfloat16 arithmetic on NumPy arrays.

bfloat16 is float32 truncated to 16 bits: 1 sign, 8 exponent, 7 mantissa
bits. Newton's in-DRAM datapath computes in bfloat16, so the functional
simulator must round *at every operation* (multiply, each adder-tree
stage, and the result-latch accumulation) to be bit-faithful.

The implementation rounds float32 to bfloat16 with round-to-nearest-even
on the trailing 16 bits, which matches hardware bfloat16 units (and
TensorFlow's reference conversion).
"""

from __future__ import annotations

import numpy as np

BF16_EPS: float = 2.0**-7
"""Machine epsilon of bfloat16 (7 explicit mantissa bits)."""


def float_to_bf16_bits(values: np.ndarray) -> np.ndarray:
    """Round float32 values to bfloat16 and return the uint16 bit patterns.

    Rounding is round-to-nearest-even on the discarded low 16 bits. NaNs
    are quietened (forced to a canonical quiet NaN) so they survive the
    truncation; infinities round to themselves.
    """
    f32 = np.ascontiguousarray(values, dtype=np.float32)
    bits = f32.view(np.uint32)
    # round-to-nearest-even: add 0x7FFF + LSB of the surviving half.
    rounding_bias = np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))
    rounded = (bits + rounding_bias) >> np.uint32(16)
    out = rounded.astype(np.uint16)
    nan_mask = np.isnan(f32)
    if np.any(nan_mask):
        out = out.copy()
        out[nan_mask] = np.uint16(0x7FC0)  # canonical quiet NaN
    return out


def bf16_bits_to_float(bits: np.ndarray) -> np.ndarray:
    """Expand uint16 bfloat16 bit patterns to float32 (exact)."""
    u16 = np.ascontiguousarray(bits, dtype=np.uint16)
    expanded = u16.astype(np.uint32) << np.uint32(16)
    return expanded.view(np.float32)


def quantize_bf16(values: np.ndarray) -> np.ndarray:
    """Round float values to the nearest bfloat16, returned as float32."""
    return bf16_bits_to_float(float_to_bf16_bits(values))


def bf16_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply bfloat16 operands (given as float32) with bf16 rounding.

    Operands are first snapped to the bfloat16 grid, multiplied exactly in
    float32 (a bf16 x bf16 product has at most 15 mantissa bits so float32
    holds it exactly), then rounded back to bfloat16. An overflow to
    infinity and a NaN from ``0 * inf`` are defined results, so their FP
    warnings are suppressed.
    """
    qa = quantize_bf16(np.asarray(a, dtype=np.float32))
    qb = quantize_bf16(np.asarray(b, dtype=np.float32))
    with np.errstate(over="ignore", invalid="ignore"):
        return quantize_bf16(qa * qb)


def bf16_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Add bfloat16 operands (given as float32) with bf16 rounding.

    The float32 sum of two bfloat16 values is exact whenever the exponent
    difference is at most 16, and correctly rounded otherwise, so rounding
    the float32 sum to bfloat16 reproduces a fused bf16 adder. An
    overflow to infinity and a NaN from ``inf - inf`` are defined
    results, so their FP warnings are suppressed.
    """
    qa = quantize_bf16(np.asarray(a, dtype=np.float32))
    qb = quantize_bf16(np.asarray(b, dtype=np.float32))
    with np.errstate(over="ignore", invalid="ignore"):
        return quantize_bf16(qa + qb)
