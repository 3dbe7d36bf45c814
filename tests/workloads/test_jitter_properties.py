"""Property-based suite for the jitter primitives (hypothesis).

Block stamping is only sound if the scalar reference chain in
:func:`tests.workloads.reference.jittered` /
:func:`~tests.workloads.reference.jittered_int` has the exact properties
the vectorized replay assumes: the half-nominal floor always holds (so
skipping dataclass validation is safe), the ``lo`` floor always holds,
same-seed draws are bit-deterministic, and one ``standard_normal(n)``
block is bit-for-bit the same stream as n scalar ``standard_normal()``
calls.  These are checked here over adversarial inputs — including
jitter fractions far larger than any workload uses — rather than just
the constants the def tables happen to contain.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tests.workloads.reference import jittered, jittered_int  # noqa: E402

finite_values = st.floats(
    min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False
)
# Deliberately adversarial: real def tables stay under ~0.3, but the
# floor must hold even when frac·z swings the factor hugely negative.
fracs = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(value=finite_values, frac=fracs, seed=seeds)
def test_half_nominal_floor(value, frac, seed):
    rng = np.random.default_rng(seed)
    assert jittered(rng, value, frac) >= 0.5 * value


@given(value=finite_values, frac=fracs, seed=seeds,
       lo=st.integers(min_value=0, max_value=10**6))
def test_int_floor(value, frac, seed, lo):
    rng = np.random.default_rng(seed)
    result = jittered_int(rng, value, frac, lo=lo)
    assert isinstance(result, int)
    assert result >= lo


@given(value=finite_values, frac=fracs, seed=seeds)
def test_same_seed_determinism(value, frac, seed):
    a = jittered(np.random.default_rng(seed), value, frac)
    b = jittered(np.random.default_rng(seed), value, frac)
    assert a == b  # bit-exact, no tolerance


@given(seed=seeds, n=st.integers(min_value=1, max_value=64))
def test_batched_normals_equal_scalar_stream(seed, n):
    """One standard_normal(n) block == n scalar draws, bit for bit.

    This is the load-bearing RNG fact behind PhaseBlock.stamp: drawing
    the block advances the bit generator exactly as the reference's
    scalar loop does, with identical doubles at every position.
    """
    block_rng = np.random.default_rng(seed)
    scalar_rng = np.random.default_rng(seed)
    block = block_rng.standard_normal(n)
    scalars = np.array([scalar_rng.standard_normal() for _ in range(n)])
    assert block.tobytes() == scalars.tobytes()
    assert block_rng.bit_generator.state == scalar_rng.bit_generator.state


@settings(max_examples=50)
@given(
    seed=seeds,
    params=st.lists(st.tuples(finite_values, fracs), min_size=1, max_size=32),
)
def test_vectorized_chain_equals_scalar_chain(seed, params):
    """PhaseBlock's three vector ops replay the scalar chain exactly."""
    base = np.array([p[0] for p in params])
    frac = np.array([p[1] for p in params])

    vec_rng = np.random.default_rng(seed)
    z = vec_rng.standard_normal(len(params))
    j = base * (1.0 + frac * z)
    np.maximum(0.5 * base, j, out=j)
    ints = np.maximum(1000.0, np.rint(j)).astype(np.int64)

    scalar_rng = np.random.default_rng(seed)
    scalar_j = np.array([jittered(scalar_rng, b, f) for b, f in params])
    assert j.tobytes() == scalar_j.tobytes()

    # jittered_int consumes its own draw, so replay a third stream.
    int_rng = np.random.default_rng(seed)
    scalar_ints = [jittered_int(int_rng, b, f) for b, f in params]
    assert ints.tolist() == scalar_ints
