import ast
import inspect

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence

from sbc_lab.models import simplex
from sbc_lab.rng import (
    POSTERIOR_OFFSET,
    TIEBREAK_OFFSET,
    copy_stream,
    generation_stream,
    posterior_stream,
    stream,
    tiebreak_stream,
)


def test_replay_is_bitwise_identical():
    a = stream(12345, 7).standard_normal(64)
    b = stream(12345, 7).standard_normal(64)
    np.testing.assert_array_equal(a, b)


def test_replay_independent_of_other_streams():
    a = stream(1, 2)
    _ = a.standard_normal(1000)  # consuming one stream must not affect another
    fresh = stream(1, 3).standard_normal(16)
    again = stream(1, 3).standard_normal(16)
    np.testing.assert_array_equal(fresh, again)


def test_distinct_streams_differ():
    a = stream(9, 0).standard_normal(32)
    b = stream(9, 1).standard_normal(32)
    c = stream(10, 0).standard_normal(32)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_per_simulation_namespaces_are_disjoint():
    assert POSTERIOR_OFFSET != TIEBREAK_OFFSET
    g = generation_stream(5, 3).standard_normal(8)
    p = posterior_stream(5, 3).standard_normal(8)
    t = tiebreak_stream(5, 3).standard_normal(8)
    assert not np.array_equal(g, p)
    assert not np.array_equal(g, t)
    assert not np.array_equal(p, t)


def test_large_stream_ids_accepted():
    g = stream(2**63 + 17, 2**63 + 999)
    assert np.isfinite(g.standard_normal(4)).all()


_MASK64 = (1 << 64) - 1
_SEEDS = [0, 1, 2**64 - 1, -1]
_IDS = [0, 3, 2**62 - 1, POSTERIOR_OFFSET, POSTERIOR_OFFSET + 3, TIEBREAK_OFFSET, TIEBREAK_OFFSET + 3]


def _draws(g):
    """1 000 each of normals, 64-bit integers and uniforms, in that order."""
    return (
        g.standard_normal(1000),
        g.integers(0, 2**63, size=1000),
        g.random(1000),
    )


def _same_state(a, b):
    return repr(a.bit_generator.state) == repr(b.bit_generator.state)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("stream_id", _IDS)
def test_stream_is_philox_keyed_by_seed_and_id(seed, stream_id):
    # the layout every artifact depends on: key [seed mod 2^64, id mod 2^64],
    # counter 0, nothing drawn
    key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
    reference = np.random.Generator(np.random.Philox(key=key))
    g = stream(seed, stream_id)
    assert _same_state(g, reference)
    for ours, theirs in zip(_draws(g), _draws(reference)):
        np.testing.assert_array_equal(ours, theirs)
    assert _same_state(g, reference)


def test_stream_seed_sequence_is_its_key():
    g = stream(-1, TIEBREAK_OFFSET + 5)
    seed_seq = g.bit_generator.seed_seq
    assert isinstance(seed_seq, ISeedSequence)
    assert not isinstance(seed_seq, np.random.SeedSequence)  # no OS entropy read
    np.testing.assert_array_equal(
        seed_seq.generate_state(2, np.uint64), [2**64 - 1, TIEBREAK_OFFSET + 5]
    )
    with pytest.raises(TypeError):
        g.spawn(1)  # new work takes new stream ids


# each with the has_uint32 flag it leaves: a 32-bit draw buffers half a word
_PREFIXES = {
    "fresh": (lambda g: None, 0),
    "normals": (lambda g: g.standard_normal(7), 0),
    "uniforms": (lambda g: g.random(5), 0),
    "uint32": (lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32), 1),
    "float32": (lambda g: g.random(1, dtype=np.float32), 1),
    "normals_then_uint32": (lambda g: (g.standard_normal(9), g.integers(0, 7, dtype=np.uint32)), 1),
}


def _mixed_draws(g):
    return [
        g.random(3, dtype=np.float32),
        g.standard_normal(11),
        g.integers(0, 2**32, size=5, dtype=np.uint32),
        g.random(13),
        g.integers(0, 2**63, size=4),
    ]


@pytest.mark.parametrize("prefix", sorted(_PREFIXES))
def test_copy_continues_bit_for_bit(prefix):
    draw, has_uint32 = _PREFIXES[prefix]
    original = stream(21, POSTERIOR_OFFSET + 4)
    draw(original)
    assert original.bit_generator.state["has_uint32"] == has_uint32
    duplicate = copy_stream(original)
    assert _same_state(duplicate, original)
    for ours, theirs in zip(_mixed_draws(duplicate), _mixed_draws(original)):
        np.testing.assert_array_equal(ours, theirs)
    assert _same_state(duplicate, original)


def test_drawing_from_the_copy_leaves_the_original():
    original = stream(8, 2)
    original.random(3, dtype=np.float32)
    before = repr(original.bit_generator.state)
    duplicate = copy_stream(original)
    _mixed_draws(duplicate)
    assert repr(original.bit_generator.state) == before
    replay = stream(8, 2)
    replay.random(3, dtype=np.float32)
    for ours, theirs in zip(_mixed_draws(original), _mixed_draws(replay)):
        np.testing.assert_array_equal(ours, theirs)


def test_simplex_sampler_copies_streams_without_the_copy_module():
    tree = ast.parse(inspect.getsource(simplex))
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    }
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "copy" not in imported
