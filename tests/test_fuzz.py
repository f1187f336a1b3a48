"""Fuzzed inputs: a corrupted file fails with a PfaError, never anything else."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import sparse_field
from pfa.errors import PfaError
from pfa.flow import FlowField, load_flow, save_flow


def _seed_flow_bytes() -> bytes:
    """A small well-formed PFAF file: 12x10 crop, about half the pixels valid."""
    rng = np.random.default_rng(5)
    valid = rng.random((10, 12)) < 0.5
    du, dv = rng.normal(0.0, 4.0, size=(2, 10, 12)).astype(np.float32)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seed.pfaf"
        save_flow(sparse_field(du, dv, valid), path)
        return path.read_bytes()


SEED_FLOW = _seed_flow_bytes()
FIRST_VECTOR = 16 + (12 * 10 + 7) // 8  # header, then the mask bits
NAN_F32 = np.array([np.nan], dtype="<f4").tobytes()

# (kind, position, payload): flip bits of one byte, overwrite bytes, cut the
# file, or insert bytes
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "overwrite", "truncate", "insert"]),
        st.integers(min_value=0, max_value=len(SEED_FLOW)),
        st.binary(min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=4,
)


def _mutate(data: bytes, mutations) -> bytes:
    data = bytearray(data)
    for kind, position, payload in mutations:
        if kind == "flip" and data:
            data[position % len(data)] ^= payload[0] or 0x80
        elif kind == "overwrite" and data:
            start = position % len(data)
            data[start:start + len(payload)] = payload[: len(data) - start]
        elif kind == "truncate":
            del data[position % (len(data) + 1):]
        elif kind == "insert":
            data[position % (len(data) + 1):position % (len(data) + 1)] = payload
    return bytes(data)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(MUTATIONS)
@example([("overwrite", FIRST_VECTOR, NAN_F32)])
@example([("overwrite", 8, b"\xff\xff\xff\xff\xff\xff\xff\xff")])  # width = height = 2^32 - 1
def test_corrupt_flow_files_raise_only_pfa_errors(mutations):
    data = _mutate(SEED_FLOW, mutations)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.pfaf"
        path.write_bytes(data)
        try:
            field = load_flow(path)
        except PfaError:
            return
    assert isinstance(field, FlowField)
    assert len(field.indices) == len(field.vectors)
    assert np.isfinite(field.vectors).all()
