"""The keyed-draw mixer: one function in two forms, with pinned outputs.

Every probe outcome, uptime coin, fan-out target and rotation in the model
is a keyed draw from :mod:`repro.keyed`, so a silent change of its uint64
arithmetic (a numpy or CPython change to wraparound, say) would move every
report at once.  The pinned literals below fail first instead.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import keyed

U64 = st.integers(0, 2**64 - 1)
EDGES = st.sampled_from([0, 1, 2**63, 2**64 - 1])
ADDRESS = st.integers(0, 2**128 - 1)


@st.composite
def key_parts(draw):
    """Key parts mixing uint64 edge values with both limbs of an address."""
    parts = draw(st.lists(st.one_of(U64, EDGES), min_size=0, max_size=4))
    address = draw(ADDRESS)
    parts += [address >> 64, address & (2**64 - 1)]
    return draw(st.permutations(parts))


@settings(max_examples=300)
@given(parts=key_parts())
def test_int_and_array_forms_agree(parts):
    arrays = [np.array([part], dtype=np.uint64) for part in parts]
    assert keyed.key_array(*arrays).tolist() == [keyed.key(*parts)]
    draw = keyed.hash01(*parts)
    assert keyed.hash01_array(*arrays).tolist() == [draw]
    assert 0.0 <= draw < 1.0


@given(values=st.lists(st.one_of(U64, EDGES), min_size=1, max_size=40), stream=U64)
def test_base_xor_stream_draws(values, stream):
    """The one-round ``draw(base, stream)`` of both probe engines."""
    bases = np.array(values, dtype=np.uint64)
    draws = keyed.draw_array(bases, stream)
    scalar = [keyed.draw(value, stream) for value in values]
    assert draws.tolist() == scalar == [keyed.hash01(value ^ stream) for value in values]
    assert ((draws >= 0.0) & (draws < 1.0)).all()


def test_scalar_parts_broadcast_over_arrays():
    ids = np.arange(5, dtype=np.uint64)
    draws = keyed.hash01_array(keyed.ROTATES, 3, 9, ids)
    assert draws.tolist() == [keyed.hash01(keyed.ROTATES, 3, 9, i) for i in range(5)]


def test_pinned_outputs():
    # splitmix64's first output from state 0.
    assert keyed.key(0) == 0xE220A8397B1DCDAF
    assert keyed.key(2**64 - 1) == 0xE4D971771B652C20
    assert keyed.hash01(1, 2, 3) == 0.814259011529328
    limbs = np.array([0, 2**64 - 1], dtype=np.uint64)
    assert keyed.key_array(limbs).tolist() == [0xE220A8397B1DCDAF, 0xE4D971771B652C20]


def test_negative_parts_key_as_twos_complement():
    assert keyed.key(-1) == keyed.key(2**64 - 1)
    assert keyed.key_array(np.array([-1], dtype=np.int64)).tolist() == [keyed.key(-1)]


def test_salts_are_distinct():
    salts = [
        value
        for name, value in vars(keyed).items()
        if name.isupper() and not name.startswith("_") and name != "MASK64"
    ]
    assert len(salts) == len(set(salts)) == 15
