"""Bit-exact vectorized replication of numpy's stream seeding.

:meth:`repro.sim.random.RandomStreams.fresh` builds, per name, a
``SeedSequence([seed, crc32(name)])`` and a ``PCG64`` generator from it.
That costs ~13 µs per stream — fine for scalar sampling, but it dominates
the batch sampling paths (``sample_series``), which need thousands of
fresh per-interval streams (WiFi fading blocks, PLC jitter intervals) in
one call.

This module reproduces numpy's seeding arithmetic exactly, but hashes all
names at once with vectorized uint32 operations:

* :func:`seedseq_state_words` — ``SeedSequence([*seed_words, key]).
  generate_state(4, uint64)`` for an array of keys (the entropy-pool hash
  of ``numpy.random.bit_generator.SeedSequence``);
* :func:`pcg64_seed_states` — the 128-bit ``(state, inc)`` pair
  ``PCG64(seed_seq)`` derives from those four words (the reference
  ``pcg64_srandom`` arithmetic).

Bit-identity with numpy is asserted by ``tests/test_medium_contract.py``
(and, transitively, by every golden trace): callers inject the computed
state into a reused ``PCG64`` via its ``.state`` property and draw —
yielding exactly the values a fresh ``Generator`` would produce.

The replicated constants are numpy's published seeding algorithm
(stable across numpy versions by compatibility guarantee: changing it
would break every seeded stream in the ecosystem).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: SeedSequence entropy-pool hash constants (numpy bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

#: PCG64 default 128-bit LCG multiplier and the srandom state derivation.
_PCG_MULT = (0x2360ED051FC65DA4 << 64) | 0x4385DF649FCCF645
_MASK128 = (1 << 128) - 1
_MASK32 = 0xFFFFFFFF


def uint32_words(value: int) -> List[int]:
    """Little-endian 32-bit decomposition of a non-negative int.

    Matches numpy's ``_int_to_uint32_array`` (at least one word, so 0
    contributes one zero word to the entropy pool).
    """
    value = int(value)
    if value < 0:
        raise ValueError("entropy values must be non-negative")
    words = []
    while True:
        words.append(value & _MASK32)
        value >>= 32
        if not value:
            break
    return words


def _hash_constants(init: int, mult: int, count: int):
    """The ``(xor, mul)`` constants of ``count`` successive hashmix
    calls, as two (count, 1) uint32 columns.

    ``hash_const`` evolves identically for every key (its updates do not
    depend on the data), so each call's constants are fixed in advance.
    """
    consts, value = [], init
    for _ in range(count):
        nxt = (value * mult) & _MASK32
        consts.append((value, nxt))
        value = nxt
    xor, mul = np.array(consts, dtype=np.uint32).T[:, :, None]
    return xor, mul


#: Constants of the pool's hashmix calls, in numpy's call order: one per
#: pool entry, then three per mixing source (one per destination).
_POOL_XOR, _POOL_MUL = _hash_constants(_INIT_A, _MULT_A,
                                       _POOL_SIZE * _POOL_SIZE)
#: Constants of the output hashmix calls, one per 32-bit output word.
_OUT_XOR, _OUT_MUL = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(values: np.ndarray, xor: np.ndarray,
             mul: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mul
    return values ^ (values >> _XSHIFT)


def seedseq_state_words(seed_words: List[int], keys: np.ndarray
                        ) -> Tuple[np.ndarray, ...]:
    """``SeedSequence([*seed_words, key]).generate_state(4, uint64)``,
    vectorized over ``keys``.

    Returns four uint64 arrays ``(w0, w1, w2, w3)`` aligned with ``keys``.
    Raises :class:`NotImplementedError` when the entropy does not fit the
    4-word pool (only possible for seeds wider than 96 bits) — callers
    fall back to the scalar path.

    The pool is one (4, n) array. Within one mixing source, numpy's three
    destination updates read only the source entry, which none of them
    writes, so they run as one (3, n) step; every uint32 operation and
    its order are numpy's.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint32)
    if len(seed_words) + 1 > _POOL_SIZE:
        raise NotImplementedError(
            "entropy wider than the SeedSequence pool; use the scalar path")
    pool = np.zeros((_POOL_SIZE, keys.size), dtype=np.uint32)
    pool[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    pool[len(seed_words)] = keys
    # Entropy (zero-padded) into the pool; len(entropy) <= pool size, so
    # there is no remaining-entropy pass.
    pool = _hashmix(pool, _POOL_XOR[:_POOL_SIZE], _POOL_MUL[:_POOL_SIZE])
    call = _POOL_SIZE
    for i_src in range(_POOL_SIZE):
        dsts = [i for i in range(_POOL_SIZE) if i != i_src]
        hashed = _hashmix(pool[i_src], _POOL_XOR[call:call + len(dsts)],
                          _POOL_MUL[call:call + len(dsts)])
        call += len(dsts)
        mixed = pool[dsts] * _MIX_MULT_L - hashed * _MIX_MULT_R
        pool[dsts] = mixed ^ (mixed >> _XSHIFT)
    out32 = _hashmix(pool[[i % _POOL_SIZE for i in range(2 * _POOL_SIZE)]],
                     _OUT_XOR, _OUT_MUL).astype(np.uint64)
    return tuple(out32[0::2] | (out32[1::2] << np.uint64(32)))


def pcg64_seed_states(seed: int, keys: np.ndarray
                      ) -> List[Tuple[int, int]]:
    """Per-key 128-bit ``(state, inc)`` of ``PCG64(SeedSequence([seed, key]))``.

    The four seed-sequence words map onto PCG64's ``srandom``:
    ``initstate = w0 << 64 | w1``, ``initseq = w2 << 64 | w3``,
    ``inc = initseq << 1 | 1`` and
    ``state = (inc + initstate) * MULT + inc`` (mod 2^128).
    """
    w0, w1, w2, w3 = seedseq_state_words(uint32_words(seed), keys)
    states = []
    for k in range(len(w0)):
        initstate = (int(w0[k]) << 64) | int(w1[k])
        initseq = (int(w2[k]) << 64) | int(w3[k])
        inc = ((initseq << 1) | 1) & _MASK128
        states.append((((inc + initstate) * _PCG_MULT + inc) & _MASK128,
                       inc))
    return states


def pcg64_state_dict(state: int, inc: int) -> dict:
    """The ``.state`` payload that re-seeds a reused ``PCG64`` in place."""
    return {"bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
