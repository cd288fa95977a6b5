"""Deterministic named random streams."""

from repro.sim.random import RandomStreams


def test_same_name_same_seed_reproduces():
    a = RandomStreams(seed=5).get("plc.noise").uniform(size=4)
    b = RandomStreams(seed=5).get("plc.noise").uniform(size=4)
    assert (a == b).all()


def test_different_names_are_independent():
    streams = RandomStreams(seed=5)
    a = streams.get("alpha").uniform(size=8)
    b = streams.get("beta").uniform(size=8)
    assert not (a == b).all()


def test_different_seeds_differ():
    a = RandomStreams(seed=1).get("x").uniform(size=4)
    b = RandomStreams(seed=2).get("x").uniform(size=4)
    assert not (a == b).all()


def test_get_returns_same_generator_with_advancing_state():
    streams = RandomStreams(seed=0)
    g1 = streams.get("s")
    first = g1.uniform()
    g2 = streams.get("s")
    assert g1 is g2
    assert g2.uniform() != first  # state advanced, not reset


def test_fresh_resets_to_initial_state():
    streams = RandomStreams(seed=0)
    first = streams.fresh("s").uniform()
    again = streams.fresh("s").uniform()
    assert first == again


def test_spawn_creates_independent_family():
    parent = RandomStreams(seed=9)
    child = parent.spawn("worker")
    a = parent.fresh("x").uniform()
    b = child.fresh("x").uniform()
    assert a != b


def test_fresh_batch_replays_fresh_streams():
    """The vectorized seeding draws exactly what one ``fresh`` generator
    per name draws: one- and two-word seeds take the vectorized hash,
    seeds wider than the SeedSequence pool the scalar fallback."""
    names = [f"plc.jitter.link-{k}.{k * 7}" for k in range(37)]
    for seed in (0, 7, 2**32 - 1, 2**32, 2**63 - 1, 2**96 + 3):
        streams = RandomStreams(seed=seed)
        got = [(i, rng.uniform(size=3).tolist())
               for i, rng in streams.fresh_batch(names)]
        assert got == [(i, streams.fresh(name).uniform(size=3).tolist())
                       for i, name in enumerate(names)]
        assert list(streams.fresh_batch([])) == []
