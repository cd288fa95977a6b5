"""Frame structures: SoF delimiters."""

import pytest

from repro.plc.frames import SofDelimiter


def _sof(**kw):
    base = dict(timestamp=1.0, src="a", dst="b", tmi=3, ble_bps=1e8,
                slot=2, n_pbs=3, duration_s=2e-3)
    base.update(kw)
    return SofDelimiter(**base)


def test_sof_validation():
    with pytest.raises(ValueError):
        _sof(ble_bps=-1.0)
    with pytest.raises(ValueError):
        _sof(n_pbs=0)


def test_sof_flags_default_false():
    sof = _sof()
    assert not sof.is_retransmission
    assert not sof.is_sound
    assert not sof.is_broadcast
