"""Tests for the builtin profiles and the INI profile file."""

import pytest

from conftest import DESK_M4, write_profiles
from mfskmodem.profiles import load_profiles


def test_file_profile_joins_the_builtins(tmp_path):
    profiles = load_profiles(write_profiles(tmp_path / "p.ini", {"desk-m4": DESK_M4}))
    assert {"jt65a-full", "reduced-m8", "desk-m4"} <= set(profiles)
    assert profiles["desk-m4"].model.hidden_units == 8


def test_unknown_key_is_refused_with_its_section(tmp_path):
    # A typo beside the real key must not load silently with the real value.
    path = write_profiles(tmp_path / "p.ini", {"desk-m4": DESK_M4,
                                               "typo": {**DESK_M4, "hiden_units": 99}})
    with pytest.raises(ValueError, match=r"^profile \[typo\] has unknown keys: hiden_units$"):
        load_profiles(path)
