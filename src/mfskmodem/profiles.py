"""Named modem/model profiles and the profile configuration file.

Two profiles ship built in:

- ``jt65a-full``: the real protocol scale (11025 Hz, 4096-sample symbols,
  64 tones, sync on bin 472, 2500 Hz reference bandwidth; CNN with 128
  filters and 64 hidden units).  Training at this scale is hours on a CPU.
- ``reduced-m8``: a desk-scale cousin (512-sample symbols, 8 tones, sync
  on bin 59 so the sync frequency matches; CNN with 32 filters and 32
  hidden units) that trains in minutes and drives CI.

Extra profiles load from an INI-style file: one section per profile name,
exactly the flat keys listed in PROFILE_KEYS; a missing or unknown key is
refused.  File values override builtins of the same name.
"""

import configparser
from dataclasses import dataclass, fields

from .nn.model import ModelConfig
from .signal import ModemProfile

PROFILE_KEYS = tuple(field.name for field in fields(ModemProfile)) + (
    "conv_filters", "conv_kernel", "hidden_units")

# Each builtin's PROFILE_KEYS values, in order.
_BUILTINS = {
    "jt65a-full": (11025.0, 4096, 64, 472, 2, 2500.0, 128, 16, 64),
    "reduced-m8": (11025.0, 512, 8, 59, 2, 2500.0, 32, 16, 32),
}


@dataclass(frozen=True)
class Profile:
    """A modem profile paired with the CNN sized for it."""

    name: str
    modem: ModemProfile
    model: ModelConfig


def _profile(name, values) -> Profile:
    """The profile of PROFILE_KEYS ``values``; the CNN reads one symbol window
    and has one class per data tone."""
    *modem_values, filters, kernel, hidden = values
    modem = ModemProfile(*modem_values)
    return Profile(name, modem, ModelConfig(modem.symbol_len, filters, kernel, hidden,
                                            modem.tone_count))


def load_profiles(path=None) -> dict:
    """Builtin profiles, optionally merged with an INI profile file."""
    profiles = {name: _profile(name, values) for name, values in _BUILTINS.items()}
    if path is None:
        return profiles
    # Profile values are plain numbers, so "%" needs no interpolation.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        # configparser's message spans lines; the CLI reports one.
        message = " ".join(str(exc).split())
        raise ValueError(f"cannot parse profile file {path}: {message}") from None
    if not read:
        raise ValueError(f"cannot read profile file {path}")
    floats = {field.name for field in fields(ModemProfile) if field.type is float}
    for name in parser.sections():
        section = parser[name]
        missing = [key for key in PROFILE_KEYS if key not in section]
        if missing:
            raise ValueError(
                f"profile [{name}] is missing keys: {', '.join(missing)}"
            )
        unknown = [key for key in section if key not in PROFILE_KEYS]
        if unknown:
            raise ValueError(f"profile [{name}] has unknown keys: {', '.join(unknown)}")
        values = []
        for key in PROFILE_KEYS:
            try:
                values.append(section.getfloat(key) if key in floats else section.getint(key))
            except ValueError as exc:
                raise ValueError(f"profile [{name}] key {key}: {exc}") from None
        profiles[name] = _profile(name, values)
    return profiles


def get_profile(name: str, path=None) -> Profile:
    profiles = load_profiles(path)
    if name not in profiles:
        known = ", ".join(sorted(profiles))
        raise ValueError(f"unknown profile {name!r} (known: {known})")
    return profiles[name]
