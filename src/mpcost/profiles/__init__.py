"""Bundled cost profiles.

Eight profiles derived from EC2 benchmark runs ship with the package,
one per placement scenario and VM model:

* ``intra-*``: both parties' VMs in one region. Network transfer is not
  billed there, so every network entry is zero; stored units are
  1e-10 cents.
* ``inter-*``: VMs in two distant regions. Network entries price the
  measured per-operation traffic at the blended per-GB rate; stored
  units are 1e-6 cents.

VM models: ``m3.medium``, ``m3.large`` (memory optimized), ``c4.large``,
``c4.xlarge`` (compute optimized). All profiles use the schemes
``arithmetic`` (add/mul only), ``boolean`` and ``yao`` (full support).
"""

from __future__ import annotations

from importlib.resources import files

from ..cost_model import CostProfile, profile_from_json
from ..errors import ParseError

_VMS = ("m3.medium", "m3.large", "c4.large", "c4.xlarge")

#: Names of the bundled profiles, intra before inter.
BUILTIN_PROFILES = tuple(
    f"{scenario}-{vm}" for scenario in ("intra", "inter") for vm in _VMS
)


def builtin_names() -> tuple[str, ...]:
    """Names accepted by :func:`load_builtin` (and by the CLI wherever a
    profile path is expected)."""
    return BUILTIN_PROFILES


def builtin_text(name: str) -> str:
    """Raw JSON text of a bundled profile."""
    if name not in BUILTIN_PROFILES:
        raise ParseError(
            f"unknown profile {name!r}; available: {', '.join(BUILTIN_PROFILES)}"
        )
    return (files(__package__) / "data" / f"{name}.json").read_text("utf-8")


def load_builtin(name: str) -> CostProfile:
    """Load a bundled profile by name, e.g. ``"inter-m3.medium"``."""
    return profile_from_json(builtin_text(name))
