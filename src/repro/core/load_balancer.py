"""Flow-level FE selection: plain 5-tuple hashing (§3.2.3).

No consistent hashing (FEs are stateless, so reassignment just costs one
rule-table lookup) and no symmetric hashing (state lives on the BE, which
both directions traverse).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigError
from repro.net.five_tuple import FiveTuple
from repro.vswitch.rule_tables import Location


class FeSelector:
    """Hash-based flow→FE assignment."""

    def __init__(self, locations: Optional[List[Location]] = None) -> None:
        self.locations: List[Location] = list(locations or [])

    def __len__(self) -> int:
        return len(self.locations)

    def add(self, location: Location) -> None:
        if location in self.locations:
            raise ConfigError(f"{location} already in the FE set")
        self.locations.append(location)

    def remove(self, location: Location) -> None:
        self.locations.remove(location)

    def pick(self, ft: FiveTuple) -> Location:
        """The FE for this flow: its 5-tuple hash modulo the FE count."""
        if not self.locations:
            raise ConfigError("no FEs available")
        return self.locations[ft.hash() % len(self.locations)]
