"""The reference model of a backup store: what every retained session
must restore to.

Trivially correct by construction — a dict of path -> bytes per
retained session, nothing else — and independent of the system under
test: it imports nothing from ``repro``.  The state machine in
``tests/test_state_machine.py`` drives the real store and this model
through the same public verbs and compares them after every step.
"""

from __future__ import annotations

from typing import Dict, List, Mapping


class StoreModel:
    """Retained sessions, each the exact snapshot it backed up."""

    def __init__(self) -> None:
        self.sessions: Dict[int, Dict[str, bytes]] = {}

    def commit(self, session_id: int, files: Mapping[str, bytes]) -> None:
        """A backup of ``files`` completed as ``session_id``."""
        self.sessions[session_id] = dict(files)

    def drop(self, session_id: int) -> None:
        """Retention let ``session_id`` go."""
        del self.sessions[session_id]

    def retained(self) -> List[int]:
        """Ids of the retained sessions, oldest first."""
        return sorted(self.sessions)
