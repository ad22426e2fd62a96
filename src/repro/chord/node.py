"""Chord node state.

Each node keeps a finger table of ``m`` entries (finger ``i`` targets
``id + 2^i``), a successor list, and a predecessor pointer.  Graceful
departure notifies only the predecessor and successor; fingers pointing
at the departed node go stale until stabilisation (the model the paper's
§4.3 failure experiment assumes).
"""

from __future__ import annotations

from typing import List, Optional

from repro.dht.base import Node

__all__ = ["ChordNode"]


class ChordNode(Node):
    """A Chord participant on the ``2^bits`` identifier ring."""

    __slots__ = ("id", "bits", "fingers", "successors", "predecessor")

    def __init__(self, name: object, node_id: int, bits: int) -> None:
        super().__init__(name)
        if not 0 <= node_id < (1 << bits):
            raise ValueError(f"id {node_id} outside [0, 2^{bits})")
        self.id = node_id
        self.bits = bits
        #: finger[i] is the first node at or after id + 2^i; may be stale.
        self.fingers: List[Optional["ChordNode"]] = [None] * bits
        #: the next ``r`` nodes clockwise; the fault-tolerance backstop.
        self.successors: List["ChordNode"] = []
        self.predecessor: Optional["ChordNode"] = None

    @property
    def node_id(self) -> int:
        return self.id

    @property
    def successor(self) -> Optional["ChordNode"]:
        return self.successors[0] if self.successors else None

    @property
    def degree(self) -> int:
        unique = {f.id for f in self.fingers if f is not None}
        unique.update(s.id for s in self.successors)
        if self.predecessor is not None:
            unique.add(self.predecessor.id)
        unique.discard(self.id)
        return len(unique)
