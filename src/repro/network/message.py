"""Message record passed through the fabric."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["Message", "reset_ids", "alloc_msg_id", "MSG_ID_STRIDE"]

#: Message ids are allocated *per source node*: ``src * STRIDE + seq``.
#: Ids stay unique and deterministic like a global counter, but they do
#: not depend on how sends from *different* nodes interleave, and
#: :func:`reset_ids` restarts them per run, so traces of repeat runs
#: join on identical ids.
MSG_ID_STRIDE = 1_000_000

_site_seq: Dict[int, int] = {}


def alloc_msg_id(src: int) -> int:
    """Next message id for source node ``src`` (deterministic per site)."""
    seq = _site_seq.get(src, 0)
    _site_seq[src] = seq + 1
    return src * MSG_ID_STRIDE + seq


def reset_ids() -> None:
    """Restart message-id allocation (every site back to sequence 0).

    Called by the experiment runner at the start of every run so trace
    records carry run-local ids: a traced run produces the same records
    no matter how many runs preceded it in the process (or which pool
    worker it landed on).  Ids only label trace records and join causal
    chains within one run — nothing matches them across runs.
    """
    _site_seq.clear()


@dataclass
class Message:
    """An application-level message.

    ``size`` is the payload size in bytes used for all timing and traffic
    accounting; ``payload`` is the actual Python object carried (never
    serialized — this is a simulator).  ``port`` names the logical mailbox
    on the destination node.
    """

    src: int
    dst: int
    size: int
    payload: Any = None
    port: str = "default"
    kind: str = "msg"
    msg_id: int = -1
    send_time: float = 0.0
    recv_time: float = 0.0

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"negative message size: {self.size}")
        if self.msg_id < 0:
            self.msg_id = alloc_msg_id(self.src)
