"""Versioned, checksummed checkpoints of per-node runtime state.

A Hetero-DMR node's safety-critical runtime state — the epoch guard's
error budget, the degradation ladder's rung and armed signals, the
margin advisor's telemetry windows — lives in process memory and dies
with a crash.  This module makes it durable: a :class:`Checkpoint` is a
canonical-JSON document carrying a format version, the registry
sequence number it is consistent with, and a SHA-256 checksum over the
body; a :class:`CheckpointStore` writes them with the registry's
tmp+fsync+replace+dir-fsync discipline, keeps a bounded history, and on
load falls back past corrupt files to the newest checkpoint that still
verifies.

Checkpoints alone are not enough — events recorded to the
:class:`~repro.fleet.registry.MarginRegistry` after the checkpoint are
the durable truth for rung changes.  ``repro.recovery.manager``
combines both (checkpoint + WAL replay).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..fleet.registry import atomic_write, canonical_json

#: Checkpoint schema version (bumped on incompatible changes).
CHECKPOINT_FORMAT = 1

_NAME_RE = re.compile(r"^checkpoint-(\d{8})\.json$")


class CheckpointError(Exception):
    """A checkpoint file is missing, corrupt, or failed verification."""


def _checksum(body: Dict[str, object]) -> str:
    """SHA-256 over the canonical body serialization."""
    return hashlib.sha256(
        canonical_json(body).encode("ascii")).hexdigest()


@dataclass(frozen=True)
class Checkpoint:
    """One durable snapshot of a node's runtime state.

    ``seq`` is the :class:`~repro.fleet.registry.MarginRegistry`
    sequence number the state is consistent with: recovery replays
    registry events with seq strictly greater.  ``state`` maps section
    names (``epoch_guard``, ``controller``, ``advisor``) to the
    ``to_state()`` dicts of the corresponding runtime objects.
    """
    node: int
    seq: int
    time_ns: float
    state: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def to_json(self) -> str:
        """Canonical serialization with an embedded checksum."""
        body = {"format": CHECKPOINT_FORMAT, "node": self.node,
                "seq": self.seq, "time_ns": self.time_ns,
                "state": self.state}
        return canonical_json({"body": body,
                               "sha256": _checksum(body)}) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        """Parse and *verify* one checkpoint document.

        Raises :class:`CheckpointError` on malformed JSON, a format
        version this code does not understand, or a checksum mismatch
        (torn write, bit rot)."""
        try:
            raw = json.loads(text)
            body = raw["body"]
            recorded = str(raw["sha256"])
        except (ValueError, TypeError, KeyError) as exc:
            raise CheckpointError("malformed checkpoint: {}".format(exc))
        if body.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError("unsupported checkpoint format {!r}"
                                  .format(body.get("format")))
        if _checksum(body) != recorded:
            raise CheckpointError("checksum mismatch")
        return cls(node=int(body["node"]), seq=int(body["seq"]),
                   time_ns=float(body["time_ns"]),
                   state=dict(body["state"]))


class CheckpointStore:
    """Bounded, crash-safe history of checkpoints for one node.

    ``path`` is a directory; files are named ``checkpoint-<n>.json``
    with a monotonically increasing index so "latest" is well defined
    without trusting timestamps.  ``path=None`` keeps checkpoints in
    memory (campaign drills, tests) with identical semantics.  Each
    write lands via temp file + fsync + ``os.replace`` + directory
    fsync; history is pruned to ``keep`` files, never touching the
    newest.
    """

    def __init__(self, path: Optional[object] = None, keep: int = 4):
        if keep < 1:
            raise ValueError("keep must be at least 1")
        self.path = Path(path) if path is not None else None
        self.keep = keep
        self._memory: Dict[str, str] = {}
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)

    # -- naming -------------------------------------------------------------------

    def _names(self) -> List[str]:
        """Checkpoint file names, oldest first."""
        if self.path is None:
            names = list(self._memory)
        else:
            names = [p.name for p in self.path.iterdir()
                     if _NAME_RE.match(p.name)]
        return sorted(names)

    def _next_name(self) -> str:
        names = self._names()
        index = 0
        if names:
            index = int(_NAME_RE.match(names[-1]).group(1)) + 1
        return "checkpoint-{:08d}.json".format(index)

    def _read(self, name: str) -> str:
        if self.path is None:
            return self._memory[name]
        return (self.path / name).read_text()

    # -- write / prune ------------------------------------------------------------

    def write(self, checkpoint: Checkpoint) -> str:
        """Durably persist one checkpoint; returns its file name."""
        name = self._next_name()
        text = checkpoint.to_json()
        if self.path is None:
            self._memory[name] = text
        else:
            atomic_write(self.path / name, text.encode("utf-8"))
        self._prune()
        return name

    def _prune(self) -> None:
        names = self._names()
        for name in names[:-self.keep]:
            if self.path is None:
                del self._memory[name]
            else:
                try:
                    (self.path / name).unlink()
                except OSError:
                    pass

    # -- load ---------------------------------------------------------------------

    def load_latest(self) -> Tuple[Optional[Checkpoint], int]:
        """The newest checkpoint that verifies, plus the number of
        newer checkpoints skipped as corrupt (the *fallback* count).
        ``(None, n)`` when no stored checkpoint verifies at all."""
        fallbacks = 0
        for name in reversed(self._names()):
            try:
                return Checkpoint.from_json(self._read(name)), fallbacks
            except (CheckpointError, OSError):
                fallbacks += 1
        return None, fallbacks

    def __len__(self) -> int:
        return len(self._names())

    def entries(self) -> List[Tuple[str, Optional[Checkpoint], str]]:
        """Inventory for ``repro recover status``: each stored file as
        ``(name, checkpoint-or-None, "ok"|error-reason)``."""
        out = []
        for name in self._names():
            try:
                out.append((name, Checkpoint.from_json(self._read(name)),
                            "ok"))
            except (CheckpointError, OSError) as exc:
                out.append((name, None, str(exc)))
        return out

    # -- drill helpers -------------------------------------------------------------

    def corrupt_latest(self, drop_bytes: int = 9) -> Optional[str]:
        """Truncate the newest checkpoint in place — the torn-write
        model for the campaign's mid-checkpoint kill point.  Returns
        the damaged file's name (None when the store is empty)."""
        names = self._names()
        if not names:
            return None
        name = names[-1]
        text = self._read(name)
        damaged = text[:max(0, len(text) - drop_bytes)]
        if self.path is None:
            self._memory[name] = damaged
        else:
            (self.path / name).write_text(damaged)
        return name
