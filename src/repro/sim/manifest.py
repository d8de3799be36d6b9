"""Resumable campaign manifests: a crash-safe JSON-lines journal.

A long adversary-search or fuzz campaign is only as useful as its
ability to survive the machine it runs on.  This module turns a
campaign into an append-only **journal**: one header line describing
the campaign's configuration, then one record per completed case with
a content digest over the ``(case, outcome)`` pair.  The journal *is*
the checkpoint -- resuming replays the records through the engine's
state-update logic without re-executing anything, then continues from
the first missing case.

Design rules that make resumed campaigns byte-identical to
uninterrupted ones:

- every case is seeded by :func:`repro.sim.parallel.derive_seed`, so a
  case's execution is a pure function of the journal's campaign seed
  and the case's position -- not of which process ran it or when;
- records carry only machine-independent values (no wall-clock, no
  retry counts) and their digests are computed over a canonical JSON
  encoding (sorted keys, no whitespace variance);
- appends are flushed and ``fsync``-ed per record, and a torn trailing
  line (the crash landed mid-write) is detected and truncated on open;
- the campaign's *target* (how many executions to run) is an argument
  of the run, not of the journal: "interrupted at k, resumed to N" and
  "ran to N" append the same N records by construction.

Format (one JSON object per line)::

    {"kind": "header", "format": "repro-manifest/2", "config": {...}}
    {"kind": "case", "index": 0, "case": {...}, "outcome": {...},
     "digest": "<sha256-hex-16>"}
    ...
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "MANIFEST_FORMAT",
    "CampaignJournal",
    "JournalCorrupt",
    "record_digest",
]

#: History: 1 = an exhausted escalation ladder is a failure outcome
#: flagged as tolerable; 2 = one exhausted by a partition that never
#: heals is the clean outcome ``rung: "exhausted"``, and the flag is gone.
MANIFEST_FORMAT = "repro-manifest/2"


class JournalCorrupt(ValueError):
    """A journal line failed validation (bad digest, bad structure)."""


def _canonical(value: Any) -> str:
    """Canonical JSON encoding: the digest's stable wire form."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def record_digest(index: int, case: dict, outcome: dict) -> str:
    """Content digest of one journal record (first 16 hex chars).

    Computed over the canonical encoding of ``(index, case, outcome)``;
    identical on every host and worker count because the inputs are.
    """
    payload = _canonical({"index": index, "case": case, "outcome": outcome})
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class JournalRecord:
    """One completed case as recorded in the journal."""

    index: int
    case: dict
    outcome: dict
    digest: str = field(default="", compare=False)

    def verify(self) -> None:
        expected = record_digest(self.index, self.case, self.outcome)
        if self.digest != expected:
            raise JournalCorrupt(
                f"record {self.index}: digest {self.digest!r} does not "
                f"match content digest {expected!r}"
            )


class CampaignJournal:
    """Append-only JSONL journal for one campaign.

    Create with :meth:`create` (writes the header) or :meth:`open_`
    (validates the header + existing records, truncates a torn tail).
    ``config`` is the campaign's full configuration -- a resume
    validates it against the caller's requested configuration so a
    journal can never silently continue under different parameters.
    """

    def __init__(self, path: str, config: dict):
        self.path = path
        self.config = config
        self.records: list[JournalRecord] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, path: str, config: dict) -> "CampaignJournal":
        """Start a fresh journal at ``path`` (parent dirs created)."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        journal = cls(path, dict(config))
        header = {
            "kind": "header",
            "format": MANIFEST_FORMAT,
            "config": journal.config,
        }
        with open(path, "w") as handle:
            handle.write(_canonical(header) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        return journal

    @classmethod
    def open_(cls, path: str) -> "CampaignJournal":
        """Open an existing journal, validating every intact record.

        A torn trailing line (no newline, truncated JSON -- the writer
        died mid-append) is dropped and the file truncated to the last
        intact record; any *earlier* corruption is fatal
        (:class:`JournalCorrupt`), since silently skipping interior
        records would desynchronise resumed engine state.
        """
        with open(path, "rb") as handle:
            raw = handle.read()
        lines = raw.split(b"\n")
        # a well-formed journal ends with a newline -> last element "".
        torn = lines[-1] != b""
        body = lines[:-1]
        good_bytes = 0
        header: dict | None = None
        records: list[JournalRecord] = []
        for lineno, line in enumerate(body):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise JournalCorrupt(
                    f"{path}:{lineno + 1}: unparseable journal line"
                ) from exc
            if lineno == 0:
                if (
                    entry.get("kind") != "header"
                    or entry.get("format") != MANIFEST_FORMAT
                ):
                    raise JournalCorrupt(
                        f"{path}: not a {MANIFEST_FORMAT} journal header"
                    )
                header = entry
            else:
                if entry.get("kind") != "case":
                    raise JournalCorrupt(
                        f"{path}:{lineno + 1}: unexpected kind "
                        f"{entry.get('kind')!r}"
                    )
                record = JournalRecord(
                    index=entry["index"],
                    case=entry["case"],
                    outcome=entry["outcome"],
                    digest=entry.get("digest", ""),
                )
                record.verify()
                if record.index != len(records):
                    raise JournalCorrupt(
                        f"{path}:{lineno + 1}: record index "
                        f"{record.index}, expected {len(records)}"
                    )
                records.append(record)
            good_bytes += len(line) + 1
        if header is None:
            raise JournalCorrupt(f"{path}: empty journal (no header)")
        if torn:
            # crash landed mid-append: drop the partial line so the
            # next append starts on a clean boundary.
            with open(path, "r+b") as handle:
                handle.truncate(good_bytes)
        journal = cls(path, header["config"])
        journal.records = records
        return journal

    # -- appends ----------------------------------------------------------

    def append(self, case: dict, outcome: dict) -> JournalRecord:
        """Record one completed case; durable before returning."""
        record = JournalRecord(
            index=len(self.records),
            case=case,
            outcome=outcome,
            digest=record_digest(len(self.records), case, outcome),
        )
        entry = {
            "kind": "case",
            "index": record.index,
            "case": record.case,
            "outcome": record.outcome,
            "digest": record.digest,
        }
        with open(self.path, "a") as handle:
            handle.write(_canonical(entry) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.records.append(record)
        return record

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[JournalRecord]:
        return iter(self.records)

    def require_config(self, config: dict) -> None:
        """Fail loudly when a resume requests different parameters."""
        if self.config != config:
            mismatched = sorted(
                key
                for key in set(self.config) | set(config)
                if self.config.get(key) != config.get(key)
            )
            raise ValueError(
                f"journal {self.path} was written with a different "
                f"campaign configuration (mismatched: {mismatched}); "
                "resume with the original parameters or start a new "
                "manifest"
            )
