"""Durable, content-addressed persistence of history snapshots.

The delta control plane makes history refreshes cheap on the wire; this
module makes the snapshots cheap *at rest*. A :class:`HistoryArchive` lays
a directory out as

::

    <root>/
      blobs/<sha256>.pkl        one pickled group tuple per distinct content
      manifests/v<NNNNNNNN>.json one manifest per archived version

Each manifest lists its version's groups as ``(source, destination,
time_slot) -> blob digest`` in snapshot iteration order, plus provenance
metadata (who archived it, when, from what). Because copy-on-write
refreshes leave untouched group tuples bit-identical, their pickles hash to
the same digest — consecutive versions *share* blobs, so archiving version
N+1 after version N writes only the groups that grew (the wire delta is
smaller still: what was appended to them). :meth:`HistoryArchive.gc`
reclaims blobs no surviving manifest references.

A loaded snapshot is label-exact: same groups in the same order, same
version, same slotting — the memo caches rebuild lazily, as after any
deserialization. A model checkpoint (:mod:`repro.serve.checkpoint`) embeds
its own history; an archived version reaches a running service through
``service.swap(history=archive.load(version))``.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import pickle
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..exceptions import ArchiveError
from ..trajectory.models import MatchedTrajectory, SDPair
from .store import HistorySnapshot

#: Bump when the manifest layout changes incompatibly.
MANIFEST_FORMAT = 1

_MANIFEST_MAGIC = "repro-history-manifest"


class HistoryArchive:
    """A durable store of history snapshots, content-addressed per group."""

    def __init__(self, root: Union[str, Path]):
        self._root = Path(root)
        self._blobs = self._root / "blobs"
        self._manifests = self._root / "manifests"
        self._blobs.mkdir(parents=True, exist_ok=True)
        self._manifests.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    # ------------------------------------------------------------- inventory
    def versions(self) -> List[int]:
        """Every archived version, ascending."""
        found = []
        for path in self._manifests.glob("v*.json"):
            try:
                found.append(int(path.stem[1:]))
            except ValueError:  # pragma: no cover - foreign file in the dir
                continue
        return sorted(found)

    def _manifest_path(self, version: int) -> Path:
        return self._manifests / f"v{version:08d}.json"

    def manifest(self, version: int) -> dict:
        """The raw manifest of one archived version (validated)."""
        path = self._manifest_path(version)
        if not path.is_file():
            raise ArchiveError(
                f"no archived history version {version} under {self._root}")
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError) as error:
            raise ArchiveError(
                f"corrupt manifest for version {version}: {error}") from error
        if (not isinstance(manifest, dict)
                or manifest.get("magic") != _MANIFEST_MAGIC):
            raise ArchiveError(
                f"{path} is not a history manifest")
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ArchiveError(
                f"manifest format {manifest.get('format')!r} is not supported "
                f"(this build reads format {MANIFEST_FORMAT})")
        if manifest.get("version") != version:
            raise ArchiveError(
                f"manifest {path.name} claims version "
                f"{manifest.get('version')!r}")
        return manifest

    def provenance(self, version: int) -> dict:
        """Who/when/what-from metadata recorded when a version was saved."""
        manifest = self.manifest(version)
        return {"created_at": manifest["created_at"],
                **manifest.get("provenance", {})}

    # ------------------------------------------------------------------ save
    def save(self, snapshot: HistorySnapshot,
             provenance: Optional[dict] = None) -> int:
        """Archive one snapshot; returns its version.

        Content-addressed: a group whose pickled bytes are already in
        ``blobs/`` (typically every pair a copy-on-write refresh did *not*
        touch) is shared, not rewritten. Saving a version that is already
        archived is an idempotent no-op when the content matches and an
        error when it does not — the archive never silently forks a
        version's meaning. The manifest is written atomically (temp file +
        rename), so a crashed save never leaves a readable-but-partial
        version behind.
        """
        if not isinstance(snapshot, HistorySnapshot):
            raise ArchiveError(
                f"expected a HistorySnapshot, got {type(snapshot).__name__}")
        entries = []
        for key, group in snapshot.groups().items():
            blob = pickle.dumps(group, protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.sha256(blob).hexdigest()
            blob_path = self._blobs / f"{digest}.pkl"
            if not blob_path.exists():
                blob_path.write_bytes(blob)
            entries.append({
                "source": key.source,
                "destination": key.destination,
                "time_slot": key.time_slot,
                "blob": digest,
            })
        manifest_path = self._manifest_path(snapshot.version)
        if manifest_path.exists():
            existing = self.manifest(snapshot.version)
            if existing["groups"] != entries or (
                    existing["slots_per_day"] != snapshot.slots_per_day):
                raise ArchiveError(
                    f"history version {snapshot.version} is already archived "
                    f"with different content; a version's meaning is "
                    f"immutable (rebuild into a new version instead)")
            return snapshot.version
        manifest = {
            "magic": _MANIFEST_MAGIC,
            "format": MANIFEST_FORMAT,
            "version": snapshot.version,
            "slots_per_day": snapshot.slots_per_day,
            "trajectories": len(snapshot),
            "created_at": datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
            "groups": entries,
            "provenance": dict(provenance or {}),
        }
        scratch = manifest_path.with_suffix(".json.tmp")
        scratch.write_text(json.dumps(manifest, indent=1, sort_keys=True),
                           encoding="utf-8")
        scratch.replace(manifest_path)
        return snapshot.version

    # ------------------------------------------------------------------ load
    def load(self, version: Optional[int] = None) -> HistorySnapshot:
        """Rehydrate one archived version (default: the newest).

        Label-exact against the saved snapshot: identical groups in
        identical iteration order at the identical version. Every blob's
        digest is re-verified on read, so silent disk corruption surfaces
        as an :class:`~repro.exceptions.ArchiveError`, never as subtly
        wrong labels.
        """
        if version is None:
            known = self.versions()
            if not known:
                raise ArchiveError(f"no archived history under {self._root}")
            version = known[-1]
        manifest = self.manifest(version)
        groups: Dict[SDPair, Tuple[MatchedTrajectory, ...]] = {}
        for entry in manifest["groups"]:
            digest = entry["blob"]
            blob_path = self._blobs / f"{digest}.pkl"
            if not blob_path.is_file():
                raise ArchiveError(
                    f"version {version} references missing blob {digest[:12]}… "
                    f"(was it garbage-collected out from under a manifest?)")
            blob = blob_path.read_bytes()
            if hashlib.sha256(blob).hexdigest() != digest:
                raise ArchiveError(
                    f"blob {digest[:12]}… failed its integrity check")
            key = SDPair(source=entry["source"],
                         destination=entry["destination"],
                         time_slot=entry["time_slot"])
            groups[key] = pickle.loads(blob)
        return HistorySnapshot(groups, manifest["slots_per_day"],
                               manifest["version"])

    # -------------------------------------------------------------------- gc
    def gc(self, keep: Optional[List[int]] = None,
           keep_last: Optional[int] = None) -> Tuple[int, int]:
        """Drop old versions and reclaim unshared blobs.

        Pass ``keep`` (explicit versions to retain) or ``keep_last`` (the N
        newest). Returns ``(manifests_removed, blobs_removed)``. Blobs
        still referenced by any surviving manifest are kept — structural
        sharing means deleting version N often frees only the groups N
        alone touched.
        """
        if (keep is None) == (keep_last is None):
            raise ArchiveError("gc needs exactly one of keep= or keep_last=")
        versions = self.versions()
        if keep_last is not None:
            if keep_last < 0:
                raise ArchiveError("keep_last must be >= 0")
            keep_set = set(versions[len(versions) - keep_last:]
                           if keep_last else [])
        else:
            keep_set = set(keep)
        manifests_removed = 0
        for version in versions:
            if version not in keep_set:
                self._manifest_path(version).unlink()
                manifests_removed += 1
        referenced = set()
        for version in self.versions():
            for entry in self.manifest(version)["groups"]:
                referenced.add(entry["blob"])
        blobs_removed = 0
        for blob_path in self._blobs.glob("*.pkl"):
            if blob_path.stem not in referenced:
                blob_path.unlink()
                blobs_removed += 1
        return manifests_removed, blobs_removed
