"""SQLite shared cache tier: one WAL database, many processes.

This is the warm serving tier behind ``repro serve``: a single
``cache.sqlite`` file holding digest-keyed payload blobs that any number
of reader/writer processes share safely (WAL journal + busy timeout),
with the bookkeeping the flat JSON-per-file tier could never do:

- a **version-salt column** — one database holds results from many code
  versions, and a recalibration never serves stale rows;
- **LRU eviction** by total payload size and/or row age, with cumulative
  eviction counters persisted in a ``meta`` table;
- **corrupt-row quarantine** — an unparseable blob is moved to the
  ``corrupt`` table (kept for forensics, like the dir tier's
  ``.corrupt`` files) and the lookup reports a miss, so the next run
  re-simulates once instead of failing the parse forever;
- an **in-flight claim table** — ``try_claim``/``release_claim`` give N
  concurrent processes exactly-once execution per digest: one winner
  simulates while the losers poll the result, and a crashed winner's
  claim goes stale (no heartbeat) and is taken over, so the queue never
  wedges.

The backend plugs into :class:`repro.runtime.cache.ResultCache` behind
the same ``get``/``put`` interface as the dir tier and keys payloads by
the identical ``(salt, digest)`` pair — digests are portable between
backends, which is what makes :func:`migrate_dir_tier` a plain copy.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Optional, Union

from repro.core.engine import gc_paused
from repro.runtime.cache import CacheStats, code_salt

__all__ = ["SqliteBackend", "DB_FILENAME", "migrate_dir_tier"]

#: database filename under the cache root directory
DB_FILENAME = "cache.sqlite"

#: default stale-claim threshold: a claim whose heartbeat is older than
#: this is presumed crashed and may be taken over by a waiter
DEFAULT_CLAIM_STALE_S = 60.0

#: don't rewrite last_used_ts on every read — only when it aged past this
_TOUCH_INTERVAL_S = 60.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    digest       TEXT NOT NULL,
    salt         TEXT NOT NULL,
    payload      BLOB NOT NULL,
    nbytes       INTEGER NOT NULL,
    created_ts   REAL NOT NULL,
    last_used_ts REAL NOT NULL,
    PRIMARY KEY (digest, salt)
);
CREATE INDEX IF NOT EXISTS idx_results_lru ON results (last_used_ts);
CREATE TABLE IF NOT EXISTS corrupt (
    digest         TEXT NOT NULL,
    salt           TEXT NOT NULL,
    payload        BLOB,
    quarantined_ts REAL NOT NULL,
    PRIMARY KEY (digest, salt)
);
CREATE TABLE IF NOT EXISTS claims (
    digest       TEXT NOT NULL,
    salt         TEXT NOT NULL,
    owner        TEXT NOT NULL,
    pid          INTEGER NOT NULL,
    claimed_ts   REAL NOT NULL,
    heartbeat_ts REAL NOT NULL,
    PRIMARY KEY (digest, salt)
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value REAL NOT NULL
);
"""


class SqliteBackend:
    """Digest-keyed payload store in one shared SQLite database."""

    kind = "sqlite"
    supports_claims = True

    def __init__(self, root: Union[str, Path], salt: Optional[str] = None,
                 stats: Optional[CacheStats] = None,
                 max_bytes: Optional[int] = None,
                 max_age_s: Optional[float] = None,
                 claim_stale_s: float = DEFAULT_CLAIM_STALE_S,
                 busy_timeout_s: float = 30.0) -> None:
        root = Path(root)
        if root.suffix in (".sqlite", ".db"):
            self.db_path = root
            self.root = root.parent
        else:
            self.root = root
            self.db_path = root / DB_FILENAME
        self.salt = salt if salt is not None else code_salt()
        self.stats = stats if stats is not None else CacheStats()
        self.max_bytes = max_bytes
        self.max_age_s = max_age_s
        self.claim_stale_s = float(claim_stale_s)
        self.busy_timeout_s = busy_timeout_s
        #: unique claim identity for this backend instance
        self.owner = f"{os.getpid()}-{os.urandom(4).hex()}"
        self._local = threading.local()
        self.root.mkdir(parents=True, exist_ok=True)
        self._connect()  # create schema eagerly so errors surface here

    # -- connection management -----------------------------------------
    def _connect(self) -> sqlite3.Connection:
        """Per-thread, per-process connection (fork- and thread-safe)."""
        con = getattr(self._local, "con", None)
        if con is not None and getattr(self._local, "pid", None) == os.getpid():
            return con
        con = sqlite3.connect(str(self.db_path),
                              timeout=self.busy_timeout_s,
                              isolation_level=None)  # autocommit
        con.execute("PRAGMA journal_mode=WAL")
        con.execute("PRAGMA synchronous=NORMAL")
        con.executescript(_SCHEMA)
        self._local.con = con
        self._local.pid = os.getpid()
        return con

    def close(self) -> None:
        con = getattr(self._local, "con", None)
        if con is not None:
            con.close()
            self._local.con = None

    # -- payload I/O ---------------------------------------------------
    def get(self, digest: str) -> Optional[dict]:
        con = self._connect()
        row = con.execute(
            "SELECT payload, last_used_ts FROM results "
            "WHERE digest=? AND salt=?", (digest, self.salt)).fetchone()
        if row is None:
            return None
        blob, last_used = row
        try:
            with gc_paused():
                payload = json.loads(blob)
        except (ValueError, TypeError):
            payload = None
        if not isinstance(payload, dict):
            self._quarantine(digest, blob)
            return None
        now = time.time()
        if now - last_used > _TOUCH_INTERVAL_S:
            # LRU touch, throttled so warm reads stay read-mostly
            con.execute("UPDATE results SET last_used_ts=? "
                        "WHERE digest=? AND salt=?", (now, digest, self.salt))
        return payload

    def _quarantine(self, digest: str, blob) -> None:
        con = self._connect()
        with _txn(con):
            con.execute(
                "INSERT OR REPLACE INTO corrupt "
                "(digest, salt, payload, quarantined_ts) VALUES (?,?,?,?)",
                (digest, self.salt, blob, time.time()))
            con.execute("DELETE FROM results WHERE digest=? AND salt=?",
                        (digest, self.salt))
        self.stats.corrupt += 1

    def put(self, digest: str, payload: dict) -> None:
        blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        now = time.time()
        con = self._connect()
        con.execute(
            "INSERT OR REPLACE INTO results "
            "(digest, salt, payload, nbytes, created_ts, last_used_ts) "
            "VALUES (?,?,?,?,?,?)",
            (digest, self.salt, blob, len(blob), now, now))
        self._evict(con, now)

    # -- LRU eviction --------------------------------------------------
    def _evict(self, con: sqlite3.Connection, now: float) -> None:
        evicted = evicted_bytes = 0
        if self.max_age_s is not None:
            cutoff = now - self.max_age_s
            rows = con.execute(
                "SELECT COUNT(*), COALESCE(SUM(nbytes),0) FROM results "
                "WHERE last_used_ts < ?", (cutoff,)).fetchone()
            if rows[0]:
                con.execute("DELETE FROM results WHERE last_used_ts < ?",
                            (cutoff,))
                evicted += rows[0]
                evicted_bytes += rows[1]
        if self.max_bytes is not None:
            total = con.execute(
                "SELECT COALESCE(SUM(nbytes),0) FROM results").fetchone()[0]
            if total > self.max_bytes:
                # walk the LRU order, dropping rows until under budget
                for digest, salt, nbytes in con.execute(
                        "SELECT digest, salt, nbytes FROM results "
                        "ORDER BY last_used_ts ASC").fetchall():
                    if total <= self.max_bytes:
                        break
                    con.execute(
                        "DELETE FROM results WHERE digest=? AND salt=?",
                        (digest, salt))
                    total -= nbytes
                    evicted += 1
                    evicted_bytes += nbytes
        if evicted:
            self.stats.evictions += evicted
            with _txn(con):
                _bump_meta(con, "evictions", evicted)
                _bump_meta(con, "evicted_bytes", evicted_bytes)

    def eviction_stats(self) -> dict:
        """Cumulative evictions across every process that used this db."""
        con = self._connect()
        rows = dict(con.execute("SELECT key, value FROM meta").fetchall())
        return {"evictions": int(rows.get("evictions", 0)),
                "evicted_bytes": int(rows.get("evicted_bytes", 0))}

    # -- in-flight claims ----------------------------------------------
    def try_claim(self, digest: str) -> bool:
        """Atomically claim ``digest`` for execution by this process.

        True when we won (nobody held it, or the holder's heartbeat is
        older than ``claim_stale_s`` and we took the claim over); False
        when a live peer holds it — poll the result and
        :meth:`try_claim` again if the peer vanishes without producing
        one.
        """
        now = time.time()
        con = self._connect()
        try:
            con.execute(
                "INSERT INTO claims "
                "(digest, salt, owner, pid, claimed_ts, heartbeat_ts) "
                "VALUES (?,?,?,?,?,?)",
                (digest, self.salt, self.owner, os.getpid(), now, now))
            return True
        except sqlite3.IntegrityError:
            # held: stale-claim takeover (CAS on the old heartbeat so two
            # waiters cannot both steal it)
            cur = con.execute(
                "UPDATE claims SET owner=?, pid=?, claimed_ts=?, "
                "heartbeat_ts=? WHERE digest=? AND salt=? AND heartbeat_ts<?",
                (self.owner, os.getpid(), now, now, digest, self.salt,
                 now - self.claim_stale_s))
            return cur.rowcount == 1

    def release_claim(self, digest: str) -> None:
        """Drop our claim (no-op if a takeover already stole it)."""
        self._connect().execute(
            "DELETE FROM claims WHERE digest=? AND salt=? AND owner=?",
            (digest, self.salt, self.owner))

    def heartbeat_claims(self, digests) -> None:
        """Refresh the heartbeat on every claim we still hold."""
        now = time.time()
        con = self._connect()
        for digest in digests:
            con.execute(
                "UPDATE claims SET heartbeat_ts=? "
                "WHERE digest=? AND salt=? AND owner=?",
                (now, digest, self.salt, self.owner))

    def claim_info(self, digest: str) -> Optional[dict]:
        row = self._connect().execute(
            "SELECT owner, pid, claimed_ts, heartbeat_ts FROM claims "
            "WHERE digest=? AND salt=?", (digest, self.salt)).fetchone()
        if row is None:
            return None
        return {"owner": row[0], "pid": row[1], "claimed_ts": row[2],
                "heartbeat_ts": row[3]}

    # -- inspection ----------------------------------------------------
    def summary(self) -> dict:
        """Row/byte counts for ``repro cache stats``."""
        con = self._connect()
        rows, nbytes = con.execute(
            "SELECT COUNT(*), COALESCE(SUM(nbytes),0) FROM results "
            "WHERE salt=?", (self.salt,)).fetchone()
        all_rows, all_bytes = con.execute(
            "SELECT COUNT(*), COALESCE(SUM(nbytes),0) FROM results"
        ).fetchone()
        corrupt = con.execute("SELECT COUNT(*) FROM corrupt").fetchone()[0]
        claims = con.execute("SELECT COUNT(*) FROM claims").fetchone()[0]
        out = {"db": str(self.db_path), "salt": self.salt,
               "rows": rows, "bytes": int(nbytes),
               "rows_all_salts": all_rows, "bytes_all_salts": int(all_bytes),
               "corrupt_rows": corrupt, "open_claims": claims}
        out.update(self.eviction_stats())
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SqliteBackend {self.db_path}>"


class _txn:
    """Tiny BEGIN IMMEDIATE/COMMIT context for multi-statement atomicity
    (connections run in autocommit mode otherwise)."""

    def __init__(self, con: sqlite3.Connection) -> None:
        self.con = con

    def __enter__(self) -> sqlite3.Connection:
        self.con.execute("BEGIN IMMEDIATE")
        return self.con

    def __exit__(self, exc_type, *exc) -> None:
        self.con.execute("ROLLBACK" if exc_type else "COMMIT")


def _bump_meta(con: sqlite3.Connection, key: str, delta: float) -> None:
    con.execute(
        "INSERT INTO meta (key, value) VALUES (?,?) "
        "ON CONFLICT(key) DO UPDATE SET value = value + excluded.value",
        (key, delta))


def migrate_dir_tier(root: Union[str, Path],
                     backend: Optional[SqliteBackend] = None,
                     salt: Optional[str] = None) -> int:
    """One-shot copy of a dir-tier cache into the SQLite tier.

    Walks every ``<root>/<salt>/[<shard>/]<digest>.json`` file (both the
    sharded and the legacy flat layout, every salt) and inserts rows the
    database does not already have.  Returns the number migrated.  The
    JSON files are left in place — the dir tier keeps working.
    """
    root = Path(root)
    own = backend is None
    if backend is None:
        backend = SqliteBackend(root, salt=salt)
    con = backend._connect()
    migrated = 0
    if root.is_dir():
        for salt_dir in sorted(p for p in root.iterdir() if p.is_dir()):
            for path in sorted(salt_dir.glob("**/*.json")):
                digest = path.stem
                row_salt = salt_dir.name
                exists = con.execute(
                    "SELECT 1 FROM results WHERE digest=? AND salt=?",
                    (digest, row_salt)).fetchone()
                if exists:
                    continue
                try:
                    with gc_paused():
                        payload = json.loads(path.read_text())
                except (OSError, ValueError):
                    continue  # corrupt files stay behind for the dir tier
                if not isinstance(payload, dict):
                    continue
                blob = json.dumps(payload, separators=(",", ":")).encode()
                now = time.time()
                con.execute(
                    "INSERT INTO results (digest, salt, payload, nbytes, "
                    "created_ts, last_used_ts) VALUES (?,?,?,?,?,?)",
                    (digest, row_salt, blob, len(blob), now, now))
                migrated += 1
    if own:
        backend.close()
    return migrated
