"""Disk-backed compiled-kernel plan cache.

Repeat launches of the same PTX across *processes* skip parsing-derived
work (CFG construction, reconvergence, dataflow analysis, vector
codegen): the megablock tier stores its serialised
:class:`repro.functional.megablock.MegaPlan` here, keyed on

* a SHA-256 **fingerprint** of the kernel's structural content (name,
  param/shared/local declarations, instruction texts, labels),
* the execution **tier** the payload belongs to, and
* the **format/analysis versions** (``PLAN_FORMAT`` from the megablock
  codegen and ``ANALYSIS_VERSION`` from ``repro.analysis.vectorize``).

Entries are JSON files under the repro cache directory
(``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
``~/.cache/repro``), written atomically (temp file + ``os.replace``).
A payload checksum rides inside each entry; corrupted or stale entries
(bad JSON, checksum mismatch, wrong versions, wrong fingerprint) are
**discarded and deleted**, never trusted — a cache can only ever be a
performance hint.  ``REPRO_CACHE_DISABLE=1`` turns the whole thing off.

Module-level counters (``hits``/``misses``/``stores``/``discards``)
feed the tracer's cache instants and the benchmark's cold-vs-warm
reporting.

**Concurrency.**  The cache is shared by every worker of the sharded
simulation service (:mod:`repro.service`), so writes must survive N
processes storing the same entry at once: temp files carry the writer's
pid plus a random suffix (no two writers can collide on a name), the
final ``os.replace`` is atomic, and a *lost* rename race — another
process published an equivalent entry first and the loser's rename
fails — is treated as a benign success, never an error.  Long-lived
pool workers must not trust the environment they inherited at fork
either: :func:`env_config`/:func:`apply_env_config` let the parent
snapshot ``REPRO_CACHE_DIR``/``REPRO_CACHE_DISABLE`` at task-submit
time and re-apply it inside the worker at task start, so an operator
toggling the env affects new jobs immediately.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.util.atomicstore import atomic_write

#: Environment variables that configure the cache; resolved at call
#: time, never captured at import.
_ENV_VARS = ("REPRO_CACHE_DIR", "REPRO_CACHE_DISABLE", "XDG_CACHE_HOME")

#: Entry schema version (independent of the plan payload format).
CACHE_FORMAT = 1

_COUNTERS = {"hits": 0, "misses": 0, "stores": 0, "discards": 0}


def counters() -> dict:
    """Snapshot of the cache counters (copy; safe to mutate)."""
    return dict(_COUNTERS)


def reset_counters() -> None:
    for key in _COUNTERS:
        _COUNTERS[key] = 0


def enabled() -> bool:
    return os.environ.get("REPRO_CACHE_DISABLE", "") != "1"


def env_config() -> dict[str, str | None]:
    """Snapshot the cache-relevant environment (for worker transport).

    Pool workers are forked once and live for many tasks; their inherited
    environment goes stale the moment the service operator exports a new
    ``REPRO_CACHE_DIR`` or toggles ``REPRO_CACHE_DISABLE`` in the parent.
    The parent snapshots this at task-submit time and ships it with the
    task; the worker applies it before touching the cache.
    """
    return {name: os.environ.get(name) for name in _ENV_VARS}


def apply_env_config(config: dict[str, str | None]) -> None:
    """Re-apply a parent-process :func:`env_config` snapshot (workers
    call this at task start, not at import/fork time)."""
    for name in _ENV_VARS:
        value = config.get(name)
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def cache_dir() -> str:
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return os.path.join(xdg, "repro")
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def kernel_fingerprint(kernel) -> str:
    """SHA-256 over the kernel's structural content.

    Deliberately *not* a hash of the source file: whitespace or comment
    churn must not invalidate entries, while any change to declarations,
    instruction stream or label layout must.
    """
    hasher = hashlib.sha256()
    hasher.update(kernel.name.encode())
    for param in kernel.params:
        hasher.update(
            f"|p:{param.name}:{param.dtype.name}:{param.offset}"
            f":{param.array_len}:{param.size}".encode())
    for var in list(kernel.shared_vars) + list(kernel.local_vars):
        hasher.update(
            f"|v:{var.name}:{var.dtype.name}:{var.size}".encode())
    for inst in kernel.body:
        hasher.update(b"|i:")
        # ``text`` is the opcode token alone; the guard and the operands
        # (registers, immediates, displacements) are semantics too.
        hasher.update(
            f"{inst.text or inst.opcode}:{inst.pred}:{inst.pred_negated}"
            f":{inst.operands!r}".encode())
    for label, target in sorted(kernel.labels.items()):
        hasher.update(f"|l:{label}:{target}".encode())
    return hasher.hexdigest()


def _entry_path(fingerprint: str, tier: str) -> str:
    return os.path.join(cache_dir(), f"{fingerprint[:16]}-{tier}.json")


def _payload_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _discard(path: str) -> None:
    _COUNTERS["discards"] += 1
    try:
        os.unlink(path)
    except OSError:
        pass


def load(kernel, tier: str, *, plan_format: int,
         analysis_version: int) -> dict | None:
    """Return the cached payload for *kernel*/*tier*, or ``None``.

    Every validation failure deletes the entry and counts a discard; a
    clean absence counts a miss.
    """
    if not enabled():
        return None
    fingerprint = kernel_fingerprint(kernel)
    path = _entry_path(fingerprint, tier)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
    except FileNotFoundError:
        _COUNTERS["misses"] += 1
        return None
    except (OSError, ValueError):
        _discard(path)
        return None
    if not isinstance(entry, dict):
        _discard(path)
        return None
    stale = (entry.get("format") != CACHE_FORMAT
             or entry.get("plan_format") != plan_format
             or entry.get("analysis_version") != analysis_version
             or entry.get("tier") != tier
             or entry.get("fingerprint") != fingerprint
             or entry.get("kernel") != kernel.name)
    if stale:
        _discard(path)
        return None
    payload = entry.get("payload")
    if not isinstance(payload, dict) \
            or entry.get("payload_sha256") != _payload_digest(payload):
        _discard(path)
        return None
    _COUNTERS["hits"] += 1
    return payload


def _entry_is_valid(path: str, fingerprint: str, tier: str,
                    plan_format: int, analysis_version: int) -> bool:
    """Non-destructive validity probe (used to classify rename races).

    Unlike :func:`load`, a failed probe must NOT delete the entry: the
    prober may be racing a concurrent writer whose ``os.replace`` lands
    between our check and the unlink, and deleting would throw away the
    winner's good entry.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
    except (OSError, ValueError):
        return False
    if not isinstance(entry, dict):
        return False
    payload = entry.get("payload")
    return (entry.get("format") == CACHE_FORMAT
            and entry.get("plan_format") == plan_format
            and entry.get("analysis_version") == analysis_version
            and entry.get("tier") == tier
            and entry.get("fingerprint") == fingerprint
            and isinstance(payload, dict)
            and entry.get("payload_sha256") == _payload_digest(payload))


def store(kernel, tier: str, payload: dict, *, plan_format: int,
          analysis_version: int) -> bool:
    """Atomically persist *payload*; returns False when disabled/failed.

    Safe under concurrent writers
    (:func:`repro.util.atomicstore.atomic_write`): two processes
    compiling the same kernel never collide on the staging file, and
    readers see the old entry or the new one, never a half-renamed
    hybrid.  If the rename itself fails but an
    equivalent valid entry already exists — another process won the
    race — the loss is benign and counts as a store all the same.
    """
    if not enabled():
        return False
    fingerprint = kernel_fingerprint(kernel)
    entry = {
        "format": CACHE_FORMAT,
        "plan_format": plan_format,
        "analysis_version": analysis_version,
        "tier": tier,
        "fingerprint": fingerprint,
        "kernel": kernel.name,
        "payload": payload,
        "payload_sha256": _payload_digest(payload),
    }
    path = _entry_path(fingerprint, tier)
    try:
        atomic_write(path, json.dumps(entry).encode("utf-8"))
    except OSError:
        if _entry_is_valid(path, fingerprint, tier, plan_format,
                           analysis_version):
            # Lost the rename race to a process that published the same
            # (fingerprint, tier, versions) entry: the cache holds what
            # we wanted to write, so the store succeeded in effect.
            _COUNTERS["stores"] += 1
            return True
        return False
    _COUNTERS["stores"] += 1
    return True
