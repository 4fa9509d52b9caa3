"""URI-aware filesystem facade for the medallion lake.

The reference lake lives on an object store (S3 —
``/root/reference/infra/terraform/modules/s3_datalake/main.tf``); this
engine's lake roots therefore accept either plain POSIX paths or
``scheme://`` URIs. Local paths take the exact same ``os``/``glob`` fast
path as before; URIs route through fsspec (``file://``, ``s3://``,
``memory://``, ...), and parquet IO passes the resolved filesystem to
pyarrow, which wraps fsspec filesystems natively.

Atomicity note: the temp-file + rename commit protocol only exists on
filesystems with atomic rename. On object stores a single-object PUT is
itself atomic (readers never see a partial object), so for URI paths
:func:`write_table_atomic` and :func:`write_text_atomic` write the
destination object directly. A stream partition-run's commit point is
its ``state.arrow`` (written after the data, one whole file), not a
rename of data already in place.

Caveat for ``memory://``: fsspec's in-memory filesystem is
PROCESS-LOCAL. Driver-side control-plane operations (bootstrap,
manifests, retention, expiry, reconcile) work on it and are tested over
it; the distributed data plane (Ray tasks writing partitions) requires a
filesystem every worker can reach — ``file://`` (tested e2e) or a real
object store.
"""

from __future__ import annotations

import glob as _glob
import os
import posixpath
import uuid


def is_uri(path: str) -> bool:
    return "://" in path


def split_fs(path: str):
    """(fsspec filesystem, protocol-stripped path) for a URI path."""
    import fsspec

    if path.startswith("mocks3://"):
        # lazy registration so Ray workers resolve the test/dev
        # object-store scheme with no fixture plumbing
        from . import mocks3  # noqa: F401

        assert mocks3.MockS3FileSystem  # keep the import visibly used
    return fsspec.core.url_to_fs(path)


def _unstrip(fs, stripped: str, like: str) -> str:
    """Re-attach the protocol so outputs keep the caller's path flavor."""
    out = fs.unstrip_protocol(stripped)
    # keep memory:///x vs memory://x consistent with the input flavor
    proto = like.split("://", 1)[0] + "://"
    if not out.startswith(proto):
        out = proto + stripped.lstrip("/")
    return out


def join(base: str, *parts: str) -> str:
    if is_uri(base):
        return posixpath.join(base, *parts)
    return os.path.join(base, *parts)


def basename(path: str) -> str:
    return posixpath.basename(path.rstrip("/")) if is_uri(path) else os.path.basename(path)


def dirname(path: str) -> str:
    return posixpath.dirname(path.rstrip("/")) if is_uri(path) else os.path.dirname(path)


def canon(path: str) -> str:
    """Canonical identity for claimed-file set matching: realpath for
    local paths, protocol + normalized path for URIs."""
    if not is_uri(path):
        return os.path.realpath(path)
    proto, rest = path.split("://", 1)
    return f"{proto}://{posixpath.normpath('/' + rest).lstrip('/')}"


def relpath(path: str, base: str) -> str:
    if not is_uri(path):
        return os.path.relpath(path, base)
    _, p = split_fs(path)
    _, b = split_fs(base)
    return posixpath.relpath(p, b)


def exists(path: str) -> bool:
    if not is_uri(path):
        return os.path.exists(path)
    fs, p = split_fs(path)
    return fs.exists(p)


def isdir(path: str) -> bool:
    if not is_uri(path):
        return os.path.isdir(path)
    fs, p = split_fs(path)
    return fs.isdir(p)


def listdir(path: str) -> list[str]:
    """Entry NAMES (not full paths), like os.listdir."""
    if not is_uri(path):
        return os.listdir(path)
    fs, p = split_fs(path)
    return [posixpath.basename(e.rstrip("/")) for e in fs.ls(p, detail=False)]


def glob(pattern: str, recursive: bool = False) -> list[str]:
    """Glob returning paths in the same flavor as ``pattern``."""
    if not is_uri(pattern):
        return _glob.glob(pattern, recursive=recursive)
    fs, p = split_fs(pattern)
    return [_unstrip(fs, m, pattern) for m in fs.glob(p)]


def makedirs(path: str, exist_ok: bool = True) -> None:
    if not is_uri(path):
        os.makedirs(path, exist_ok=exist_ok)
        return
    fs, p = split_fs(path)
    fs.makedirs(p, exist_ok=exist_ok)


def open_(path: str, mode: str = "r"):
    if not is_uri(path):
        return open(path, mode)
    fs, p = split_fs(path)
    if "w" in mode or "a" in mode:
        fs.makedirs(posixpath.dirname(p), exist_ok=True)
    return fs.open(p, mode)


def remove(path: str) -> None:
    if not is_uri(path):
        os.remove(path)
        return
    fs, p = split_fs(path)
    fs.rm_file(p)


def rmtree(path: str, ignore_errors: bool = False) -> None:
    import shutil

    if not is_uri(path):
        shutil.rmtree(path, ignore_errors=ignore_errors)
        return
    fs, p = split_fs(path)
    try:
        fs.rm(p, recursive=True)
    except FileNotFoundError:
        if not ignore_errors:
            raise


def replace(src: str, dst: str) -> None:
    """Rename src over dst (atomic where the FS supports it). Works for
    files and directories; on fsspec backends this is ``mv``.

    URI swap protocol (ADVICE r3): fsspec has no atomic overwrite-rename,
    so the old dst is first MOVED ASIDE to a ``.replaced-*`` staging name
    (not deleted), then src renamed in, then the staging copy removed. A
    crash can leave a window where dst is briefly missing, but never
    loses data: dst survives under the staging name and src is untouched
    until the old dst is out of the way. Callers that need crash-exact
    commit points on URIs (the lake) commit by writing one whole file
    (:func:`_write_atomic`), not by this swap."""
    if not is_uri(src):
        os.replace(src, dst)
        return
    fs, s = split_fs(src)
    _, d = split_fs(dst)
    staged = None
    if fs.exists(d):
        staged = d + f".replaced-{uuid.uuid4().hex[:8]}"
        fs.mv(d, staged, recursive=True)
    fs.mv(s, d, recursive=True)
    if staged is not None:
        fs.rm(staged, recursive=True)


# fsspec protocols with POSIX rename semantics: keep the temp + rename
# commit protocol there (a crash mid-write must never leave a partial
# manifest — ADVICE r3); true object stores get the direct PUT, which is
# atomic per object.
_RENAME_PROTOCOLS = {"file", "local", "memory"}


def _fs_protocol(fs) -> str:
    proto = fs.protocol
    return proto[0] if isinstance(proto, (tuple, list)) else proto


def _write_atomic(path: str, write) -> None:
    """Commit one file written by ``write(f)`` on a binary file: temp +
    rename on filesystems with atomic rename (posix paths, file://,
    memory://), direct object PUT on object stores (single-object PUT is
    atomic). Locally the parent directory is created only when opening
    the temp file finds it missing: most writes go to one that exists."""
    if not is_uri(path):
        import pyarrow as pa

        tmp = path + f".tmp-{uuid.uuid4().hex[:8]}"
        try:
            f = pa.OSFile(tmp, "wb")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            f = pa.OSFile(tmp, "wb")
        with f:
            write(f)
        os.replace(tmp, path)
        return
    fs, p = split_fs(path)
    fs.makedirs(posixpath.dirname(p), exist_ok=True)
    if _fs_protocol(fs) in _RENAME_PROTOCOLS:
        tmp = p + f".tmp-{uuid.uuid4().hex[:8]}"
        with fs.open(tmp, "wb") as f:
            write(f)
        fs.mv(tmp, p)
        return
    with fs.open(p, "wb") as f:
        write(f)


def write_text_atomic(path: str, text: str) -> None:
    """Commit a small text/JSON file, UTF-8 encoded (see
    :func:`_write_atomic`)."""
    _write_atomic(path, lambda f: f.write(text.encode()))


def write_table_atomic(tbl, path: str, **kwargs) -> None:
    """Commit one parquet file (see :func:`_write_atomic`)."""
    import pyarrow.parquet as pq

    kwargs.setdefault("compression", "snappy")
    _write_atomic(path, lambda f: pq.write_table(tbl, f, **kwargs))


# the lake's IPC files are small: LZ4 halves them for about the cost of
# the write, and compressing their buffers one after another is cheaper
# than handing them to a thread pool
_IPC_WRITE = dict(compression="lz4", use_threads=False)


def write_ipc_atomic(tbl, path: str) -> None:
    """Commit one LZ4-compressed Arrow IPC file, schema metadata included
    (see :func:`_write_atomic`)."""
    import pyarrow as pa

    def write(f):
        opts = pa.ipc.IpcWriteOptions(**_IPC_WRITE)
        with pa.ipc.new_file(f, tbl.schema, options=opts) as w:
            w.write_table(tbl)

    _write_atomic(path, write)


def _read(path: str, read):
    """``read(f)`` on ``path`` opened for binary reading: a native file
    locally, the fsspec file over URIs."""
    if not is_uri(path):
        import pyarrow as pa

        with pa.OSFile(path) as f:
            return read(f)
    fs, p = split_fs(path)
    with fs.open(p, "rb") as f:
        return read(f)


def read_table(path: str):
    """One whole parquet file, schema metadata included."""
    import pyarrow.parquet as pq

    return _read(path, lambda f: pq.ParquetFile(f).read())


def read_ipc(path: str):
    """One whole Arrow IPC file, schema metadata included."""
    import pyarrow as pa

    opts = pa.ipc.IpcReadOptions(use_threads=False)
    return _read(path, lambda f: pa.ipc.open_file(f, options=opts).read_all())


def parquet_rows(path: str) -> int:
    """Row count from the parquet footer only (no data pages)."""
    import pyarrow.parquet as pq

    return _read(path, lambda f: pq.ParquetFile(f).metadata.num_rows)
