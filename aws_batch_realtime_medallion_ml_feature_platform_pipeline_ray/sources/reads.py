"""Bytes-sized parquet reads.

Ray Data's default read parallelism targets ``~2 x num_cpus`` read tasks
regardless of input size, so a 1.5 MB table is split into 64 micro-blocks
on a 32-CPU node. Every downstream keyed exchange then pays per-task
scheduling on ~200 tiny shuffle tasks — measured ~6 s of pure
coordination per sort at sf0.1 (docs_minhash_pairs: 17 s → 5 s just by
right-sizing the read). Sizing blocks by BYTES is also the correct
100-TB posture: block count grows with data volume (bytes / 64 MB), not
with whatever the driver's CPU count happens to be.

Policy: enough blocks that none exceeds ``LARGE_BLOCK`` compressed bytes
(memory bound; Ray re-splits decoded output at ``target_max_block_size``
anyway), and — when the data is small — up to ``2 x cluster CPUs`` blocks
of at least ``SMALL_BLOCK`` bytes so map stages still parallelize.
"""

from __future__ import annotations

import glob
import os

SMALL_BLOCK = 4 << 20  # min useful block: below this, task overhead wins
LARGE_BLOCK = 64 << 20  # max compressed bytes one read task should own


def _cluster_cpus() -> int:
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", 0)) or (
                os.cpu_count() or 8
            )
    except Exception:
        pass
    return os.cpu_count() or 8


def parquet_files(paths) -> list[tuple[str, int]]:
    """``(path, bytes on disk)`` of every parquet file under ``paths`` (a
    file, a directory searched recursively for ``*.parquet``, or a list of
    either), in the order Ray Data reads them: list order, each directory
    sorted by path. URI entries keep their scheme."""
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    out: list[tuple[str, int]] = []
    for p in paths:
        p = os.fspath(p)
        if "://" in p:  # URI lake roots (state/fsio.py): size via fsspec
            import fsspec

            fs, sp = fsspec.core.url_to_fs(p)
            try:
                if fs.isdir(sp):
                    for f in sorted(fs.glob(sp.rstrip("/") + "/**/*.parquet")):
                        out.append((fs.unstrip_protocol(f), int(fs.info(f).get("size") or 0)))
                elif fs.exists(sp):
                    out.append((p, int(fs.info(sp).get("size") or 0)))
            except Exception:
                pass  # unknown size: the CPU floor decides block count
        elif os.path.isdir(p):
            for f in sorted(glob.iglob(os.path.join(p, "**", "*.parquet"), recursive=True)):
                out.append((f, os.path.getsize(f)))
        elif os.path.exists(p):
            out.append((p, os.path.getsize(p)))
    return out


def _total_bytes(paths) -> int:
    return sum(size for _, size in parquet_files(paths))


def num_blocks_for(total_bytes: int, cpus: int | None = None) -> int:
    cpus = cpus or _cluster_cpus()
    by_large = -(-total_bytes // LARGE_BLOCK)  # floor: keep blocks <= 64 MB
    by_small = -(-total_bytes // SMALL_BLOCK)  # ceil candidate: 4 MB blocks
    return max(1, by_large, min(by_small, 2 * cpus))


def one_block(total_bytes: int) -> bool:
    """The engine's plan rule: True when ``num_blocks_for(total_bytes)`` is
    1, which at any CPU count means at most ``SMALL_BLOCK`` bytes. Such an
    input runs as one Ray task with no keyed exchange: the stream
    (``pipelines/medallion.run_stream``), the daily build and the keyed
    query stages (``stages/keyed.py``, ``graph``, ``skewjoin``) all ask
    here."""
    return total_bytes <= SMALL_BLOCK


def read_parquet_sized(paths, *, columns=None, **kwargs):
    """`ray.data.read_parquet` with ``override_num_blocks`` derived from
    the input's on-disk bytes (see module docstring). Extra kwargs pass
    through; an explicit ``override_num_blocks`` wins."""
    import ray.data as rd

    if "override_num_blocks" not in kwargs:
        nb = num_blocks_for(_total_bytes(paths))
        kwargs["override_num_blocks"] = nb
    # Ray strips the URI scheme only from the FIRST entry of a path list
    # (pyarrow normalize_path then rejects the rest) — resolve the
    # filesystem ourselves and hand Ray scheme-free paths.
    if (
        not isinstance(paths, (str, os.PathLike))
        and "filesystem" not in kwargs
    ):
        plist = [os.fspath(p) for p in paths]
        if plist and any("://" in p for p in plist):
            import fsspec
            import pyarrow.fs as pafs

            # one filesystem serves the whole list — a mixed list would
            # silently resolve every entry against the first entry's fs
            # and read wrong/nonexistent paths (ADVICE r3)
            schemes = {p.split("://", 1)[0] if "://" in p else "<local>"
                       for p in plist}
            if len(schemes) > 1:
                raise ValueError(
                    f"read_parquet_sized: mixed path schemes {sorted(schemes)}"
                    " in one list — pass a single-scheme list or an"
                    " explicit filesystem"
                )
            fs_spec, _ = fsspec.core.url_to_fs(plist[0])
            try:
                pa_fs, _ = pafs.FileSystem.from_uri(plist[0])
            except Exception:  # scheme pyarrow lacks: wrap the fsspec fs
                pa_fs = pafs.PyFileSystem(pafs.FSSpecHandler(fs_spec))
            kwargs["filesystem"] = pa_fs
            # url_to_fs's returned path is the public protocol-stripping
            # surface (vs the private _strip_protocol)
            paths = [fsspec.core.url_to_fs(p)[1] for p in plist]
    return rd.read_parquet(paths, columns=columns, **kwargs)
