"""Multimodal plumbing: binary payload columns through an actor-pool
decode stage; checksums vs a pure-Python reference; batch-size
independence; the real-decoder factory binds PIL/soundfile when present
and falls back to the vendored pure-stdlib PNG/WAV codecs otherwise."""

import numpy as np
import pytest

from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.multimodal import (
    FakeDecoder,
    MediaFeaturizer,
    decode_real,
    media_from_documents,
    media_pipeline,
)

SF = "/root/testdata/sf0.001"


def test_decode_real_always_returns_a_codec():
    # PIL is absent in this container -> pure-stdlib PNG fallback
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.purecodec import (
        PurePNGDecoder,
        PureWAVDecoder,
    )

    assert hasattr(decode_real("image"), "checksum_ranges")
    assert hasattr(decode_real("audio"), "checksum_ranges")
    try:
        import PIL  # noqa: F401
    except ImportError:
        assert isinstance(decode_real("image"), PurePNGDecoder)
        assert isinstance(decode_real("audio"), PureWAVDecoder)


def test_featurizer_checksums_match_python(ray_session):
    import pyarrow as pa

    texts = ["hello", "", "héllo wörld", "x" * 5000, "abc"]
    import pyarrow as pa

    docs = pa.table({"doc_id": pa.array(range(5), pa.int64()),
                     "text": pa.array(texts, pa.string())})
    media = media_from_documents(docs)
    out = MediaFeaturizer()(media).to_pandas().set_index("doc_id")
    for i, t in enumerate(texts):
        raw = t.encode("utf-8")
        assert out.loc[i, "payload_checksum"] == sum(raw)
        assert out.loc[i, "header_checksum"] == sum(raw[:8])
        assert out.loc[i, "n_bytes"] == len(raw)


def test_real_featurizer_rejects_unknown_kind():
    """A kind with no decoder fails loudly instead of emitting checksum 0."""
    import pyarrow as pa

    docs = pa.table({"doc_id": pa.array(range(3), pa.int64()),
                     "text": pa.array(["a", "bb", "ccc"], pa.string())})
    media = media_from_documents(docs)
    media = media.set_column(
        media.schema.get_field_index("kind"), "kind",
        pa.array(["image", "video", "audio"], pa.string()),
    )
    with pytest.raises(ValueError, match="video"):
        MediaFeaturizer(use_real_decoder=True)(media)


def test_media_pipeline_batch_size_invariance(ray_session):
    a = (
        media_pipeline(SF, concurrency=2, batch_size=16)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    b = (
        media_pipeline(SF, concurrency=1, batch_size=499)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert a.equals(b)
    assert len(a) == 500
    assert set(a["kind"]) == {"image", "audio"}
    assert (a["payload_checksum"] >= 0).all()


def test_media_schema(ray_session):
    import ray.data as rd
    import pyarrow as pa

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    media = docs.map_batches(media_from_documents, batch_format="pyarrow")
    sch = media.schema()
    types = dict(zip(sch.names, sch.types))
    assert types["payload"] == pa.binary()
    assert types["n_bytes"] == pa.int64()


def test_media_resize_payload_matches_reference(ray_session):
    """MediaResizer's strided byte subsample + checksum vs a pure-Python
    reference, including the oracle-covered dims/byte counts."""
    import numpy as np
    import pyarrow as pa
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.multimodal import (
        MediaResizer,
        RESIZE_TARGET,
        media_from_documents,
    )

    texts = ["x" * n for n in (0, 1, 7, 64, 500, 3000)] + ["abcdefgh" * 123]
    batch = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    media = media_from_documents(batch)
    out = MediaResizer()(media)
    for i, t in enumerate(texts):
        raw = t.encode()
        w = 64 + len(t) % 576
        h = 64 + (len(t) * 7) % 416
        step = max((max(w, h) + RESIZE_TARGET - 1) // RESIZE_TARGET, 1)
        ref = raw[::step]
        assert out["out_w"][i].as_py() == -(-w // step)
        assert out["out_h"][i].as_py() == -(-h // step)
        assert out["resized_bytes"][i].as_py() == len(ref)
        assert out["resized_payload"][i].as_py() == ref
        assert out["resized_checksum"][i].as_py() == sum(ref)


def test_frame_sampler_matches_python(ray_session):
    import pyarrow as pa

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.multimodal import (
        FRAME_BYTES,
        MediaFrameSampler,
    )

    texts = ["hello", "", "é" * 3000, "x" * (FRAME_BYTES * 3), "abc" * 900]
    import pyarrow as pa

    docs = pa.table({"doc_id": pa.array(range(5), pa.int64()),
                     "text": pa.array(texts, pa.string())})
    media = media_from_documents(docs)
    out = MediaFrameSampler(stride=2)(media).to_pandas()
    # pure-Python reference: explode each payload into stride-sampled frames
    want = []
    for i, t in enumerate(texts):
        raw = t.encode("utf-8")
        est = len(raw) // FRAME_BYTES + 1
        for f in range(0, est, 2):
            seg = raw[f * FRAME_BYTES:(f + 1) * FRAME_BYTES]
            want.append((i, f, f * FRAME_BYTES, len(seg), sum(seg)))
    got = list(
        out[["doc_id", "frame_idx", "frame_off", "frame_bytes", "frame_checksum"]]
        .sort_values(["doc_id", "frame_idx"])
        .itertuples(index=False, name=None)
    )
    assert got == sorted(want)


# ---------------------------------------------------------------------------
# decode_real optional-dependency adapter (VERDICT r2 §next-7)
# ---------------------------------------------------------------------------


def test_decode_real_rejects_unknown_kind():
    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages.multimodal import (
        decode_real,
    )

    with pytest.raises(ValueError):
        decode_real("video3d")


class _FakePILImage:
    """Minimal PIL.Image stand-in: open() parses our toy 'format' —
    payload bytes ARE the pixel values."""

    class _Im:
        def __init__(self, buf):
            self._px = np.frombuffer(buf, dtype=np.uint8)

        def __array__(self, dtype=None, copy=None):
            a = self._px.reshape(1, -1)
            return a.astype(dtype) if dtype else a

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    @staticmethod
    def open(fp):
        return _FakePILImage._Im(fp.read())


def test_decode_real_binds_pil_when_present(monkeypatch):
    """With a PIL module importable, decode_real returns the adapter and
    MediaFeaturizer(use_real_decoder=True) runs the identical plumbing
    with it (checksum = decoded-pixel sum == byte sum for the toy
    format, matching FakeDecoder bit-for-bit)."""
    import sys
    import types

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages import (
        multimodal as MM,
    )

    pil = types.ModuleType("PIL")
    pil.Image = _FakePILImage
    monkeypatch.setitem(sys.modules, "PIL", pil)
    monkeypatch.setitem(sys.modules, "PIL.Image", _FakePILImage)
    sf = types.ModuleType("soundfile")
    sf.read = lambda fp: (
        np.frombuffer(fp.read(), dtype=np.uint8).astype(np.float64) / 32767.0,
        16000,
    )
    monkeypatch.setitem(sys.modules, "soundfile", sf)

    dec = MM.decode_real("image")
    assert isinstance(dec, MM.PILImageDecoder)
    payloads = [b"abc", b"", b"\x01\x02\xff"]
    data = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    offsets = np.cumsum([0] + [len(p) for p in payloads]).astype(np.int64)
    got = dec.checksum(data, offsets)
    exp = np.array([sum(b"abc"), 0, 0x01 + 0x02 + 0xFF], dtype=np.int64)
    assert np.array_equal(got, exp)
    # same interface the fake decoder exposes -> featurizer parity
    fake = MM.FakeDecoder("image").checksum(data, offsets)
    assert np.array_equal(got, fake)

    import pyarrow as pa

    docs = pa.table(
        {
            "doc_id": pa.array([0, 2, 4], pa.int64()),
            "text": pa.array(["abc", "", "xy"], pa.string()),
        }
    )
    media = MM.media_from_documents(docs)
    out_real = MM.MediaFeaturizer(use_real_decoder=True)(media)
    out_fake = MM.MediaFeaturizer(use_real_decoder=False)(media)
    assert out_real.equals(out_fake)


def test_decode_real_audio_adapter(monkeypatch):
    """The soundfile adapter decodes per item and checksums quantized
    samples."""
    import sys
    import types

    from aws_batch_realtime_medallion_ml_feature_platform_pipeline_ray.stages import (
        multimodal as MM,
    )

    sf = types.ModuleType("soundfile")

    def _read(fp):
        raw = np.frombuffer(fp.read(), dtype=np.uint8)
        return raw.astype(np.float64) / 32767.0, 16000

    sf.read = _read
    monkeypatch.setitem(sys.modules, "soundfile", sf)
    dec = MM.decode_real("audio")
    assert isinstance(dec, MM.SoundfileAudioDecoder)
    payloads = [b"\x10\x20", b""]
    data = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    offsets = np.array([0, 2, 2], dtype=np.int64)
    got = dec.checksum(data, offsets)
    assert np.array_equal(got, np.array([0x10 + 0x20, 0], dtype=np.int64))
