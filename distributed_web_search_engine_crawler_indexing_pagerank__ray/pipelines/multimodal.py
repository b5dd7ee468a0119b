"""Multimodal column pipelines (task-spec addition).

Image/audio/video payloads are opaque ``binary`` columns with typed
metadata; decode / feature-extract / resize / frame-sample are
callable stage classes whose instances run as task ``map_batches``
stages (their setup is microseconds, far below an actor pool's
start-up).  The actual codecs are NOT available in this
environment (no PIL/ffmpeg), so the decode kernel is a clearly-marked
deterministic fake behind the same interface — the Ray-side plumbing
(schema, batch sizing for large binary rows, callable signature,
output layout) is real and tested, and swapping in a real decoder is a
one-function change per stage.

Source of media rows: the crawl output's interleaved ``spans`` — every
``kind="media"`` span becomes a media row whose synthetic payload is
derived from its ``media_ref`` (deterministic; stands in for a fetched
asset body).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray
import ray.data

MEDIA_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),  # owning page url_hash
        ("media_ref", pa.string()),
        ("media_type", pa.string()),  # image | audio | video | other
        ("payload", pa.binary()),  # opaque bytes (synthetic here)
        ("payload_len", pa.int32()),
    ]
)

FEATURE_DIM = 32


def _media_type(ref: str) -> str:
    r = ref.lower()
    if r.endswith((".png", ".jpg", ".jpeg", ".gif", ".svg", ".webp")):
        return "image"
    if r.endswith((".mp3", ".wav")):
        return "audio"
    if r.endswith((".mp4", ".mov", ".webm")):
        return "video"
    return "other"


def _synthetic_payload(ref: str, size: int = 2048) -> bytes:
    """Deterministic opaque bytes for a media_ref (stands in for the
    fetched asset body; a real crawler would store the response)."""
    seed = hashlib.sha256(ref.encode()).digest()
    reps = size // len(seed) + 1
    return (seed * reps)[:size]


def media_rows_from_spans(batch: pa.Table) -> pa.Table:
    """pages(spans) → one row per ``kind='media'`` span."""
    doc_ids, refs, types, payloads, lens = [], [], [], [], []
    for url_hash, spans in zip(
        batch["url_hash"].to_pylist(), batch["spans"].to_pylist()
    ):
        for s in spans or []:
            if s["kind"] != "media":
                continue
            ref = s["media_ref"]
            payload = _synthetic_payload(ref)
            doc_ids.append(url_hash)
            refs.append(ref)
            types.append(_media_type(ref))
            payloads.append(payload)
            lens.append(len(payload))
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.string()),
            "media_ref": pa.array(refs, pa.string()),
            "media_type": pa.array(types, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "payload_len": pa.array(lens, pa.int32()),
        }
    )


def decode_image(payload: bytes) -> "np.ndarray":
    """STUB — deterministic fake decoder.

    A real implementation would be ``PIL.Image.open(BytesIO(payload))``;
    the image/audio libraries are not available in this container, so
    this derives a fixed-size uint8 'pixel' array from the payload
    bytes.  Raises on empty payloads like a real decoder would.
    """
    if not payload:
        raise ValueError("cannot decode empty payload")
    arr = np.frombuffer(payload, dtype=np.uint8)
    side = 16
    need = side * side
    reps = need // len(arr) + 1
    return np.tile(arr, reps)[:need].reshape(side, side)


class MediaFeatureExtractor:
    """Map stage: decode + feature-extract per media row.

    Setup (the 'model load') happens once per instance in ``__init__``;
    batches are kept small because binary payload rows are wide
    (ray_guide 'Memory-aware').  Output: FEATURE_DIM float features +
    basic stats per row.
    """

    def __init__(self, feature_dim: int = FEATURE_DIM):
        # stand-in for model load: a fixed random projection, seeded
        rng = np.random.default_rng(42)
        self.proj = rng.standard_normal((256, feature_dim))

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats, means, fails = [], [], []
        for payload in batch["payload"].to_pylist():
            try:
                img = decode_image(payload)
                hist = np.bincount(img.ravel(), minlength=256).astype(np.float64)
                hist /= max(1.0, hist.sum())
                feats.append(np.round(hist @ self.proj, 6).tolist())
                means.append(round(float(img.mean()), 4))
                fails.append(False)
            except ValueError:
                feats.append([0.0] * self.proj.shape[1])
                means.append(0.0)
                fails.append(True)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "media_ref": batch["media_ref"],
                "media_type": batch["media_type"],
                "features": pa.array(feats, pa.list_(pa.float64())),
                "mean_intensity": pa.array(means, pa.float64()),
                "decode_failed": pa.array(fails, pa.bool_()),
            }
        )


class ImageResizer:
    """Map stage: decode + resize image rows to a fixed target.

    The resize kernel is block-mean downsampling over the (fake-)
    decoded pixel array — a real implementation swaps in
    ``PIL.Image.resize`` on the same interface.  Output keeps the
    opaque-binary convention: resized pixels re-encoded as raw bytes
    plus (height, width) metadata columns, so downstream stages can
    treat resized rows exactly like fetched ones."""

    def __init__(self, target: tuple[int, int] = (8, 8)):
        self.target = target  # set once per instance (the 'model load')

    def __call__(self, batch: pa.Table) -> pa.Table:
        th, tw = self.target
        payloads, hs, ws, fails = [], [], [], []
        for payload in batch["payload"].to_pylist():
            try:
                img = decode_image(payload)
                h, w = img.shape
                # block-mean resize (h, w) → (th, tw); exact for the
                # integer-divisible stub geometry, area-interp otherwise
                ys = (np.arange(th + 1) * h) // th
                xs = (np.arange(tw + 1) * w) // tw
                out = np.empty((th, tw), dtype=np.uint8)
                for i in range(th):
                    for j in range(tw):
                        out[i, j] = int(
                            img[ys[i]:max(ys[i] + 1, ys[i + 1]),
                                xs[j]:max(xs[j] + 1, xs[j + 1])].mean()
                        )
                payloads.append(out.tobytes())
                hs.append(th)
                ws.append(tw)
                fails.append(False)
            except ValueError:
                payloads.append(b"")
                hs.append(0)
                ws.append(0)
                fails.append(True)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "media_ref": batch["media_ref"],
                "payload": pa.array(payloads, pa.binary()),
                "height": pa.array(hs, pa.int32()),
                "width": pa.array(ws, pa.int32()),
                "decode_failed": pa.array(fails, pa.bool_()),
            }
        )


class FrameSampler:
    """Map stage for video rows: deterministic frame sampling
    (STUB decode — emits frame indices + per-frame fake features)."""

    def __init__(self, n_frames: int = 4):
        self.n_frames = n_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, refs, idxs, feats = [], [], [], []
        for doc_id, ref, payload in zip(
            batch["doc_id"].to_pylist(),
            batch["media_ref"].to_pylist(),
            batch["payload"].to_pylist(),
        ):
            arr = np.frombuffer(payload or b"\0", dtype=np.uint8)
            for f in range(self.n_frames):
                start = (f * len(arr)) // self.n_frames
                doc_ids.append(doc_id)
                refs.append(ref)
                idxs.append(f)
                feats.append(round(float(arr[start:start + 64].mean()), 4))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.string()),
                "media_ref": pa.array(refs, pa.string()),
                "frame_idx": pa.array(idxs, pa.int32()),
                "frame_feature": pa.array(feats, pa.float64()),
            }
        )


def q_media_features(sf_dir: str) -> pa.Table:
    """Crawl → media spans → feature extraction (task stage).
    Rows-only driver check; plumbing tested in tests/test_multimodal.py."""
    from .search_pipeline import crawl_corpus

    pages, _ = crawl_corpus(sf_dir)
    ds = ray.data.from_arrow(pages.select(["url_hash", "spans"]))
    media = ds.map_batches(media_rows_from_spans, batch_format="pyarrow")
    out = media.map_batches(
        MediaFeatureExtractor(),
        batch_format="pyarrow",
        batch_size=64,  # wide binary rows → small batches
    )
    parts = list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    if not parts:
        return pa.table(
            {
                "doc_id": pa.array([], pa.string()),
                "media_ref": pa.array([], pa.string()),
                "media_type": pa.array([], pa.string()),
                "features": pa.array([], pa.list_(pa.float64())),
                "mean_intensity": pa.array([], pa.float64()),
                "decode_failed": pa.array([], pa.bool_()),
            }
        )
    tbl = pa.concat_tables(parts)
    # driver-friendly projection (list column → summary scalar)
    return pa.table(
        {
            "doc_id": tbl["doc_id"],
            "media_ref": tbl["media_ref"],
            "media_type": tbl["media_type"],
            "mean_intensity": tbl["mean_intensity"],
            "decode_failed": tbl["decode_failed"],
        }
    )
