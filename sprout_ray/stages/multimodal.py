"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Image/audio/video are treated as opaque ``large_binary`` columns with a
metadata struct (media_type, width/height or sample_rate, codec). The Ray
plumbing — schema, stateful-stage signature, small-batch sizing for large
payloads, output layout — is real and tested. Codec status: PPM (P6) and
PCM16 WAV are REAL pure-numpy codecs (encode/decode round-trips
byte-exactly; features come from actual pixel/sample arrays — see
``decode_ppm``/``ppm_features`` and ``decode_wav``/``wav_features``);
PNG/JPEG/compressed audio are STUBBED (no such libraries in this
container): ``DecodeStage`` raises ``NotImplementedError`` for them unless
``fake=True``, which produces a deterministic byte-stat fake decode so
pipelines remain runnable end-to-end.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .agg import stateful_map

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("media_type", pa.string()),  # "image/png", "audio/wav", ...
        ("payload", pa.large_binary()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("sample_rate", pa.int32()),
    ]
)


def synth_media_table(n: int, seed: int = 42, payload_bytes: int = 4096) -> pa.Table:
    """Deterministic fake media rows for plumbing tests."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, payload_bytes, dtype=np.uint8).tobytes() for _ in range(n)]
    types = [("image/png", 64, 64, 0), ("audio/wav", 0, 0, 16000)]
    rows = {
        "media_id": np.arange(n, dtype=np.int64),
        "media_type": [types[i % 2][0] for i in range(n)],
        "payload": payloads,
        "width": np.array([types[i % 2][1] for i in range(n)], np.int32),
        "height": np.array([types[i % 2][2] for i in range(n)], np.int32),
        "sample_rate": np.array([types[i % 2][3] for i in range(n)], np.int32),
    }
    return pa.table(
        {f.name: pa.array(rows[f.name], f.type) for f in MEDIA_SCHEMA}
    )


class DecodeStage:
    """Stateful decode/feature stage over binary payloads.

    Real deployments replace ``_decode`` with PIL/librosa/ffmpeg decode —
    loaded once per worker process in ``__init__`` (``stateful_map``). Use
    small ``batch_size`` (payloads are large) and ``num_cpus`` sized to the
    codec. ``fake=True`` computes deterministic byte statistics instead,
    keeping the full pipeline runnable in this container.
    """

    def __init__(self, fake: bool = False, feature_dim: int = 8):
        self.fake = fake
        self.feature_dim = feature_dim
        # real codec initialization would happen here, once per process

    def _decode(self, payload: bytes, media_type: str) -> np.ndarray:
        if media_type == PPM_TYPE:
            # REAL codec path: pure-numpy P6 decode to pixel arrays, real
            # pixel-space features — no external library needed for PPM
            return ppm_features(decode_ppm(payload), self.feature_dim)
        if media_type == WAV_TYPE:
            # REAL codec path #2: RIFF chunk walk + int16 reinterpret
            samples, rate = decode_wav(payload)
            return wav_features(samples, rate, self.feature_dim)
        if not self.fake:
            raise NotImplementedError(
                "no PNG/JPEG/compressed-audio codecs in this environment; "
                "PPM (image/x-portable-pixmap) and PCM WAV (audio/x-wav) "
                "decode for real; construct with fake=True for the "
                "deterministic byte-stat fake decode"
            )
        arr = np.frombuffer(payload, dtype=np.uint8)
        chunks = np.array_split(arr.astype(np.float64), self.feature_dim)
        return np.array([c.mean() if c.size else 0.0 for c in chunks])

    def __call__(self, batch: pa.Table) -> pa.Table:
        # payloads stay Arrow buffers: each row decodes from a ZERO-COPY
        # memoryview of the binary column's data buffer (to_pylist() would
        # materialize every payload in the batch as python bytes at once —
        # batch_size x payload_size of needless heap); features land in a
        # preallocated matrix instead of a stacked list.
        col = batch["payload"].combine_chunks()
        types = batch["media_type"].to_pylist()
        n = len(types)
        feats = np.empty((n, self.feature_dim), dtype=np.float64)
        for i in range(n):
            feats[i] = self._decode(memoryview(col[i].as_buffer()), types[i])
        out = batch.drop_columns(["payload"])  # payloads don't flow downstream
        return out.append_column(
            "features",
            pa.FixedSizeListArray.from_arrays(
                pa.array(feats.reshape(-1), pa.float64()), self.feature_dim
            ),
        )


def decode_features(ds, fake: bool = True, batch_size: int = 64):
    """Feature extraction over a media dataset (small batches —
    payload_size x batch_size x CPUs must fit the worker heap)."""
    return stateful_map(
        ds, DecodeStage, {"fake": fake}, batch_format="pyarrow", batch_size=batch_size
    )


class ResizeStage:
    """Stateful nearest-neighbor resize over raw grayscale frames.

    The RESAMPLE math is real (integer-grid nearest-neighbor over the
    (height, width) byte array — what a thumbnail stage computes after
    decode); only the codec step is elided because the synthetic payloads
    are already raw. Non-image rows pass through untouched. Output rows
    carry the resized payload and updated width/height metadata, so the
    stage composes with dedup/feature stages downstream."""

    def __init__(self, out_w: int = 32, out_h: int = 32):
        self.out_w = int(out_w)
        self.out_h = int(out_h)

    def _resize(self, payload: bytes, w: int, h: int) -> bytes:
        arr = np.frombuffer(payload, dtype=np.uint8)[: w * h].reshape(h, w)
        rows = (np.arange(self.out_h) * h) // self.out_h
        cols = (np.arange(self.out_w) * w) // self.out_w
        return arr[rows][:, cols].tobytes()

    def __call__(self, batch: pa.Table) -> pa.Table:
        types = batch["media_type"].to_pylist()
        ws = batch["width"].to_pylist()
        hs = batch["height"].to_pylist()
        payloads = batch["payload"].to_pylist()
        out_p, out_w, out_h = [], [], []
        for p, t, w, h in zip(payloads, types, ws, hs):
            if t.startswith("image/") and w > 0 and h > 0:
                out_p.append(self._resize(p, w, h))
                out_w.append(self.out_w)
                out_h.append(self.out_h)
            else:
                out_p.append(p)
                out_w.append(w)
                out_h.append(h)
        batch = batch.set_column(
            batch.schema.get_field_index("payload"),
            "payload",
            pa.array(out_p, pa.large_binary()),
        )
        batch = batch.set_column(
            batch.schema.get_field_index("width"), "width", pa.array(out_w, pa.int32())
        )
        return batch.set_column(
            batch.schema.get_field_index("height"), "height", pa.array(out_h, pa.int32())
        )


def resize_media(ds, out_w: int = 32, out_h: int = 32, batch_size: int = 64):
    """Resize stage (small batches — payload-bound, like decode)."""
    return stateful_map(
        ds,
        ResizeStage,
        {"out_w": out_w, "out_h": out_h},
        batch_format="pyarrow",
        batch_size=batch_size,
    )


VIDEO_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("media_type", pa.string()),
        ("payload", pa.large_binary()),
        ("frame_bytes", pa.int32()),
        ("n_frames", pa.int32()),
    ]
)


def synth_video_table(n: int, seed: int = 42, frame_bytes: int = 1024) -> pa.Table:
    """Deterministic fake raw-video rows: payload = n_frames x frame_bytes."""
    rng = np.random.default_rng(seed)
    n_frames = rng.integers(8, 33, n)
    payloads = [
        rng.integers(0, 256, int(f) * frame_bytes, dtype=np.uint8).tobytes()
        for f in n_frames
    ]
    return pa.table(
        {
            "media_id": pa.array(np.arange(n, dtype=np.int64)),
            "media_type": pa.array(["video/raw"] * n),
            "payload": pa.array(payloads, pa.large_binary()),
            "frame_bytes": pa.array(np.full(n, frame_bytes, np.int32)),
            "n_frames": pa.array(n_frames.astype(np.int32)),
        }
    )


class FrameSampleStage:
    """Stateful uniform frame sampler: each video row EXPANDS to
    ``n_sample`` frame rows (media_id, frame_idx, frame payload) — the
    flat-map shape of a video-pretraining ingest. Frame slicing is real
    byte math (frame i = payload[i*fb : (i+1)*fb]); sampled indices are the
    uniform grid ``(j * n_frames) // n_sample``, deterministic per row."""

    def __init__(self, n_sample: int = 4):
        self.n_sample = int(n_sample)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, idxs, frames = [], [], []
        for mid, p, fb, nf in zip(
            batch["media_id"].to_pylist(),
            batch["payload"].to_pylist(),
            batch["frame_bytes"].to_pylist(),
            batch["n_frames"].to_pylist(),
        ):
            take = (np.arange(self.n_sample) * nf) // self.n_sample
            for j in np.unique(take):
                ids.append(mid)
                idxs.append(int(j))
                frames.append(p[j * fb : (j + 1) * fb])
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "frame_idx": pa.array(idxs, pa.int64()),
                "frame": pa.array(frames, pa.large_binary()),
            }
        )


def sample_frames(ds, n_sample: int = 4, batch_size: int = 32):
    """Uniform frame sampling over a video dataset (row-expanding stage)."""
    return stateful_map(
        ds,
        FrameSampleStage,
        {"n_sample": n_sample},
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def synth_media_with_dups(n: int, dup_every: int = 10, seed: int = 42) -> pa.Table:
    """Media table where every ``dup_every``-th row repeats an earlier
    payload byte-for-byte (planted exact duplicates for dedup tests)."""
    t = synth_media_table(n, seed=seed)
    payloads = t["payload"].to_pylist()
    for i in range(dup_every, n, dup_every):
        payloads[i] = payloads[i - dup_every]
    return t.set_column(
        t.schema.get_field_index("payload"),
        "payload",
        pa.array(payloads, pa.large_binary()),
    )


def media_exact_dedup(ds, id_col: str = "media_id"):
    """Exact dedup over opaque binary payloads: sha256 each payload (digests
    shuffle, payloads don't), keep the first (min id) per digest. The binary
    column never crosses the exchange — the same shape the text dedup uses,
    proving the multimodal plumbing composes with the dedup stages."""
    from ..functions.hashing import add_sha256
    from .dedup import exact_dedup

    hashed = ds.map_batches(
        lambda t: add_sha256(t, column="payload", out="payload_sha").select(
            [id_col, "payload_sha"]
        ),
        batch_format="pyarrow",
        batch_size=64,
    )
    return exact_dedup(hashed, key_col="payload_sha", id_col=id_col)


# --------------------------------------------------------------------------
# Real pure-numpy codec: PPM (P6). No external image library exists in this
# container, but PPM needs none — header parse + raw RGB bytes — so the
# decode path below is a REAL codec, not a fake: encode/decode round-trips
# byte-exactly and DecodeStage extracts features from actual pixel arrays
# for media_type "image/x-portable-pixmap". PNG/JPEG remain explicitly
# NotImplementedError-gated (documented stub).
# --------------------------------------------------------------------------

PPM_TYPE = "image/x-portable-pixmap"


def encode_ppm(arr: np.ndarray) -> bytes:
    """Encode an (h, w, 3) uint8 array as binary PPM (P6, maxval 255)."""
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError("encode_ppm expects (h, w, 3) uint8")
    h, w = arr.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + arr.tobytes()


def decode_ppm(payload) -> np.ndarray:
    """Decode binary PPM (P6) to an (h, w, 3) uint8 array.

    Handles the full header grammar: '#' comments and any whitespace runs
    between the magic, dimensions and maxval; exactly ONE whitespace byte
    separates maxval from the pixel block.

    Accepts ``bytes`` or any buffer (memoryview over an Arrow buffer — the
    zero-copy DecodeStage path): only the small HEADER region is copied to
    bytes for the text parse (doubling until the parse fits, so arbitrary
    comment runs still work); the pixel block is read straight off the
    buffer with np.frombuffer."""
    total = len(payload)
    hdr_len = min(total, 256)
    while True:
        hdr = bytes(payload[:hdr_len]) if not isinstance(payload, bytes) else payload
        try:
            if hdr[:2] != b"P6":
                raise ValueError("not a P6 PPM payload")
            pos, fields = 2, []
            while len(fields) < 3:
                while pos < len(hdr) and hdr[pos : pos + 1].isspace():
                    pos += 1
                if pos >= len(hdr) and len(hdr) < total:
                    raise IndexError  # header straddles the copy; grow
                if hdr[pos : pos + 1] == b"#":  # comment to end of line
                    nl = hdr.index(b"\n", pos)
                    pos = nl + 1
                    continue
                start = pos
                while pos < len(hdr) and not hdr[pos : pos + 1].isspace():
                    pos += 1
                if pos >= len(hdr) and len(hdr) < total:
                    raise IndexError
                fields.append(int(hdr[start:pos]))
            break
        except (IndexError, ValueError):
            if len(hdr) < total and hdr[:2] == b"P6":
                hdr_len = min(hdr_len * 2, total)
                continue
            raise
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"only maxval 255 supported, got {maxval}")
    pos += 1  # the single whitespace after maxval
    n = w * h * 3
    pix = np.frombuffer(payload, dtype=np.uint8, count=n, offset=pos)
    return pix.reshape(h, w, 3)


def synth_ppm_media_table(n: int, seed: int = 42) -> pa.Table:
    """Deterministic REAL PPM images (gradient + per-image noise), varied
    sizes — the payloads decode with any PPM reader, not just ours."""
    rng = np.random.default_rng(seed)
    sizes = [(16, 24), (32, 32), (8, 48)]
    payloads, ws, hs = [], [], []
    for i in range(n):
        h, w = sizes[i % len(sizes)]
        yy, xx = np.mgrid[0:h, 0:w]
        base = ((yy * 255) // max(h - 1, 1)).astype(np.uint8)
        img = np.stack(
            [
                base,
                ((xx * 255) // max(w - 1, 1)).astype(np.uint8),
                rng.integers(0, 256, (h, w), dtype=np.uint8),
            ],
            axis=2,
        )
        payloads.append(encode_ppm(img))
        ws.append(w)
        hs.append(h)
    return pa.table(
        {
            "media_id": pa.array(np.arange(n, dtype=np.int64)),
            "media_type": pa.array([PPM_TYPE] * n),
            "payload": pa.array(payloads, pa.large_binary()),
            "width": pa.array(np.array(ws, np.int32)),
            "height": pa.array(np.array(hs, np.int32)),
            "sample_rate": pa.array(np.zeros(n, np.int32)),
        }
    )


def ppm_features(img: np.ndarray, feature_dim: int = 8) -> np.ndarray:
    """Real pixel-space features from a decoded (h, w, 3) image: height,
    width, per-channel means, luminance std and mean — fixed 8-dim."""
    f = np.zeros(feature_dim, dtype=np.float64)
    luma = (
        0.299 * img[:, :, 0].astype(np.float64)
        + 0.587 * img[:, :, 1].astype(np.float64)
        + 0.114 * img[:, :, 2].astype(np.float64)
    )
    vals = [
        float(img.shape[0]),
        float(img.shape[1]),
        float(img[:, :, 0].mean()),
        float(img[:, :, 1].mean()),
        float(img[:, :, 2].mean()),
        float(luma.mean()),
        float(luma.std()),
        float(img.max()),
    ]
    f[: min(len(vals), feature_dim)] = vals[:feature_dim]
    return f


# --------------------------------------------------------------------------
# Real pure-numpy codec #2: PCM16 WAV (RIFF). Like PPM, WAV needs no audio
# library — a RIFF chunk walk + int16 reinterpret — so the audio decode
# path is REAL for media_type "audio/x-wav".
# --------------------------------------------------------------------------

WAV_TYPE = "audio/x-wav"


def encode_wav(samples: np.ndarray, sample_rate: int) -> bytes:
    """Encode mono int16 samples as a canonical PCM16 WAV file."""
    if samples.dtype != np.int16 or samples.ndim != 1:
        raise ValueError("encode_wav expects 1-D int16 samples")
    data = samples.tobytes()
    byte_rate = sample_rate * 2
    hdr = (
        b"RIFF"
        + (36 + len(data)).to_bytes(4, "little")
        + b"WAVEfmt "
        + (16).to_bytes(4, "little")
        + (1).to_bytes(2, "little")       # PCM
        + (1).to_bytes(2, "little")       # mono
        + sample_rate.to_bytes(4, "little")
        + byte_rate.to_bytes(4, "little")
        + (2).to_bytes(2, "little")       # block align
        + (16).to_bytes(2, "little")      # bits/sample
        + b"data"
        + len(data).to_bytes(4, "little")
    )
    return hdr + data


def decode_wav(payload: bytes) -> tuple:
    """Decode PCM16 mono WAV -> (int16 samples, sample_rate). Walks the
    RIFF chunk list (tolerates extra chunks like LIST before data)."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos, rate, data = 12, None, None
    while pos + 8 <= len(payload):
        cid = payload[pos : pos + 4]
        size = int.from_bytes(payload[pos + 4 : pos + 8], "little")
        body = payload[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = int.from_bytes(body[0:2], "little")
            ch = int.from_bytes(body[2:4], "little")
            bits = int.from_bytes(body[14:16], "little")
            if (fmt, ch, bits) != (1, 1, 16):
                raise ValueError(
                    f"only PCM16 mono supported, got fmt={fmt} ch={ch} bits={bits}"
                )
            rate = int.from_bytes(body[4:8], "little")
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # RIFF chunks are 2-byte aligned
    if rate is None or data is None:
        raise ValueError("missing fmt or data chunk")
    return np.frombuffer(data, dtype="<i2"), rate


def synth_wav_media_table(n: int, seed: int = 42, sample_rate: int = 16000) -> pa.Table:
    """Deterministic REAL WAV payloads: per-row sine + noise PCM16."""
    rng = np.random.default_rng(seed)
    payloads, lens = [], []
    for i in range(n):
        dur = 256 + 128 * (i % 3)
        t = np.arange(dur, dtype=np.float64)
        freq = 220.0 * (1 + (i % 5))
        wave = 12000 * np.sin(2 * np.pi * freq * t / sample_rate)
        wave += rng.normal(0, 500, dur)
        samples = np.clip(wave, -32768, 32767).astype(np.int16)
        payloads.append(encode_wav(samples, sample_rate))
        lens.append(dur)
    return pa.table(
        {
            "media_id": pa.array(np.arange(n, dtype=np.int64)),
            "media_type": pa.array([WAV_TYPE] * n),
            "payload": pa.array(payloads, pa.large_binary()),
            "width": pa.array(np.zeros(n, np.int32)),
            "height": pa.array(np.zeros(n, np.int32)),
            "sample_rate": pa.array(np.full(n, sample_rate, np.int32)),
        }
    )


def wav_features(samples: np.ndarray, rate: int, feature_dim: int = 8) -> np.ndarray:
    """Real signal features from decoded PCM: n_samples, rate, RMS, peak,
    zero-crossing count, mean |x|, first/second half energy ratio."""
    x = samples.astype(np.float64)
    n = x.size
    f = np.zeros(feature_dim, dtype=np.float64)
    if n == 0:
        return f
    half = max(n // 2, 1)
    e1 = float((x[:half] ** 2).sum())
    e2 = float((x[half:] ** 2).sum())
    vals = [
        float(n),
        float(rate),
        float(np.sqrt((x**2).mean())),
        float(np.abs(x).max()),
        float((np.signbit(x[1:]) != np.signbit(x[:-1])).sum()),
        float(np.abs(x).mean()),
        e1 / max(e1 + e2, 1.0),
        e2 / max(e1 + e2, 1.0),
    ]
    f[: min(len(vals), feature_dim)] = vals[:feature_dim]
    return f


# --------------------------------------------------------------------------
# Perceptual image hashing (dHash) over REAL decoded pixels — composes the
# multimodal decode path with the distributed hamming-pair dedup tail
# (stages/dedup.simhash_pairs_distributed). dHash is invariant to uniform
# brightness shifts (strict comparisons are translation-invariant), which
# exact byte dedup cannot see.
# --------------------------------------------------------------------------


def dhash64(img: np.ndarray) -> int:
    """64-bit difference hash: luma -> nearest-neighbor 8x9 grid ->
    row-wise strict comparisons of horizontal neighbors, MSB-first."""
    luma = (
        0.299 * img[:, :, 0].astype(np.float64)
        + 0.587 * img[:, :, 1].astype(np.float64)
        + 0.114 * img[:, :, 2].astype(np.float64)
    )
    h, w = luma.shape
    rows = (np.arange(8) * h) // 8
    cols = (np.arange(9) * w) // 9
    g = luma[rows][:, cols]
    bits = (g[:, 1:] > g[:, :-1]).reshape(-1)
    return int(np.packbits(bits).view(">u8")[0])


class PHashStage:
    """Stateful perceptual-hash stage: decode the PPM payload for real,
    emit (id, simhash) rows that plug directly into the distributed
    SimHash hamming-pair tail. Output hash is int64-viewed uint64 (the
    dedup machinery's convention)."""

    def __init__(self, id_col: str = "media_id"):
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        hashes = np.array(
            [
                dhash64(decode_ppm(p))
                for p in batch["payload"].to_pylist()
            ],
            dtype=np.uint64,
        )
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "simhash": pa.array(hashes.view(np.int64)),
            }
        )


def phash_signature_ds(ds, id_col: str = "media_id", batch_size: int = 64):
    """Perceptual-hash signatures over a PPM media dataset (payload-bound
    small batches)."""
    return stateful_map(
        ds,
        PHashStage,
        {"id_col": id_col},
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def synth_ppm_noise_table(
    n: int, seed: int = 42, dup_every: int = 8, h: int = 24, w: int = 32
) -> pa.Table:
    """Noise-dominated REAL PPM images with planted brightness-shifted
    near-duplicates: every ``dup_every``-th row is the previous base row
    +1 on every channel (base pixels capped at 254 so no clipping) —
    byte-distinct but dHash-identical, the regime perceptual dedup exists
    for."""
    rng = np.random.default_rng(seed)
    payloads = []
    base_imgs: list = []
    for i in range(n):
        if dup_every and i % dup_every == dup_every - 1 and base_imgs:
            img = np.minimum(base_imgs[-1], 254) + 1
        else:
            img = rng.integers(0, 255, (h, w, 3), dtype=np.uint8)
            base_imgs.append(img)
        payloads.append(encode_ppm(img.astype(np.uint8)))
    return pa.table(
        {
            "media_id": pa.array(np.arange(n, dtype=np.int64)),
            "media_type": pa.array([PPM_TYPE] * n),
            "payload": pa.array(payloads, pa.large_binary()),
            "width": pa.array(np.full(n, w, np.int32)),
            "height": pa.array(np.full(n, h, np.int32)),
            "sample_rate": pa.array(np.zeros(n, np.int32)),
        }
    )


# --------------------------------------------------------------------------
# Spectral audio features — REAL numpy DSP over the PCM16 path (no codec
# libs needed: framing + Hann window + np.fft.rfft + HTK mel filterbank).
# The stateful stage caches the filterbank per (rate, geometry) on the
# stage object, decodes payloads with the pure-numpy RIFF codec above, and
# emits fixed-dimension feature vectors; payloads are dropped before any
# shuffle.
# --------------------------------------------------------------------------


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window (the STFT convention)."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_magnitude(samples: np.ndarray, n_fft: int = 256, hop: int = 128) -> np.ndarray:
    """(n_frames, n_fft//2+1) magnitude spectrogram: Hann-windowed full
    frames via one batched ``np.fft.rfft`` (no Python per frame); inputs
    shorter than one frame are zero-padded to a single frame."""
    x = samples.astype(np.float64)
    if x.size < n_fft:
        x = np.pad(x, (0, n_fft - x.size))
    n_frames = 1 + (x.size - n_fft) // hop
    idx = np.arange(n_fft)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = x[idx] * hann_window(n_fft)[None, :]
    return np.abs(np.fft.rfft(frames, axis=1))


def mel_filterbank(
    n_mels: int, n_fft: int, rate: int, fmin: float = 0.0, fmax: float | None = None
) -> np.ndarray:
    """(n_mels, n_fft//2+1) triangular filters on the HTK mel scale
    ``mel(f) = 2595 log10(1 + f/700)`` (public textbook construction)."""
    fmax = fmax if fmax is not None else rate / 2.0

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)

    pts = from_mel(np.linspace(to_mel(fmin), to_mel(fmax), n_mels + 2))
    bins = np.floor((n_fft + 1) * pts / rate).astype(np.int64)
    fb = np.zeros((n_mels, n_fft // 2 + 1), dtype=np.float64)
    for i in range(n_mels):
        left, center, right = bins[i], bins[i + 1], bins[i + 2]
        if center > left:
            fb[i, left:center] = (np.arange(left, center) - left) / (center - left)
        if right > center:
            fb[i, center:right] = (right - np.arange(center, right)) / (right - center)
    return fb


def log_mel_features(
    samples: np.ndarray,
    rate: int,
    n_mels: int = 16,
    n_fft: int = 256,
    hop: int = 128,
    fb: np.ndarray | None = None,
) -> tuple:
    """(features, n_frames, dominant_mel): features = per-band log1p mel
    power mean ++ std (2*n_mels floats); dominant_mel = argmax of the mean
    log energy (ties break to the lowest band, deterministic)."""
    mag = stft_magnitude(samples, n_fft=n_fft, hop=hop)
    if fb is None:
        fb = mel_filterbank(n_mels, n_fft, rate)
    logm = np.log1p((mag**2) @ fb.T)  # (frames, n_mels)
    mean = logm.mean(axis=0)
    return (
        np.concatenate([mean, logm.std(axis=0)]),
        mag.shape[0],
        int(np.argmax(mean)),
    )


class SpectrogramStage:
    """Stateful stage: PCM16 WAV payload -> log-mel spectral features.

    Filterbanks are cached per sample rate on the stage object (built once
    per worker process, not per batch); non-audio rows raise loudly
    (callers filter by media_type first, the DecodeStage convention)."""

    def __init__(self, n_mels: int = 16, n_fft: int = 256, hop: int = 128):
        self.n_mels, self.n_fft, self.hop = n_mels, n_fft, hop
        self._fbs: dict = {}

    def _fb(self, rate: int) -> np.ndarray:
        fb = self._fbs.get(rate)
        if fb is None:
            fb = self._fbs[rate] = mel_filterbank(self.n_mels, self.n_fft, rate)
        return fb

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats, frames, dom, rates = [], [], [], []
        for payload in batch["payload"]:
            samples, rate = decode_wav(
                payload.as_py() if hasattr(payload, "as_py") else payload
            )
            f, n_frames, dominant = log_mel_features(
                samples, rate, n_mels=self.n_mels, n_fft=self.n_fft,
                hop=self.hop, fb=self._fb(rate),
            )
            feats.append(f)
            frames.append(n_frames)
            dom.append(dominant)
            rates.append(rate)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "sample_rate": pa.array(np.array(rates, np.int32)),
                "n_frames": pa.array(np.array(frames, np.int64)),
                "dominant_mel": pa.array(np.array(dom, np.int64)),
                "features": pa.FixedSizeListArray.from_arrays(
                    pa.array(
                        np.concatenate(feats)
                        if feats
                        else np.empty(0, np.float64)
                    ),
                    2 * self.n_mels,
                ),
            }
        )


def audio_spectral_ds(
    ds, n_mels: int = 16, n_fft: int = 256, hop: int = 128, batch_size: int = 64,
):
    """Distributed spectral features over an audio payload Dataset."""
    return stateful_map(
        ds,
        SpectrogramStage,
        {"n_mels": n_mels, "n_fft": n_fft, "hop": hop},
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def synth_wav_dup_table(
    n: int, seed: int = 42, dup_every: int = 8, sample_rate: int = 16000,
    gain: float = 0.8, noise: float = 400.0,
) -> pa.Table:
    """REAL WAV corpus with planted RE-RECORDED near-duplicates: every
    ``dup_every``-th row re-renders the previous base CHORD (three
    distinct FFT-grid frequencies) at a different gain with fresh noise
    — byte- and sample-distinct (exact dedup is blind), but the spectral
    shape is identical, the regime audio fingerprint dedup exists for.
    Chords rather than single tones keep distinct base rows spectrally
    distinct (two of 84 random single tones often share a band)."""
    rng = np.random.default_rng(seed)
    grid = (sample_rate / 256.0) * np.arange(5, 125)  # on the n_fft=256 bin grid
    payloads, base = [], []
    for i in range(n):
        if dup_every and i % dup_every == dup_every - 1 and base:
            freqs, dur = base[-1]
            amp = 12000 * gain
        else:
            freqs = rng.choice(grid, 3, replace=False)
            dur = int(rng.integers(1024, 2048))
            base.append((freqs, dur))
            amp = 12000
        t = np.arange(dur, dtype=np.float64)
        wave = sum(
            (amp / 3.0) * np.sin(2 * np.pi * f * t / sample_rate)
            for f in freqs
        )
        wave = wave + rng.normal(0, noise, dur)
        payloads.append(
            encode_wav(
                np.clip(wave, -32768, 32767).astype(np.int16), sample_rate
            )
        )
    return pa.table(
        {
            "media_id": pa.array(np.arange(n, dtype=np.int64)),
            "media_type": pa.array([WAV_TYPE] * n),
            "payload": pa.array(payloads, pa.large_binary()),
            "width": pa.array(np.zeros(n, np.int32)),
            "height": pa.array(np.zeros(n, np.int32)),
            "sample_rate": pa.array(np.full(n, sample_rate, np.int32)),
        }
    )


def audio_neardup_pairs(ds, threshold: float = 0.9, n_fft: int = 256, hop: int = 128):
    """Audio near-dup: per-payload spectral fingerprint (mean log power
    spectrum over STFT frames, per-vector mean-centered so the shared
    noise floor cancels) -> exact cosine-threshold pair join
    (stages/similarity.exact_cosine_pairs — broadcast matmul, no
    shuffle). The audio twin of media_phash_pairs: gain changes and
    fresh noise leave the centered log spectrum nearly intact
    (re-recorded copies pair at cosine ~0.96+ on the synth corpus while
    distinct chords stay under ~0.65). At corpus scale swap the
    verification-tier pair join for similarity.embedding_near_dup_pairs
    over the same fingerprint column — identical contract, banded-LSH
    blocking."""
    from .similarity import exact_cosine_pairs

    dim = n_fft // 2 + 1

    def fingerprint(batch: pa.Table) -> pa.Table:
        feats = []
        for payload in batch["payload"]:
            samples, _ = decode_wav(
                payload.as_py() if hasattr(payload, "as_py") else payload
            )
            mag = stft_magnitude(
                samples.astype(np.float64), n_fft=n_fft, hop=hop
            )
            f = np.log1p((mag**2).mean(axis=0))
            feats.append(f - f.mean())
        return pa.table(
            {
                "media_id": batch["media_id"],
                "features": pa.FixedSizeListArray.from_arrays(
                    pa.array(
                        np.concatenate(feats)
                        if feats
                        else np.empty(0, np.float64)
                    ),
                    dim,
                ),
            }
        )

    feats = ds.select_columns(["media_id", "payload"]).map_batches(
        fingerprint, batch_format="pyarrow"
    )
    return exact_cosine_pairs(
        feats, threshold=threshold, emb_col="features", id_col="media_id"
    )
