"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Decode support is three-tiered:

- ``fake=True`` (default): deterministic digest-derived metadata — the
  harness mode the driver queries run, exercising schema, batching and
  the binary plumbing without any decoding.
- ``fake=False`` with a stdlib-decodable payload: REAL decode via the
  pure-python/numpy codecs in `ops/codecs.py` + `ops/jpeg.py` — PPM /
  24-bit BMP / PNG (zlib inflate, all five filters) / GIF (full LZW) /
  JPEG baseline AND progressive (Annex-K tables, numpy DCT, Huffman,
  successive approximation, 4:2:0, restart markers) images, 16-bit PCM
  WAV audio (PCM 16-bit, IMA ADPCM, G.711 mu-law/A-law), and
  concatenated-P6 streams, multi-frame GIFs or MJPEG (concatenated
  JPEGs) as the video container.  Feature extraction, nearest-neighbor
  resize and frame sampling all run on genuinely decoded
  pixels/samples; the `media_png` / `media_gif` / `media_jpeg` /
  `media_mjpeg` / `media_wav` / `media_ulaw` queries pin encode->decode
  exactness against SQL oracles.
- ``fake=False`` with MP4 (or arithmetic-coded JPEG): raises
  ``NotImplementedError`` — the honest plug-point for PIL/ffmpeg on a
  production image (psychoacoustic / video decoders genuinely need a
  library).

The Ray-side shape is the same in every tier: binary columns ride
through Arrow blocks untouched, decode/feature stages are actor pools
with small batches (large payloads -> keep batch bytes bounded), and
outputs are fixed-width feature columns.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np
import pyarrow as pa

import ray.data

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("media_type", pa.string()),  # image | audio | video
        ("payload", pa.binary()),
        ("mime", pa.string()),
        ("n_bytes", pa.int64()),
    ]
)


def documents_to_media(batch: pa.Table, id_column: str = "doc_id",
                       text_column: str = "text") -> pa.Table:
    """Deterministic fake media table from documents (test/bench harness):
    the text bytes become the opaque payload."""
    ids = batch[id_column].to_pylist()
    texts = batch[text_column].to_pylist()
    types = ["image", "audio", "video"]
    payloads = [(t or "").encode("utf-8") for t in texts]
    return pa.Table.from_pydict(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "media_type": pa.array([types[i % 3] for i in ids], type=pa.string()),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(
                ["application/octet-stream"] * len(ids), type=pa.string()
            ),
            "n_bytes": pa.array([len(p) for p in payloads], type=pa.int64()),
        },
        schema=MEDIA_SCHEMA,
    )


def _doc_digest(text) -> bytes:
    return hashlib.md5((text or "").encode("utf-8")).digest()


def documents_to_png_media(batch: pa.Table) -> pa.Table:
    """Deterministic REAL PNG payloads derived from document-text digests:
    a (1+d4%8) x (1+d3%8) gradient image with channel c at pixel (x, y) =
    (d_c + k_c*x + m_c*y) mod 256, PNG-encoded with filter type
    ``doc_id % 5`` and Adam7 interlacing for odd doc_ids — so the corpus
    exercises every scanline filter AND both interlace methods (both are
    lossless, so one SQL oracle of pure integer arithmetic pins both
    decode paths)."""
    from . import codecs

    ids = batch["doc_id"].to_pylist()
    payloads = []
    for i, t in zip(ids, batch["text"].to_pylist()):
        d = _doc_digest(t)
        w, h = 1 + d[3] % 8, 1 + d[4] % 8
        xx, yy = np.meshgrid(np.arange(w), np.arange(h))
        arr = np.stack(
            [
                (d[0] + 7 * xx + 13 * yy) % 256,
                (d[1] + 11 * xx + 3 * yy) % 256,
                (d[2] + 5 * xx + 17 * yy) % 256,
            ],
            axis=2,
        ).astype(np.uint8)
        payloads.append(
            codecs.encode_png(
                arr, filter_type=int(i) % 5, interlace=int(i) % 2 == 1
            )
        )
    return pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.binary()),
        }
    )


def documents_to_gif_media(batch: pa.Table) -> pa.Table:
    """Deterministic REAL multi-frame GIF payloads (1+d5%3 frames of a
    16-gray-level gradient, value (d0 + 3x + 5y + 7f) mod 16 scaled x17),
    4-pass interlaced for odd doc_ids (interlacing is lossless, so the
    one SQL oracle pins both row orders) — same SQL-mirrorable
    construction as ``documents_to_png_media``."""
    from . import codecs

    ids = batch["doc_id"].to_pylist()
    payloads = []
    for i, t in zip(ids, batch["text"].to_pylist()):
        d = _doc_digest(t)
        w, h, n = 1 + d[3] % 8, 1 + d[4] % 8, 1 + d[5] % 3
        xx, yy = np.meshgrid(np.arange(w), np.arange(h))
        frames = []
        for f in range(n):
            v = ((d[0] + 3 * xx + 5 * yy + 7 * f) % 16 * 17).astype(np.uint8)
            frames.append(np.stack([v, v, v], axis=2))
        payloads.append(codecs.encode_gif(frames, interlace=int(i) % 2 == 1))
    return pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.binary()),
        }
    )


def documents_to_jpeg_media(batch: pa.Table) -> pa.Table:
    """Deterministic REAL baseline-JPEG payloads (``ops/jpeg.py``).

    Each doc becomes an 8*(1+d3%3) x 8*(1+d4%3) image of 8x8-constant
    gray tiles, tile (tx, ty) = (d0 + 11*tx + 23*ty) mod 256 on all three
    channels.  Blockwise-constant gray images are DC-only with zero
    chroma, so the lossy codec round-trips them BYTE-EXACTLY at quality
    90 (DC quant step 3 < 8 => per-pixel error < 0.5 before rounding) —
    which is what lets a SQL oracle mirror the decoded sums of a lossy
    format.  Even doc_ids get baseline payloads (4:2:0 + restart markers:
    the interleaved-MCU + RST decode path); odd doc_ids get PROGRESSIVE
    (SOF2) payloads (spectral selection + successive approximation: the
    multi-scan EOB-run/refinement decode path) — both reconstruct the
    same pixels, so one oracle pins both entropy decoders."""
    from . import jpeg

    ids = batch["doc_id"].to_pylist()
    payloads = []
    for i, t in zip(ids, batch["text"].to_pylist()):
        d = _doc_digest(t)
        tw, th = 1 + d[3] % 3, 1 + d[4] % 3
        tx, ty = np.meshgrid(np.arange(tw), np.arange(th))
        tiles = ((d[0] + 11 * tx + 23 * ty) % 256).astype(np.uint8)
        gray = np.kron(tiles, np.ones((8, 8), dtype=np.uint8))
        arr = np.repeat(gray[:, :, None], 3, axis=2)
        if int(i) % 2:
            payloads.append(
                jpeg.encode_jpeg_progressive(arr, quality=90, subsample="420",
                                             levels=2)
            )
        else:
            payloads.append(
                jpeg.encode_jpeg(arr, quality=90, subsample="420",
                                 restart_interval=2)
            )
    return pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.binary()),
        }
    )


def documents_to_adpcm_media(batch: pa.Table) -> pa.Table:
    """Deterministic REAL IMA-ADPCM WAV payloads (``ops/codecs.py``).

    Each doc becomes 1+d5%4 compression blocks (block_align=12 -> 17
    samples/block) of a per-block CONSTANT amplitude
    ((d1 + 37*b) % 256 - 128) * 13.  A constant block encodes as header
    predictor + all-zero nibbles, and zero nibbles at step 7 decode to
    diff 0 — so the lossy codec round-trips these payloads EXACTLY and
    a SQL oracle can mirror the decoded sample sums."""
    from . import codecs

    ids = batch["doc_id"].to_pylist()
    payloads = []
    for t in batch["text"].to_pylist():
        d = _doc_digest(t)
        nb = 1 + d[5] % 4
        sig = np.concatenate(
            [
                np.full(17, ((d[1] + 37 * b) % 256 - 128) * 13, dtype=np.int16)
                for b in range(nb)
            ]
        )
        payloads.append(codecs.encode_wav_adpcm(sig, 8000, block_align=12))
    return pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.binary()),
        }
    )


def documents_to_ulaw_media(batch: pa.Table) -> pa.Table:
    """Deterministic REAL G.711 mu-law WAV payloads (``ops/codecs.py``,
    format 0x07).

    Each doc becomes 16+d2%32 code BYTES b_i = (d1 + 13*i) mod 256
    wrapped directly in the WAV container; decode is the exact 256-entry
    ITU-T expansion table, so a SQL oracle mirrors the decoded sample
    sums with pure integer arithmetic (no lossy-round-trip argument
    needed — the payload IS the compressed domain)."""
    from . import codecs

    ids = batch["doc_id"].to_pylist()
    payloads = []
    for t in batch["text"].to_pylist():
        d = _doc_digest(t)
        n = 16 + d[2] % 32
        codes = ((d[1] + 13 * np.arange(n)) % 256).astype(np.uint8)
        payloads.append(codecs.wrap_wav_ulaw(codes.tobytes(), 8000))
    return pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.binary()),
        }
    )


def documents_to_alaw_media(batch: pa.Table) -> pa.Table:
    """Deterministic REAL G.711 A-law WAV payloads (``ops/codecs.py``,
    format 0x06 — the European telephony companding variant).

    Each doc becomes 16+d3%32 code BYTES c_i = (d3 + 11*i) mod 256;
    decode is the exact 256-entry ITU-T expansion (XOR 0x55, segment
    shift), so a SQL oracle mirrors decoded sample sums with pure
    integer arithmetic."""
    from . import codecs

    ids = batch["doc_id"].to_pylist()
    payloads = []
    for t in batch["text"].to_pylist():
        d = _doc_digest(t)
        n = 16 + d[3] % 32
        codes = ((d[3] + 11 * np.arange(n)) % 256).astype(np.uint8)
        payloads.append(codecs.wrap_wav_alaw(codes.tobytes(), 8000))
    return pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.binary()),
        }
    )


def documents_to_flac_media(batch: pa.Table) -> pa.Table:
    """Deterministic REAL FLAC payloads (``ops/flac.py``).

    Each doc becomes 64+d2%192 samples s_i = ((d1 + 13*i) % 256 - 128)
    * (1 + d4 % 9) at block_size=64 (so 1-4 frames exercise the frame
    loop); odd-d5 docs encode through the LPC subframe layout.  FLAC is
    LOSSLESS, so an ARBITRARY digest-derived waveform round-trips
    bit-exactly — the SQL oracle mirrors the decoded sample sums with no
    "payload happens to survive the lossy codec" argument needed."""
    from . import flac

    ids = batch["doc_id"].to_pylist()
    payloads = []
    for t in batch["text"].to_pylist():
        d = _doc_digest(t)
        n = 64 + d[2] % 192
        gain = 1 + d[4] % 9
        sig = (((d[1] + 13 * np.arange(n)) % 256 - 128) * gain).astype(np.int16)
        payloads.append(
            flac.encode_flac(sig, 16000, block_size=64, lpc_order1=bool(d[5] % 2))
        )
    return pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.binary()),
        }
    )


def documents_to_mjpeg_media(batch: pa.Table) -> pa.Table:
    """Deterministic REAL MJPEG (concatenated baseline JPEG) payloads.

    Each doc becomes 1+d5%3 frames of the same 8x8-constant-tile shape
    as ``documents_to_jpeg_media`` with a per-frame offset: tile
    (tx, ty) of frame f = (d0 + 11*tx + 23*ty + 31*f) mod 256.  DC-only
    gray frames round-trip the lossy codec byte-exactly at quality 90,
    so the per-frame pixel sums are SQL-mirrorable."""
    from . import codecs

    ids = batch["doc_id"].to_pylist()
    payloads = []
    for t in batch["text"].to_pylist():
        d = _doc_digest(t)
        tw, th, nf = 1 + d[3] % 3, 1 + d[4] % 3, 1 + d[5] % 3
        tx, ty = np.meshgrid(np.arange(tw), np.arange(th))
        frames = []
        for f in range(nf):
            tiles = ((d[0] + 11 * tx + 23 * ty + 31 * f) % 256).astype(np.uint8)
            gray = np.kron(tiles, np.ones((8, 8), dtype=np.uint8))
            frames.append(np.repeat(gray[:, :, None], 3, axis=2))
        payloads.append(codecs.encode_mjpeg(frames, quality=90,
                                            subsample="420"))
    return pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.binary()),
        }
    )


def documents_to_mp4_media(batch: pa.Table) -> pa.Table:
    """Deterministic REAL MP4 payloads (``ops/mp4.py``): one ``sowt``
    (LE PCM) audio track of 64+d1%192 samples
    s_i = ((d2 + 17*i) % 256 - 128) * (1 + d3 % 7), muxed with a
    digest-derived samples_per_chunk (37 + d5 % 53) so the stsc/stco
    chunk walk hits ragged multi-chunk layouts.  PCM-in-MP4 is
    LOSSLESS, so arbitrary waveforms round-trip bit-exactly and the SQL
    oracle mirrors decoded sums in integer arithmetic — the container
    demux (box tree + three-table sample walk) is what this pins."""
    from . import mp4

    ids = batch["doc_id"].to_pylist()
    payloads = []
    for t in batch["text"].to_pylist():
        d = _doc_digest(t)
        n = 64 + d[1] % 192
        gain = 1 + d[3] % 7
        sig = (((d[2] + 17 * np.arange(n)) % 256 - 128) * gain).astype(np.int16)
        payloads.append(
            mp4.encode_mp4_audio(sig, 16000, samples_per_chunk=37 + d[5] % 53)
        )
    return pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.binary()),
        }
    )


def documents_to_mp4v_media(batch: pa.Table) -> pa.Table:
    """Deterministic REAL MP4 VIDEO payloads: an MJPEG ('jpeg' sample
    entry) track of 1+d5%3 DC-only frames, same byte-exact tile
    construction as ``documents_to_mjpeg_media`` (offset 29*f per
    frame) — pins the video-track demux path with the same
    SQL-mirrorable sums."""
    from . import jpeg, mp4

    ids = batch["doc_id"].to_pylist()
    payloads = []
    for t in batch["text"].to_pylist():
        d = _doc_digest(t)
        tw, th, nf = 1 + d[3] % 3, 1 + d[4] % 3, 1 + d[5] % 3
        tx, ty = np.meshgrid(np.arange(tw), np.arange(th))
        frames = []
        for f in range(nf):
            tiles = ((d[0] + 11 * tx + 23 * ty + 29 * f) % 256).astype(np.uint8)
            gray = np.kron(tiles, np.ones((8, 8), dtype=np.uint8))
            rgb = np.repeat(gray[:, :, None], 3, axis=2)
            frames.append(jpeg.encode_jpeg(rgb, quality=90, subsample="420"))
        payloads.append(
            mp4.encode_mp4_mjpeg(frames, fps=10, width=tw * 8, height=th * 8)
        )
    return pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.binary()),
        }
    )


def decode_mp4_frame_sums(batch: pa.Table) -> pa.Table:
    """REAL MP4 video demux + per-frame JPEG decode -> frame count +
    exact gray-channel pixel sum (mirrors ``decode_mjpeg_frame_sums``)."""
    from . import mp4

    n_frames, sums = [], []
    for p in batch["payload"].to_pylist():
        frames = mp4.decode_mp4_frames(bytes(p))
        n_frames.append(len(frames))
        sums.append(
            int(sum(int(f[:, :, 0].astype(np.int64).sum()) for f in frames))
        )
    return pa.table(
        {
            "media_id": batch["media_id"],
            "n_frames": pa.array(n_frames, type=pa.int32()),
            "sum_px": pa.array(sums, type=pa.int64()),
        }
    )


def decode_mjpeg_frame_sums(batch: pa.Table) -> pa.Table:
    """REAL MJPEG decode -> frame count + exact gray-channel pixel sum
    over all frames (mirrors ``decode_gif_frame_sums``)."""
    from . import codecs

    n_frames, sums = [], []
    for p in batch["payload"].to_pylist():
        frames = codecs.decode_mjpeg_frames(bytes(p))
        n_frames.append(len(frames))
        sums.append(
            int(sum(int(f[:, :, 0].astype(np.int64).sum()) for f in frames))
        )
    return pa.table(
        {
            "media_id": batch["media_id"],
            "n_frames": pa.array(n_frames, type=pa.int32()),
            "sum_px": pa.array(sums, type=pa.int64()),
        }
    )


def decode_audio_sums(batch: pa.Table) -> pa.Table:
    """REAL audio decode -> exact integer sample count + amplitude sum
    (the SQL-mirrorable reduction used by the correctness oracles)."""
    from . import codecs

    rates, counts, sums = [], [], []
    for p in batch["payload"].to_pylist():
        rate, samples = codecs.decode_audio(bytes(p))
        rates.append(rate)
        counts.append(len(samples))
        sums.append(int(samples.astype(np.int64).sum()))
    return pa.table(
        {
            "media_id": batch["media_id"],
            "rate": pa.array(rates, type=pa.int32()),
            "n_samples": pa.array(counts, type=pa.int64()),
            "sum_amp": pa.array(sums, type=pa.int64()),
        }
    )


def decode_image_sums(batch: pa.Table) -> pa.Table:
    """REAL image decode -> exact integer per-channel pixel sums (the
    SQL-mirrorable feature reduction used by the correctness oracles)."""
    from . import codecs

    widths, heights, sr, sg, sb = [], [], [], [], []
    for p in batch["payload"].to_pylist():
        arr = codecs.decode_image(bytes(p))
        heights.append(arr.shape[0])
        widths.append(arr.shape[1])
        s = arr.reshape(-1, 3).astype(np.int64).sum(axis=0)
        sr.append(int(s[0]))
        sg.append(int(s[1]))
        sb.append(int(s[2]))
    return pa.table(
        {
            "media_id": batch["media_id"],
            "width": pa.array(widths, type=pa.int32()),
            "height": pa.array(heights, type=pa.int32()),
            "sum_r": pa.array(sr, type=pa.int64()),
            "sum_g": pa.array(sg, type=pa.int64()),
            "sum_b": pa.array(sb, type=pa.int64()),
        }
    )


def decode_gif_frame_sums(batch: pa.Table) -> pa.Table:
    """REAL GIF decode -> frame count + exact gray-channel pixel sum over
    all frames."""
    from . import codecs

    n_frames, sums = [], []
    for p in batch["payload"].to_pylist():
        frames = codecs.decode_gif_frames(bytes(p))
        n_frames.append(len(frames))
        sums.append(
            int(sum(int(f[:, :, 0].astype(np.int64).sum()) for f in frames))
        )
    return pa.table(
        {
            "media_id": batch["media_id"],
            "n_frames": pa.array(n_frames, type=pa.int32()),
            "sum_px": pa.array(sums, type=pa.int64()),
        }
    )


class MediaFeatureActor:
    """Actor-pool stage: decode + feature-extract one batch of payloads.

    Real decoders (PIL / libsndfile / ffmpeg) are unavailable here; with
    ``fake=True`` (default) features are a deterministic digest-based
    16-float vector plus fake width/height/duration, so schema, batching and
    determinism are fully exercised.  With ``fake=False`` the stub raises.
    """

    FEATURE_DIM = 16

    def __init__(self, fake: bool = True):
        self.fake = fake

    def _decode(self, payload: bytes, media_type: str):
        if not self.fake:
            return self._decode_real(payload, media_type)
        digest = hashlib.md5(payload).digest()
        w = 1 + digest[0] % 64
        h = 1 + digest[1] % 64
        dur = round((digest[2] % 1000) / 10.0, 1)
        feats = np.frombuffer(digest, dtype=np.uint8).astype(np.float64)
        feats = np.concatenate([feats, feats])[: self.FEATURE_DIM] / 255.0
        return w, h, dur, feats

    @staticmethod
    def _image_features(arr) -> "np.ndarray":
        """16 floats: mean R/G/B, gray std (all /255), 12-bin gray hist."""
        gray = arr.astype(np.float64).mean(axis=2)
        hist = np.histogram(gray, bins=12, range=(0.0, 255.0))[0]
        return np.concatenate(
            [
                arr.reshape(-1, 3).mean(axis=0) / 255.0,
                [gray.std() / 255.0],
                hist / max(1, gray.size),
            ]
        )

    def _decode_real(self, payload: bytes, media_type: str):
        """Real decode via `ops/codecs.py` + `ops/jpeg.py` + `ops/flac.py`
        (PPM/BMP/PNG/GIF/JPEG images incl. progressive; PCM/ADPCM/G.711
        WAV + FLAC audio; PPM-stream, multi-frame GIF or MJPEG video);
        MP3 / MP4 raise NotImplementedError — plug PIL/ffmpeg there on a
        production image."""
        from . import codecs

        kind = codecs.sniff(payload)
        if media_type == "video" and kind in ("ppm", "gif", "jpeg"):
            frames = (
                codecs.decode_ppm_stream(payload)
                if kind == "ppm"
                else codecs.decode_gif_frames(payload)
                if kind == "gif"
                else codecs.decode_mjpeg_frames(payload)
            )
            dur = len(frames) / 24.0  # nominal 24 fps
            first = frames[0]
            return first.shape[1], first.shape[0], dur, self._image_features(first)
        if kind in ("ppm", "bmp", "png", "gif", "jpeg"):
            arr = codecs.decode_image(payload)
            return arr.shape[1], arr.shape[0], None, self._image_features(arr)
        if kind in ("wav", "flac"):
            rate, samples = codecs.decode_audio(payload)
            x = samples.astype(np.float64) / 32768.0
            zcr = float(np.mean(np.signbit(x[1:]) != np.signbit(x[:-1]))) if len(x) > 1 else 0.0
            hist = np.histogram(np.abs(x), bins=13, range=(0.0, 1.0))[0]
            feats = np.concatenate(
                [[np.abs(x).mean(), x.std(), zcr], hist / max(1, x.size)]
            )
            return None, None, len(x) / rate, feats
        raise NotImplementedError(
            f"compressed/unknown payload (magic {payload[:4]!r}); supported "
            "real decoders: PPM, BMP, PNG, GIF, JPEG (baseline + "
            "progressive), WAV, FLAC, PPM-stream, GIF-video — plug "
            "PIL/ffmpeg for MP3/MP4"
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths: List[Optional[int]] = []
        heights: List[Optional[int]] = []
        durations: List[Optional[float]] = []
        features: List[list] = []
        for payload, mtype in zip(
            batch["payload"].to_pylist(), batch["media_type"].to_pylist()
        ):
            w, h, dur, feats = self._decode(payload or b"", mtype)
            widths.append(w if mtype == "image" else None)
            heights.append(h if mtype == "image" else None)
            durations.append(dur if mtype in ("audio", "video") else None)
            features.append(np.round(feats, 6).tolist())
        out = batch.drop_columns(["payload"])  # features replace the payload
        out = out.append_column("width", pa.array(widths, type=pa.int32()))
        out = out.append_column("height", pa.array(heights, type=pa.int32()))
        out = out.append_column("duration_s", pa.array(durations, type=pa.float64()))
        out = out.append_column(
            "features", pa.array(features, type=pa.list_(pa.float64()))
        )
        return out


class MediaResizeActor:
    """Image resize stage (STUB decode; deterministic fake keeps the
    payload plumbing honest: output payload is a digest-derived byte string
    of the target size's magnitude, metadata updated)."""

    def __init__(self, width: int = 32, height: int = 32, fake: bool = True):
        self.width = width
        self.height = height
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = []
        if not self.fake:
            from . import codecs

            encoders = {
                "ppm": codecs.encode_ppm,
                "bmp": codecs.encode_bmp,
                "png": codecs.encode_png,
                "gif": lambda a: codecs.encode_gif([a]),
            }
            for p in batch["payload"].to_pylist():
                arr = codecs.decode_image(p or b"")
                small = codecs.nn_resize(arr, self.width, self.height)
                # re-encode in the source container
                payloads.append(encoders[codecs.sniff(p)](small))
        else:
            for p in batch["payload"].to_pylist():
                digest = hashlib.md5(p or b"").digest()
                payloads.append((digest * ((self.width * self.height) // 16 + 1))[: self.width * self.height])
        out = batch.set_column(
            batch.schema.get_field_index("payload"),
            pa.field("payload", pa.binary()),
            pa.array(payloads, type=pa.binary()),
        )
        out = out.append_column("width", pa.array([self.width] * len(payloads), type=pa.int32()))
        out = out.append_column("height", pa.array([self.height] * len(payloads), type=pa.int32()))
        return out


class FrameSampleActor:
    """Video frame sampling stage (STUB decode): emits ``n_frames`` rows per
    video payload — the fan-out shape (one row per sampled frame with a
    frame_idx) is the real contract; frame bytes are digest-derived fakes."""

    def __init__(self, n_frames: int = 4, fake: bool = True):
        self.n_frames = n_frames
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"media_id": [], "frame_idx": [], "frame": []}
        for mid, p, mtype in zip(
            batch["media_id"].to_pylist(),
            batch["payload"].to_pylist(),
            batch["media_type"].to_pylist(),
        ):
            if mtype != "video":
                continue
            if not self.fake:
                from . import codecs

                kind = codecs.sniff(p or b"")
                if kind == "gif":
                    frames = codecs.decode_gif_frames(p or b"")
                    enc = lambda a: codecs.encode_gif([a])  # noqa: E731
                elif kind == "jpeg":
                    frames = codecs.decode_mjpeg_frames(p or b"")
                    enc = lambda a: codecs.encode_mjpeg([a])  # noqa: E731
                else:
                    frames = codecs.decode_ppm_stream(p or b"")
                    enc = codecs.encode_ppm
                picks = np.unique(
                    np.linspace(0, len(frames) - 1, min(self.n_frames, len(frames)))
                    .round()
                    .astype(np.int64)
                )
                for f in picks:
                    out["media_id"].append(mid)
                    out["frame_idx"].append(int(f))
                    out["frame"].append(enc(frames[f]))
                continue
            for f in range(self.n_frames):
                out["media_id"].append(mid)
                out["frame_idx"].append(f)
                out["frame"].append(hashlib.md5((p or b"") + bytes([f])).digest())
        return pa.Table.from_pydict(
            {
                "media_id": pa.array(out["media_id"], type=pa.int64()),
                "frame_idx": pa.array(out["frame_idx"], type=pa.int32()),
                "frame": pa.array(out["frame"], type=pa.binary()),
            }
        )


def resize_images(ds: "ray.data.Dataset", width=32, height=32, fake: bool = True,
                  batch_size: int = 256, concurrency=2) -> "ray.data.Dataset":
    return ds.map_batches(
        MediaResizeActor,
        fn_constructor_kwargs={"width": width, "height": height, "fake": fake},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def sample_frames(ds: "ray.data.Dataset", n_frames=4, fake: bool = True,
                  batch_size: int = 256, concurrency=2) -> "ray.data.Dataset":
    return ds.map_batches(
        FrameSampleActor,
        fn_constructor_kwargs={"n_frames": n_frames, "fake": fake},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def extract_media_features(
    ds: "ray.data.Dataset", fake: bool = True, batch_size: int = 256, concurrency=2
) -> "ray.data.Dataset":
    """Media table -> feature table. Small batch_size on purpose: payload
    bytes x batch x concurrency must fit the worker heap — large binary
    columns need small batches or the actor pool's resident set outgrows
    its node."""
    return ds.map_batches(
        MediaFeatureActor,
        fn_constructor_kwargs={"fake": fake},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
