#!/usr/bin/env python3
"""Regenerates the checked-in seed corpora under tests/fuzz_corpora/.

Each fuzz target's corpus seeds the mutator (replayers and libFuzzer both
start from these files), so the seeds aim for *shape coverage*: valid inputs
that reach deep into each decoder, plus the frozen reproducers of every bug
the fuzzers have found (regression-*.bin — regenerated here so the byte
layout is documented executable code, not an opaque blob).

Container framing mirrors src/common/serialize.cpp: "LACABIN\0" magic, u32
version, u8 kind, u64 payload size, payload, u32 CRC-32 (IEEE — python's
zlib.crc32 matches laca::Crc32). Harness input framing (the leading mode
byte of the file-backed targets) is documented in each tools/fuzz/fuzz_*.cpp.

Usage: python3 tools/fuzz/make_seed_corpora.py  (from anywhere; writes
relative to the repository root, wiping each corpus directory first is NOT
done — existing minimized entries are preserved, same-named files are
overwritten deterministically).
"""

import os
import struct
import zlib

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CORPORA = os.path.join(ROOT, "tests", "fuzz_corpora")

MAGIC = b"LACABIN\0"
KIND_GRAPH = 1
KIND_ATTRIBUTES = 2
KIND_COMMUNITIES = 3
KIND_DATASET = 4
KIND_TNAM = 5
KIND_MANIFEST = 6

u8 = lambda v: struct.pack("<B", v)
u32 = lambda v: struct.pack("<I", v)
u64 = lambda v: struct.pack("<Q", v)
f64 = lambda v: struct.pack("<d", v)


def wrap(kind, payload):
    """Full container file bytes for a payload (valid CRC)."""
    body = MAGIC + u32(1) + u8(kind) + u64(len(payload)) + payload
    return body + u32(zlib.crc32(body) & 0xFFFFFFFF)


def pstring(s):
    b = s.encode()
    return u64(len(b)) + b


# --- payloads mirroring the fuzz_manifest fixture (ring n=8) ---------------

N = 8


def graph_payload():
    offsets, adjacency = [], []
    for v in range(N):
        offsets.append(len(adjacency))
        adjacency.extend(sorted(((v - 1) % N, (v + 1) % N)))
    offsets.append(len(adjacency))
    out = u32(N) + u8(0) + u64(len(adjacency))
    out += b"".join(u64(o) for o in offsets)
    out += b"".join(u32(a) for a in adjacency)
    return out


def attrs_payload():
    out = u32(N) + u32(4)
    for i in range(N):
        out += u64(1) + u32(i % 4) + f64(1.0 + 0.25 * i)
    return out


def comms_payload():
    members = [[0, 1, 2, 3], [4, 5, 6, 7]]
    out = u32(N) + u64(len(members))
    for comm in members:
        out += u64(len(comm)) + b"".join(u32(m) for m in comm)
    return out


def tnam_payload(rows=N, cols=3):
    out = u64(rows) + u64(cols)
    for i in range(rows):
        for j in range(cols):
            out += f64(0.1 * (i + 1) + 0.01 * j)
    return out


def manifest_payload(n=N, m=N, attr_cols=4, attr_nnz=N, num_comms=2,
                     tnams=((3, 3),)):
    out = u32(1)  # manifest format
    out += pstring("fuzz") + u64(1) + pstring("seed")
    out += u32(n) + u64(m)
    out += u8(1) + u32(attr_cols) + u64(attr_nnz)
    out += u8(1) + u64(num_comms)
    out += u64(len(tnams))
    for k, dim in tnams:
        out += u32(k) + u64(dim)
    return out


def write(target, name, data):
    d = os.path.join(CORPORA, target)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, name)
    with open(path, "wb") as f:
        f.write(data)
    print(f"{path}: {len(data)} bytes")


def main():
    # -- fuzz_parse: bare numeric tokens (boundaries, rejections, floats) ---
    for name, tok in [
        ("seed-zero", b"0"),
        ("seed-u64max", b"18446744073709551615"),
        ("seed-u64max-plus1", b"18446744073709551616"),
        ("seed-negative", b"-1"),
        ("seed-plus", b"+5"),
        ("seed-leading-zeros", b"00000000000000000007"),
        ("seed-float", b"3.25"),
        ("seed-exp", b"1e-3"),
        ("seed-exp-overflow", b"1e309"),
        ("seed-subnormal", b"5e-324"),
        ("seed-neg-zero", b"-0"),
        ("seed-dbl-max", b"1.7976931348623157e308"),
        ("seed-hex", b"0x10"),
        ("seed-inf", b"inf"),
        ("seed-nan", b"nan"),
        ("seed-ws", b" 7 "),
        ("seed-dot", b"."),
    ]:
        write("fuzz_parse", name + ".bin", tok)

    # -- fuzz_protocol: wire lines ------------------------------------------
    for name, line in [
        ("seed-stats", b"stats"),
        ("seed-health", b"health"),
        ("seed-reload", b"reload"),
        ("seed-shutdown", b"shutdown"),
        ("seed-minimal", b"5 10"),
        ("seed-full", b"5 10 alpha=0.15 eps=1e-6 sigma=0.5 k=3"
                      b" timeout_ms=250"),
        ("seed-tabs", b"5\t10\talpha=0.25"),
        ("seed-bad-size", b"5 0"),
        ("seed-seed-overflow", b"4294967296 10"),
        ("seed-k-overflow", b"5 10 k=2147483648"),
        ("seed-bad-option", b"5 10 frob=1"),
        ("seed-alpha-edge", b"0 1 alpha=0.99999999999999989"),
        ("seed-timeout-zero", b"5 10 timeout_ms=0"),
        # Fuzz-found: a malformed token's bytes were echoed verbatim into the
        # ERR diagnostic — control bytes (here 0x01) reached the response
        # line and operator logs unescaped.
        ("regression-ctrl-echo", b"0\x01 5"),
        # Fuzz-found: a garbage line below two tokens echoed the WHOLE line,
        # making the ERR response unbounded (16 KiB request -> 16 KiB echo).
        ("regression-unbounded-echo", b"A" * 300),
    ]:
        write("fuzz_protocol", name + ".bin", line)

    # -- fuzz_cache_key: PAIRS of wire request lines split at '\n' ----------
    # The differential canonicalization harness: equal-identity pairs (the
    # spellings an admission-time key must merge) and distinct-identity pairs
    # (the ones it must never).
    for name, pair in [
        ("seed-identical", b"5 10\n5 10"),
        ("seed-alpha-spelling", b"5 10 alpha=0.2\n5 10 alpha=0.20"),
        ("seed-omitted-vs-default", b"5 10\n5 10 alpha=0.8 eps=1e-6 sigma=0"),
        ("seed-sigma-negzero", b"5 10 sigma=-0\n5 10 sigma=0"),
        ("seed-eps-exponent", b"5 10 eps=1e-4\n5 10 eps=0.0001"),
        ("seed-timeout-differs", b"5 10 timeout_ms=50\n5 10"),
        ("seed-k-omitted-vs-default", b"5 10 k=32\n5 10"),
        ("seed-distinct-seed", b"5 10\n6 10"),
        ("seed-distinct-sigma", b"5 10 sigma=0.3\n5 10"),
        ("seed-distinct-k", b"5 10 k=16\n5 10 k=32"),
        ("seed-one-malformed", b"5 10\nnot a request"),
    ]:
        write("fuzz_cache_key", name + ".bin", pair)

    # -- fuzz_serialize: mode byte + container/payload ----------------------
    # mode bits 0-1: decoder (0 graph, 1 attrs, 2 comms, 3 dataset);
    # bit 2: body is a payload to wrap in a valid container;
    # bit 3: use the expected-count overload (attrs; comms is always checked).
    gp, ap, cp = graph_payload(), attrs_payload(), comms_payload()
    write("fuzz_serialize", "seed-graph-wrapped.bin", u8(0x04) + gp)
    write("fuzz_serialize", "seed-graph-rawfile.bin",
          u8(0x00) + wrap(KIND_GRAPH, gp))
    write("fuzz_serialize", "seed-attrs-wrapped.bin", u8(0x05) + ap)
    write("fuzz_serialize", "seed-attrs-checked.bin", u8(0x0D) + ap)
    write("fuzz_serialize", "seed-comms-wrapped.bin", u8(0x06) + cp)
    write("fuzz_serialize", "seed-dataset-wrapped.bin",
          u8(0x07) + gp + ap + cp)
    write("fuzz_serialize", "seed-truncated.bin",
          u8(0x00) + wrap(KIND_GRAPH, gp)[:20])
    # Fuzz-found: a row's u64 nnz field was reserve()d before any entry was
    # read — 2^60 entries of 12 payload bytes each cannot fit in any payload,
    # but the reserve ran first (std::length_error escaped the
    # invalid_argument contract; larger values are allocation bombs).
    write("fuzz_serialize", "regression-attrs-nnz-bomb.bin",
          u8(0x05) + u32(1) + u32(1) + u64(1 << 60))
    # Fuzz-found: same class on the community count.
    write("fuzz_serialize", "regression-comms-count-bomb.bin",
          u8(0x06) + u32(8) + u64(1 << 60))
    # Fuzz-found: the attribute row count sized the matrix before any row
    # data was required — u32-max rows allocate ~100 GiB of empty row
    # vectors from a 10-byte payload.
    write("fuzz_serialize", "regression-attrs-row-bomb.bin",
          u8(0x05) + u32(0xFFFFFFFF) + u32(0))
    # Same class on the community node count; rejected up front by the
    # expected-nodes overload every untrusted path now uses.
    write("fuzz_serialize", "regression-comms-node-bomb.bin",
          u8(0x06) + u32(0xFFFFFFFF) + u64(0))
    # Fuzz-found: the Graph constructor's adjacency-sortedness scan indexed
    # adjacency[e] for e < offsets[v+1] BEFORE the monotonicity sweep had
    # validated the middle offsets — offsets [0, 2, 0] over an EMPTY
    # adjacency pass the front==0/back==size checks but read out of bounds
    # (heap-buffer-overflow under ASan).
    write("fuzz_serialize", "regression-graph-offset-oob.bin",
          u8(0x04) + u32(2) + u8(0) + u64(0) + u64(0) + u64(2) + u64(0))
    # The Graph constructor accepted an asymmetric CSR: node 0 lists 1 and 2,
    # neither lists 0 back, and the graph built with deg(1) = deg(2) = 0.
    write("fuzz_serialize", "regression-graph-asymmetric.bin",
          u8(0x04) + u32(3) + u8(0) + u64(2) +
          u64(0) + u64(2) + u64(2) + u64(2) + u32(1) + u32(2))
    # The Graph constructor accepted +inf edge weights (`w > 0` holds for
    # inf), giving deg = inf.
    write("fuzz_serialize", "regression-graph-inf-weight.bin",
          u8(0x04) + u32(2) + u8(1) + u64(2) + u64(0) + u64(1) + u64(2) +
          u32(1) + u32(0) + f64(float("inf")) + f64(float("inf")))

    # -- fuzz_tnam: mode byte + container/payload ---------------------------
    # mode bit 0: wrap as kTnam container; bit 1: expected_rows=8 overload.
    tp = tnam_payload()
    write("fuzz_tnam", "seed-unchecked.bin", u8(0x01) + tp)
    write("fuzz_tnam", "seed-checked.bin", u8(0x03) + tp)
    write("fuzz_tnam", "seed-row-mismatch.bin",
          u8(0x03) + tnam_payload(rows=4))
    write("fuzz_tnam", "seed-rawfile.bin", u8(0x00) + wrap(KIND_TNAM, tp))
    write("fuzz_tnam", "seed-empty.bin", u8(0x01) + u64(0) + u64(0))
    # Hardening witness: a u64 row count just past NodeId range with zero
    # columns passes every payload-size bound (0 doubles) and would truncate
    # through num_rows(); rejected by the explicit row-range check.
    write("fuzz_tnam", "regression-row-truncation.bin",
          u8(0x03) + u64((1 << 32) + 8) + u64(0))

    # -- fuzz_manifest: mode byte + manifest container/payload --------------
    # mode bit 0: wrap as kManifest container.
    mp = manifest_payload()
    write("fuzz_manifest", "seed-valid.bin", u8(0x01) + mp)
    write("fuzz_manifest", "seed-rawfile.bin",
          u8(0x00) + wrap(KIND_MANIFEST, mp))
    write("fuzz_manifest", "seed-wrong-n.bin",
          u8(0x01) + manifest_payload(n=9))
    write("fuzz_manifest", "seed-wrong-tnam-dim.bin",
          u8(0x01) + manifest_payload(tnams=((3, 5),)))
    write("fuzz_manifest", "seed-no-tnams.bin",
          u8(0x01) + manifest_payload(tnams=()))
    # Fuzz-found: the TNAM spec count was reserve()d straight from the file
    # before a single spec was read — 2^60 specs of 12 payload bytes each
    # cannot exist, but the reserve ran first.
    write("fuzz_manifest", "regression-tnam-count-bomb.bin",
          u8(0x01) + manifest_payload()[:-12 - 8] + u64(1 << 60))

    print("done")


if __name__ == "__main__":
    main()
