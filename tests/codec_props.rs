//! Property tests for the codec substrate.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn lz_roundtrips_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..8192)) {
        let mut comp = Vec::new();
        pcp::codec::compress(&data, &mut comp);
        prop_assert!(comp.len() <= pcp::codec::max_compressed_len(data.len()));
        let mut out = Vec::new();
        pcp::codec::decompress(&comp, &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    #[test]
    fn lz_roundtrips_structured_bytes(
        phrase in prop::collection::vec(any::<u8>(), 1..32),
        repeats in 1usize..512,
        noise in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Repetitive corpus stitched with noise: exercises copy emission.
        let mut data = Vec::new();
        for i in 0..repeats {
            data.extend_from_slice(&phrase);
            if i % 7 == 0 {
                data.extend_from_slice(&noise);
            }
        }
        let mut comp = Vec::new();
        pcp::codec::compress(&data, &mut comp);
        let mut out = Vec::new();
        pcp::codec::decompress(&comp, &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    #[test]
    fn lz_never_panics_on_garbage_streams(garbage in prop::collection::vec(any::<u8>(), 0..512)) {
        // Must reject or roundtrip, never panic or overrun.
        let mut out = Vec::new();
        let _ = pcp::codec::decompress(&garbage, &mut out);
    }

    #[test]
    fn truncated_compressed_stream_never_roundtrips_silently(
        data in prop::collection::vec(any::<u8>(), 64..1024),
        cut_fraction in 0.01f64..0.99,
    ) {
        let mut comp = Vec::new();
        pcp::codec::compress(&data, &mut comp);
        let cut = ((comp.len() as f64) * cut_fraction) as usize;
        let mut out = Vec::new();
        if pcp::codec::decompress(&comp[..cut], &mut out).is_ok() {
            // Only acceptable "success" would be exact equality, which a
            // strict length header makes impossible for a strict prefix.
            prop_assert_eq!(out, data);
        }
    }

    #[test]
    fn varint_roundtrips(v in any::<u64>()) {
        let enc = pcp::codec::encode_u64(v);
        let (dec, n) = pcp::codec::decode_u64(&enc).unwrap();
        prop_assert_eq!(dec, v);
        prop_assert_eq!(n, enc.len());
        prop_assert_eq!(n, pcp::codec::encoded_len_u64(v));
    }

    #[test]
    fn varint_sequences_roundtrip(values in prop::collection::vec(any::<u64>(), 0..100)) {
        let mut buf = Vec::new();
        for &v in &values {
            pcp::codec::put_u64(&mut buf, v);
        }
        let mut pos = 0;
        let mut out = Vec::new();
        while pos < buf.len() {
            let (v, n) = pcp::codec::decode_u64(&buf[pos..]).unwrap();
            out.push(v);
            pos += n;
        }
        prop_assert_eq!(out, values);
    }

    #[test]
    fn crc_detects_any_single_byte_change(
        data in prop::collection::vec(any::<u8>(), 1..1024),
        idx_sel in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let idx = idx_sel.index(data.len());
        let clean = pcp::codec::crc32c(&data);
        let mut corrupt = data.clone();
        corrupt[idx] ^= flip;
        prop_assert_ne!(pcp::codec::crc32c(&corrupt), clean);
    }

    #[test]
    fn crc_incremental_matches_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        split_sel in any::<prop::sample::Index>(),
    ) {
        let split = if data.is_empty() { 0 } else { split_sel.index(data.len() + 1) };
        let mut inc = pcp::codec::Crc32c::new();
        inc.update(&data[..split]);
        inc.update(&data[split..]);
        prop_assert_eq!(inc.finalize(), pcp::codec::crc32c(&data));
    }
}
