//! Property tests of the SSTable layer: arbitrary entry sets roundtrip
//! through build → scan/get, the reader a builder hands over equals the
//! one a cold open makes, and any single-bit corruption of any data block
//! is caught by the checksum step.

use pcp::sstable::key::{make_internal_key, user_key, ValueType, MAX_SEQUENCE};
use pcp::sstable::table::{compress_block, decompress_block, make_trailer, verify_block};
use pcp::sstable::{
    internal_key_cmp, CompressionKind, KvIter, TableBuilder, TableBuilderOptions, TableMeta,
    TableReader,
};
use pcp::storage::{EnvRef, SimDevice, SimEnv};
use proptest::prelude::*;
use std::sync::Arc;

fn mem_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(128 << 20))))
}

fn build(
    env: &EnvRef,
    entries: &[(Vec<u8>, u64, bool, Vec<u8>)],
    block_size: usize,
) -> Arc<TableReader> {
    build_with(env, entries, TableBuilderOptions { block_size, ..Default::default() });
    Arc::new(TableReader::open(env.open("t.sst").unwrap()).unwrap())
}

/// Writes `entries` (sorted, deduplicated) as `t.sst`; returns what the
/// builder handed back.
fn build_with(
    env: &EnvRef,
    entries: &[(Vec<u8>, u64, bool, Vec<u8>)],
    opts: TableBuilderOptions,
) -> TableMeta {
    let mut sorted: Vec<(Vec<u8>, Vec<u8>)> = entries
        .iter()
        .map(|(k, seq, del, v)| {
            (
                make_internal_key(
                    k,
                    *seq,
                    if *del { ValueType::Deletion } else { ValueType::Value },
                ),
                v.clone(),
            )
        })
        .collect();
    sorted.sort_by(|a, b| internal_key_cmp(&a.0, &b.0));
    sorted.dedup_by(|a, b| a.0 == b.0);
    let mut b = TableBuilder::new(env.create("t.sst").unwrap(), opts);
    for (ik, v) in &sorted {
        b.add(ik, v).unwrap();
    }
    b.finish().unwrap()
}

fn scan(reader: &Arc<TableReader>) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut it = reader.iter();
    it.seek_to_first();
    let mut out = Vec::new();
    while it.valid() {
        out.push((it.key().to_vec(), it.value().to_vec()));
        it.next();
    }
    it.status().unwrap();
    out
}

fn entry_strategy() -> impl Strategy<Value = Vec<(Vec<u8>, u64, bool, Vec<u8>)>> {
    prop::collection::vec(
        (
            prop::collection::vec(any::<u8>(), 1..24),
            1u64..10_000,
            any::<bool>(),
            prop::collection::vec(any::<u8>(), 0..120),
        ),
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn build_scan_roundtrip(entries in entry_strategy(), block_size in 64usize..2048) {
        let env = mem_env();
        let reader = build(&env, &entries, block_size);
        // Expected: sorted, deduped internal keys.
        let mut want: Vec<(Vec<u8>, Vec<u8>)> = entries
            .iter()
            .map(|(k, seq, del, v)| {
                (
                    make_internal_key(k, *seq, if *del { ValueType::Deletion } else { ValueType::Value }),
                    v.clone(),
                )
            })
            .collect();
        want.sort_by(|a, b| internal_key_cmp(&a.0, &b.0));
        want.dedup_by(|a, b| a.0 == b.0);

        prop_assert_eq!(scan(&reader), want);
    }

    /// The reader made from what the builder handed over is the reader a
    /// cold open of the same file makes, with or without a filter.
    #[test]
    fn handed_off_reader_equals_cold_opened_reader(
        entries in entry_strategy(),
        absent in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..24), 1..40),
        block_size in 64usize..2048,
        with_filter in any::<bool>(),
    ) {
        let env = mem_env();
        let opts = TableBuilderOptions {
            block_size,
            bloom_bits_per_key: if with_filter { 10 } else { 0 },
            ..Default::default()
        };
        let built = build_with(&env, &entries, opts);
        let file = env.open("t.sst").unwrap();
        let handed_off = Arc::new(TableReader::new(Arc::clone(&file), built, None, Arc::default()));
        let cold = Arc::new(TableReader::open(file).unwrap());

        prop_assert_eq!(handed_off.stats(), cold.stats());
        prop_assert_eq!(handed_off.block_metas().unwrap(), cold.block_metas().unwrap());
        prop_assert_eq!(scan(&handed_off), scan(&cold));
        let present = entries.iter().map(|(k, _, _, _)| k);
        for key in present.chain(&absent) {
            let target = make_internal_key(key, MAX_SEQUENCE, ValueType::Value);
            prop_assert_eq!(handed_off.get(&target).unwrap(), cold.get(&target).unwrap());
        }
    }

    #[test]
    fn point_gets_find_every_key(entries in entry_strategy()) {
        let env = mem_env();
        let reader = build(&env, &entries, 256);
        for (k, _, _, _) in entries.iter().take(60) {
            let target = make_internal_key(k, MAX_SEQUENCE, ValueType::Value);
            let hit = reader.get(&target).unwrap();
            let (ik, _) = hit.expect("existing user key must be found");
            prop_assert_eq!(user_key(&ik), k.as_slice());
        }
    }

    #[test]
    fn any_bit_flip_in_any_data_block_is_detected(
        entries in entry_strategy(),
        block_sel in any::<prop::sample::Index>(),
        byte_sel in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let env = mem_env();
        let reader = build(&env, &entries, 256);
        let metas = reader.block_metas().unwrap();
        let meta = &metas[block_sel.index(metas.len())];
        let raw = reader.read_raw_block(meta.handle).unwrap();
        let mut corrupt = raw.to_vec();
        let idx = byte_sel.index(corrupt.len());
        corrupt[idx] ^= 1 << bit;
        prop_assert!(
            verify_block(&corrupt).is_err(),
            "flip at byte {} bit {} of block {:?} undetected",
            idx, bit, meta.handle
        );
    }

    /// The block envelope (S2 verify, S3 inflate) over bytes it did not
    /// seal: arbitrary bytes, a well-checksummed garbage payload, and a
    /// sealed block with any one byte changed give an error or the
    /// original contents — never a panic, never different contents.
    #[test]
    fn block_envelope_never_panics_or_misdecodes(
        garbage in prop::collection::vec(any::<u8>(), 0..512),
        contents in prop::collection::vec(0u8..4, 0..2048),
        idx_sel in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let open = |raw: &[u8]| verify_block(raw).and_then(|(p, kind)| decompress_block(p, kind));
        let _ = open(&garbage);
        let mut sealed_garbage = garbage.clone();
        sealed_garbage.extend_from_slice(&make_trailer(&garbage, CompressionKind::Lz));
        let _ = open(&sealed_garbage);

        let (mut sealed, kind) = compress_block(&contents, CompressionKind::Lz);
        let trailer = make_trailer(&sealed, kind);
        sealed.extend_from_slice(&trailer);
        prop_assert_eq!(open(&sealed).unwrap(), contents.clone());
        let idx = idx_sel.index(sealed.len());
        sealed[idx] ^= flip;
        if let Ok(got) = open(&sealed) {
            prop_assert_eq!(got, contents, "byte {} changed, different contents decoded", idx);
        }
    }
}
