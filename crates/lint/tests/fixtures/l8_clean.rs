//! L8 clean fixture: every observable name this file emits appears in
//! the canonical tables the test supplies, with matching opcode values —
//! the contract holds in both directions.

pub fn register(r: &Registry) {
    r.register_fn_counter("pcp_fixture_ok_total", "documented series", Vec::new(), || 0);
}

pub fn record(log: &TraceLog) {
    log.record("fixture_done", &[]);
}

pub const PING: u8 = 0x01;
pub const PONG: u8 = 0x81;
