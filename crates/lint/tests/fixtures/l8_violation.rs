//! L8 fixture: registers one documented metric and one that the
//! canonical name index (supplied by the test) does not list, records a
//! trace kind the index does not list, and defines an opcode whose value
//! disagrees with the canonical opcode table.

pub fn register(r: &Registry) {
    r.register_fn_counter("pcp_fixture_ok_total", "documented series", Vec::new(), || 0);
    r.register_fn_counter("pcp_fixture_rogue_total", "undocumented series", Vec::new(), || 0); // LINT:L8
}

pub fn record(log: &TraceLog) {
    log.record("fixture_done", &[]);
    log.record("fixture_rogue", &[]); // LINT:L8
}

pub const PING: u8 = 0x01;
pub const PONG: u8 = 0x99; // LINT:L8 (the canonical table says 0x81)
