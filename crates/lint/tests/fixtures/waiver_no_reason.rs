//! Fixture: waiver hygiene. A reason-less waiver is W0, a waiver naming an
//! unknown rule is W1, and a waiver that suppresses nothing is W1.

use std::collections::HashMap;

fn reasonless() -> bool {
    let m: HashMap<u8, u8> = HashMap::new(); // vaem-lint: allow(D1)
    m.is_empty()
}

fn unknown_rule() -> usize {
    // vaem-lint: allow(D9) no such rule exists
    42
}

fn unused_waiver() -> usize {
    // vaem-lint: allow(D6) nothing on the next line reads a clock
    7
}

// A directive other than `allow(…)` is read by nothing, so it is W1 too.
// vaem-lint: cold nothing reads this annotation
fn stale_directive() -> usize {
    9
}
