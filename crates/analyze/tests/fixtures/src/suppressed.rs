//! Suppression fixture: one would-be violation per rule, every one silenced with
//! `// mx-analyze: allow(<rule>) reason: <text>` in both the line-above and trailing
//! forms.

pub fn quiet(v: Option<usize>, pool: &PagePool, cache: &mut Cache) -> usize {
    // mx-analyze: allow(no-panics) reason: exercises the line-above suppression form
    let a = v.unwrap();
    let b = v.expect("fine"); // mx-analyze: allow(no-panics) reason: fixture value is always Some
    let state = pool.state();
    cache.pack_row_into(&[0.0], &mut []); // mx-analyze: allow(guard-liveness) reason: single-threaded fixture
    drop(state);
    a + b
}

pub fn unsafe_quiet(p: *const u8) -> u8 {
    // mx-analyze: allow(unsafe-safety-comment) reason: fixture pointer is always valid
    unsafe { *p }
}

pub struct Refs {
    refs: std::sync::atomic::AtomicUsize,
}

impl Refs {
    pub fn release(&self) -> usize {
        // mx-analyze: allow(atomic-ordering) reason: fixture counter, not a real refcount
        self.refs.fetch_sub(1, std::sync::atomic::Ordering::Relaxed)
    }
}
