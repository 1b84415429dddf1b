// L10 positive fixture: `env::var` / `env::var_os` outside any
// OnceLock-guarded reader.

pub fn threads() -> usize {
    match std::env::var("OCTOPUS_THREADS") {
        Ok(v) => v.parse().unwrap_or(1),
        Err(_) => 1,
    }
}

pub fn trace_enabled() -> bool {
    std::env::var_os("OCTOPUS_TRACE").is_some()
}
