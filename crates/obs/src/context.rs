//! [`TraceContext`]: deterministic trace/span identity for wide events.
//!
//! Distributed tracing conventionally mints trace ids from ambient entropy;
//! this workspace's telemetry discipline is the opposite — every exported
//! artifact must be byte-identical across reruns and worker counts. Ids
//! are therefore *derived*, not drawn: a job's trace id is a hash of the
//! fleet run id and the job's global index, and its span id a further
//! derivation, so any thread that knows `(run_id, job)` mints the same ids
//! without coordination.

/// FNV-1a 64-bit hash — the workspace's deterministic id hash.
///
/// Chosen for being trivially portable (no dependency, no platform
/// variance) and stable forever: these hashes land in exported artifacts
/// that are diffed across machines and CI runs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Trace/span identity of one job inside a fleet run.
///
/// `trace_id` identifies the (query, doc) job across every process that
/// touches it; `span_id` identifies this particular evaluation span.
/// Both render as fixed-width lowercase hex ([`TraceContext::trace_hex`]),
/// the form stamped into `events.jsonl` and Chrome trace args.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id: identifies the job fleet-wide.
    pub trace_id: u64,
    /// Span id: identifies one evaluation span within the trace.
    pub span_id: u64,
}

impl TraceContext {
    /// Mint the context for global job `job` of fleet run `run_id`.
    ///
    /// Deterministic: every caller given the same `(run_id, job)` mints
    /// the same ids, whichever worker thread runs the job.
    pub fn mint(run_id: &str, job: usize) -> TraceContext {
        let mut key = Vec::with_capacity(run_id.len() + 24);
        key.extend_from_slice(run_id.as_bytes());
        key.extend_from_slice(b"/job/");
        key.extend_from_slice(job.to_string().as_bytes());
        let trace_id = fnv1a64(&key);
        key.extend_from_slice(b"/span");
        let span_id = fnv1a64(&key);
        TraceContext { trace_id, span_id }
    }

    /// The trace id as 16 lowercase hex digits.
    pub fn trace_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }

    /// The span id as 16 lowercase hex digits.
    pub fn span_hex(&self) -> String {
        format!("{:016x}", self.span_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn minting_is_deterministic_and_job_sensitive() {
        let a = TraceContext::mint("fleet-s7-q4x4-z48", 3);
        let b = TraceContext::mint("fleet-s7-q4x4-z48", 3);
        assert_eq!(a, b, "same (run, job) must mint the same ids");
        let c = TraceContext::mint("fleet-s7-q4x4-z48", 4);
        assert_ne!(a.trace_id, c.trace_id, "jobs get distinct traces");
        let d = TraceContext::mint("fleet-s8-q4x4-z48", 3);
        assert_ne!(a.trace_id, d.trace_id, "runs get distinct traces");
        assert_ne!(a.trace_id, a.span_id, "span id is a further derivation");
    }

    #[test]
    fn hex_renders_fixed_width() {
        let ctx = TraceContext {
            trace_id: 0xab,
            span_id: 1,
        };
        assert_eq!(ctx.trace_hex(), "00000000000000ab");
        assert_eq!(ctx.span_hex(), "0000000000000001");
    }
}
