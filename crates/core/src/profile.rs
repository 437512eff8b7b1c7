//! Per-layer execution profiling.
//!
//! The paper's evaluation workflow — "infrastructure to run multiple
//! inference experiments, evaluating full networks, and individual layers" —
//! needs per-layer timings; the session executor produces one
//! [`LayerTiming`] per plan step on profiled runs.

use std::collections::BTreeMap;
use std::time::Duration;

use orpheus_observe::{json::escape, Trace};

use crate::memory::MemoryStats;

/// Timing record for one layer invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTiming {
    /// Layer instance name.
    pub name: String,
    /// Operator family (`"Conv"`, `"Dense"`, ...).
    pub op: String,
    /// Selected implementation description.
    pub implementation: String,
    /// Wall-clock execution time.
    pub duration: Duration,
    /// FLOPs for the invocation (0 when unknown).
    pub flops: u64,
}

impl LayerTiming {
    /// Effective GFLOP/s, or `None` when FLOPs are unknown.
    pub fn gflops(&self) -> Option<f64> {
        if self.flops == 0 {
            return None;
        }
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            return None;
        }
        Some(self.flops as f64 / secs / 1e9)
    }
}

/// The result of a profiled network run.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// One record per executed layer, in execution order.
    pub timings: Vec<LayerTiming>,
    /// End-to-end wall-clock time.
    pub total: Duration,
    /// Activation-memory statistics for the run.
    pub memory: MemoryStats,
}

impl Profile {
    /// Rebuilds a per-layer profile from a recorded trace (see
    /// `orpheus-observe`): every `"layer"`-category span becomes one
    /// [`LayerTiming`], the enclosing session `"run"` span (when present)
    /// provides the end-to-end total. Memory statistics are not recoverable
    /// from a trace and are left at their defaults.
    pub fn from_trace(trace: &Trace) -> Profile {
        let mut timings: Vec<(f64, LayerTiming)> = trace
            .by_category("layer")
            .map(|span| {
                (
                    span.start_us,
                    LayerTiming {
                        name: span.name.clone(),
                        op: Trace::attr_str(span, "op").unwrap_or("?").to_string(),
                        implementation: Trace::attr_str(span, "implementation")
                            .unwrap_or("?")
                            .to_string(),
                        duration: Duration::from_secs_f64(span.dur_us / 1e6),
                        flops: Trace::attr_int(span, "flops").unwrap_or(0).max(0) as u64,
                    },
                )
            })
            .collect();
        timings.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite timestamps"));
        let total = trace
            .by_category("session")
            .filter(|s| s.name == "run")
            .map(|s| Duration::from_secs_f64(s.dur_us / 1e6))
            .max()
            .unwrap_or_else(|| timings.iter().map(|(_, t)| t.duration).sum());
        Profile {
            timings: timings.into_iter().map(|(_, t)| t).collect(),
            total,
            memory: MemoryStats::default(),
        }
    }

    /// Total time grouped by operator family, descending.
    pub fn by_op(&self) -> Vec<(String, Duration)> {
        let mut map: BTreeMap<&str, Duration> = BTreeMap::new();
        for t in &self.timings {
            *map.entry(&t.op).or_default() += t.duration;
        }
        let mut rows: Vec<(String, Duration)> =
            map.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }

    /// The `n` slowest layers, descending.
    pub fn hottest(&self, n: usize) -> Vec<&LayerTiming> {
        let mut refs: Vec<&LayerTiming> = self.timings.iter().collect();
        refs.sort_by_key(|t| std::cmp::Reverse(t.duration));
        refs.truncate(n);
        refs
    }

    /// Total FLOPs across all layers.
    pub fn total_flops(&self) -> u64 {
        self.timings.iter().map(|t| t.flops).sum()
    }

    /// Serializes the profile in Chrome trace-event format (load the file at
    /// `chrome://tracing` or in Perfetto). Layers appear as back-to-back
    /// complete events on one track.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        let mut ts_us = 0.0f64;
        for (i, t) in self.timings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let dur_us = t.duration.as_secs_f64() * 1e6;
            let gflops = t
                .gflops()
                .map(|g| format!("{g:.3}"))
                .unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts_us:.3},\
                 \"dur\":{dur_us:.3},\"pid\":0,\"tid\":0,\
                 \"args\":{{\"implementation\":\"{}\",\"gflops\":{gflops}}}}}",
                escape(&t.name),
                escape(&t.op),
                escape(&t.implementation),
            ));
            ts_us += dur_us;
        }
        out.push(']');
        out
    }

    /// Renders a per-layer table (the CLI's `layers` view).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>10} {:<22} {:>12} {:>9}\n",
            "layer", "op", "implementation", "time (us)", "GFLOP/s"
        ));
        for t in &self.timings {
            let gf = t
                .gflops()
                .map(|g| format!("{g:.2}"))
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{:<28} {:>10} {:<22} {:>12.1} {:>9}\n",
                truncate(&t.name, 28),
                t.op,
                truncate(&t.implementation, 22),
                t.duration.as_secs_f64() * 1e6,
                gf
            ));
        }
        out.push_str(&format!(
            "total: {:.3} ms over {} layers, peak activation memory {:.2} MiB\n",
            self.total.as_secs_f64() * 1e3,
            self.timings.len(),
            self.memory.peak_bytes as f64 / (1024.0 * 1024.0)
        ));
        out
    }
}

/// Truncates `s` to at most `n` display characters, appending `…` when cut.
///
/// Cuts on a char boundary: slicing by byte offset panics on multi-byte
/// UTF-8 (layer names imported from ONNX are arbitrary user strings).
/// Delegates to the shared implementation in `orpheus-observe` so every
/// report renderer truncates identically.
fn truncate(s: &str, n: usize) -> String {
    orpheus_observe::truncate(s, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(name: &str, op: &str, micros: u64, flops: u64) -> LayerTiming {
        LayerTiming {
            name: name.into(),
            op: op.into(),
            implementation: "x".into(),
            duration: Duration::from_micros(micros),
            flops,
        }
    }

    #[test]
    fn gflops_computation() {
        let t = timing("a", "Conv", 1000, 2_000_000); // 2 MFLOP in 1 ms
        assert!((t.gflops().unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(timing("b", "Add", 10, 0).gflops(), None);
    }

    #[test]
    fn by_op_aggregates_and_sorts() {
        let p = Profile {
            timings: vec![
                timing("c1", "Conv", 100, 0),
                timing("r1", "Activation", 5, 0),
                timing("c2", "Conv", 200, 0),
            ],
            total: Duration::from_micros(305),
            memory: MemoryStats::default(),
        };
        let rows = p.by_op();
        assert_eq!(rows[0].0, "Conv");
        assert_eq!(rows[0].1, Duration::from_micros(300));
    }

    #[test]
    fn hottest_orders_descending() {
        let p = Profile {
            timings: vec![
                timing("a", "Conv", 10, 0),
                timing("b", "Conv", 30, 0),
                timing("c", "Conv", 20, 0),
            ],
            ..Profile::default()
        };
        let hot = p.hottest(2);
        assert_eq!(hot[0].name, "b");
        assert_eq!(hot[1].name, "c");
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let p = Profile {
            timings: vec![
                timing("conv \"0\"", "Conv", 100, 1000),
                timing("relu", "Activation", 5, 0),
            ],
            total: Duration::from_micros(105),
            memory: MemoryStats::default(),
        };
        let json = p.to_chrome_trace();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("conv \\\"0\\\"")); // quotes escaped
        assert!(json.contains("\"gflops\":null")); // unknown flops
                                                   // Events are back-to-back: second ts == first dur.
        assert!(json.contains("\"ts\":100.000"));
    }

    #[test]
    fn chrome_trace_escapes_control_characters() {
        let p = Profile {
            timings: vec![timing("line\nbreak\u{01}", "Conv", 10, 0)],
            total: Duration::from_micros(10),
            memory: MemoryStats::default(),
        };
        let json = p.to_chrome_trace();
        assert!(json.contains("line\\nbreak\\u0001"));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn truncate_cuts_multibyte_names_on_char_boundaries() {
        // Regression: `&s[..n-1]` panicked when byte n-1 fell inside a
        // multi-byte character (e.g. ONNX layer names with non-ASCII).
        let name = "convolução_σ_第一層_0123456789";
        let cut = truncate(name, 10);
        assert_eq!(cut.chars().count(), 10);
        assert!(cut.ends_with('…'));
        assert!(cut.starts_with("convoluçã"));
        // Short names (by chars, not bytes) pass through untouched.
        assert_eq!(truncate("résumé", 10), "résumé");
    }

    #[test]
    fn render_survives_non_ascii_layer_names() {
        let p = Profile {
            timings: vec![timing(
                "畳み込み層_非常に長い名前_これは切り捨てられるはずです_その一",
                "Conv",
                10,
                0,
            )],
            total: Duration::from_micros(10),
            memory: MemoryStats::default(),
        };
        let text = p.render();
        assert!(text.contains('…'));
    }

    #[test]
    fn from_trace_rebuilds_layer_table() {
        use orpheus_observe::{AttrValue, SpanRecord};
        let trace = Trace {
            spans: vec![
                SpanRecord {
                    id: 3,
                    parent: Some(1),
                    name: "conv_1".into(),
                    category: "layer",
                    start_us: 60.0,
                    dur_us: 40.0,
                    tid: 0,
                    attrs: vec![
                        ("op", AttrValue::Str("Conv".into())),
                        ("implementation", AttrValue::Str("spatial-pack".into())),
                        ("flops", AttrValue::Int(2_000_000)),
                    ],
                },
                SpanRecord {
                    id: 2,
                    parent: Some(1),
                    name: "conv_0".into(),
                    category: "layer",
                    start_us: 10.0,
                    dur_us: 50.0,
                    tid: 0,
                    attrs: vec![("op", AttrValue::Str("Conv".into()))],
                },
                SpanRecord {
                    id: 1,
                    parent: None,
                    name: "run".into(),
                    category: "session",
                    start_us: 0.0,
                    dur_us: 120.0,
                    tid: 0,
                    attrs: vec![],
                },
            ],
        };
        let p = Profile::from_trace(&trace);
        // Layers come back in execution (start-time) order.
        assert_eq!(p.timings.len(), 2);
        assert_eq!(p.timings[0].name, "conv_0");
        assert_eq!(p.timings[1].name, "conv_1");
        assert_eq!(p.timings[1].implementation, "spatial-pack");
        assert_eq!(p.timings[1].flops, 2_000_000);
        assert_eq!(p.timings[0].implementation, "?");
        // The session run span (120 us) outlasts its layer children (90 us):
        // the total keeps the executor overhead between layers.
        assert_eq!(p.total, Duration::from_micros(120));
        assert_eq!(p.total_flops(), 2_000_000);
    }

    #[test]
    fn render_contains_all_layers() {
        let p = Profile {
            timings: vec![timing("first_layer", "Conv", 10, 100)],
            total: Duration::from_micros(10),
            memory: MemoryStats::default(),
        };
        let text = p.render();
        assert!(text.contains("first_layer"));
        assert!(text.contains("total:"));
    }
}
