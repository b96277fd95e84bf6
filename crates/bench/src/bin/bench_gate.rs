//! CI perf-regression gate over the repro harness JSON.
//!
//! Usage: `bench_gate <repro.json> <baseline.json>`
//!
//! Reads the JSON report the repro harness wrote (`REPRO_JSON`), extracts a
//! fixed set of headline metrics from the figure and M1 sections, and
//! compares each against the committed `bench/baseline.json`:
//!
//! * prints a markdown delta table (also appended to `$GITHUB_STEP_SUMMARY`
//!   when set, so it lands in the job summary);
//! * exits non-zero if any metric regressed past its threshold;
//! * with `REPRO_UPDATE_BASELINE=1`, rewrites the baseline from the current
//!   run instead of checking (the documented one-command refresh is
//!   `REPRO_UPDATE_BASELINE=1 scripts/bench_baseline.sh`).
//!
//! The threshold is deliberately generous — `BENCH_GATE_THRESHOLD` (default
//! 1.5) times a per-metric `slack` for absolute timings and CPU-dependent
//! ratios, so runner-to-runner noise doesn't fail builds but an accidental
//! return to per-row scalar kernels (or a logging regression) does.
//!
//! No serde in this workspace (deps are offline shims), so the harness JSON
//! — a fixed all-strings shape — is parsed by the small reader below.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Is a bigger number better or worse for a metric?
#[derive(Clone, Copy, PartialEq)]
enum Better {
    Lower,
    Higher,
}

/// One gated metric: where to find it in the repro report and how to judge
/// it.
struct MetricSpec {
    /// Stable identifier — the key in `baseline.json`.
    id: &'static str,
    /// Report section name (as passed to `report::emit`).
    section: &'static str,
    /// `(column, value)` pairs a row must match exactly.
    row: &'static [(&'static str, &'static str)],
    /// Column holding the metric value (trailing `x` is stripped).
    col: &'static str,
    better: Better,
    /// Extra threshold multiplier for noisy absolutes / CPU-bound ratios.
    slack: f64,
}

/// The gated headline metrics. Ratios (speedups, records/fsync) are mostly
/// machine-independent; absolute timings get extra slack.
const METRICS: &[MetricSpec] = &[
    MetricSpec {
        id: "f4_main_point_us",
        section: "F4 access per stage",
        row: &[("stage", "Main")],
        col: "point lookup (µs)",
        better: Better::Lower,
        slack: 2.0,
    },
    MetricSpec {
        id: "f4_main_scan_ms",
        section: "F4 access per stage",
        row: &[("stage", "Main")],
        col: "column scan (ms)",
        better: Better::Lower,
        slack: 2.0,
    },
    MetricSpec {
        id: "f4c_swar_speedup_8bit",
        section: "F4c scan kernels",
        row: &[("code bits", "8"), ("predicate", "range 25%")],
        col: "speedup",
        better: Better::Higher,
        slack: 2.0,
    },
    MetricSpec {
        id: "f4c_swar_speedup_16bit",
        section: "F4c scan kernels",
        row: &[("code bits", "16"), ("predicate", "range 25%")],
        col: "speedup",
        better: Better::Higher,
        slack: 2.0,
    },
    MetricSpec {
        id: "f4c_unpack_speedup_13bit",
        section: "F4c scan kernels",
        row: &[("code bits", "13"), ("predicate", "range 25%")],
        col: "speedup",
        better: Better::Higher,
        slack: 2.0,
    },
    MetricSpec {
        id: "f5b_code_domain_ms_50pct",
        section: "F5b compressed-domain filtering",
        row: &[("selectivity", "50%")],
        col: "code-domain (ms)",
        better: Better::Lower,
        slack: 2.0,
    },
    MetricSpec {
        id: "f5b_filter_speedup_1pct",
        section: "F5b compressed-domain filtering",
        row: &[("selectivity", "1%")],
        col: "speedup",
        better: Better::Higher,
        slack: 2.0,
    },
    MetricSpec {
        id: "f7c_max_publication_lock_us",
        section: "F7c merge stall",
        row: &[("publication", "non-blocking")],
        col: "max publication lock (µs)",
        better: Better::Lower,
        // The worst of a few short exclusive holds: one descheduling on a
        // shared CPU moves it, so it gets more slack than the mean.
        slack: 3.0,
    },
    MetricSpec {
        id: "f7c_mean_publication_lock_us",
        section: "F7c merge stall",
        row: &[("publication", "non-blocking")],
        col: "mean publication lock (µs)",
        better: Better::Lower,
        slack: 2.0,
    },
    MetricSpec {
        id: "f10_single_main_point_us",
        section: "F10 passive+active main",
        row: &[("main layout", "single main")],
        col: "point lookup (µs)",
        better: Better::Lower,
        slack: 2.0,
    },
    MetricSpec {
        id: "f10b_group_records_per_fsync_4w",
        section: "F10b group commit",
        row: &[("writers", "4"), ("mode", "group")],
        col: "records/fsync",
        better: Better::Higher,
        slack: 1.5,
    },
    MetricSpec {
        id: "f11p_write_scaling_8w8p",
        section: "F11p partition write scaling",
        row: &[("writers", "8"), ("partitions", "8")],
        col: "vs 1 part",
        better: Better::Higher,
        slack: 2.0,
    },
    MetricSpec {
        id: "f11p_commits_per_s_8w8p",
        section: "F11p partition write scaling",
        row: &[("writers", "8"), ("partitions", "8")],
        col: "commits/s",
        better: Better::Higher,
        slack: 2.0,
    },
    MetricSpec {
        id: "f11p_scan_speedup_8p",
        section: "F11p partition scan",
        row: &[("partitions", "8")],
        col: "speedup",
        better: Better::Higher,
        slack: 2.0,
    },
    MetricSpec {
        id: "f12_oltp_p99_degradation_governor_on",
        section: "F12 summary",
        // Single-row summary section; an empty match picks it up.
        row: &[],
        col: "oltp p99 degradation (on)",
        better: Better::Lower,
        // Tail-latency ratio under contention on shared CI runners.
        slack: 2.0,
    },
    MetricSpec {
        id: "f12_olap_throughput_retained",
        section: "F12 summary",
        row: &[],
        col: "olap throughput retained",
        better: Better::Higher,
        slack: 2.0,
    },
    MetricSpec {
        id: "f13_envelope_verify_gbps",
        section: "F13 envelope kernels",
        row: &[("op", "verify (open_envelope)")],
        col: "GB/s",
        better: Better::Higher,
        slack: 2.0,
    },
    MetricSpec {
        id: "f13_commit_crc_share_pct",
        section: "F13 commit checksum share",
        // The acceptance bar is ≤5% checksum overhead on the durable
        // commit path; the share is normally well under 1%, so even with
        // slack a pass cannot drift past the bar unnoticed.
        row: &[],
        col: "checksum share (%)",
        better: Better::Lower,
        slack: 2.0,
    },
    MetricSpec {
        id: "f13_scan_verified_vs_mem",
        section: "F13 verified scan",
        // Scan cost of a verified-from-disk main vs the identical
        // in-memory build: envelope verification is load-time work, so
        // this ratio sits at ~1.0 and going past ~5% overhead regresses.
        row: &[],
        col: "verified/in-memory",
        better: Better::Lower,
        slack: 2.0,
    },
    MetricSpec {
        id: "m1_unified_vs_row_ratio",
        section: "M1 OLTP",
        // The paper's thesis: unified-table time per OLTP op over the
        // row store's, both on this host, so the ratio is host-independent
        // and gated without extra slack.
        row: &[("engine", "unified table")],
        col: "time/op vs row store",
        better: Better::Lower,
        slack: 1.0,
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        eprintln!("usage: bench_gate <repro.json> <baseline.json>");
        return ExitCode::from(2);
    }
    match run(&args[1], &args[2]) {
        Ok(ok) => {
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench_gate: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(repro_path: &str, baseline_path: &str) -> Result<bool, String> {
    let repro_text = std::fs::read_to_string(repro_path)
        .map_err(|e| format!("cannot read {repro_path}: {e}"))?;
    let report = json::parse(&repro_text)?;
    let current = extract_metrics(&report)?;

    if std::env::var("REPRO_UPDATE_BASELINE").as_deref() == Ok("1") {
        let mut out = String::from("{\n");
        for (i, (id, v)) in current.iter().enumerate() {
            let sep = if i + 1 == current.len() { "" } else { "," };
            let _ = writeln!(out, "  \"{id}\": {v}{sep}");
        }
        out.push_str("}\n");
        std::fs::write(baseline_path, out)
            .map_err(|e| format!("cannot write {baseline_path}: {e}"))?;
        println!("bench_gate: baseline refreshed → {baseline_path}");
        return Ok(true);
    }

    let baseline_text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
    let baseline = parse_baseline(&baseline_text)?;
    let threshold: f64 = std::env::var("BENCH_GATE_THRESHOLD")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1.5);

    let mut table = String::new();
    let _ = writeln!(table, "### Bench baseline gate (threshold {threshold}x)\n");
    let _ = writeln!(table, "| metric | baseline | current | ratio | status |");
    let _ = writeln!(table, "|---|---|---|---|---|");
    let mut regressed = Vec::new();
    for spec in METRICS {
        let cur = current[spec.id];
        let Some(&base) = baseline.get(spec.id) else {
            let _ = writeln!(
                table,
                "| {} | — | {cur:.3} | — | NEW (refresh baseline) |",
                spec.id
            );
            continue;
        };
        // Ratio > 1 always means "worse", whichever direction is better.
        let ratio = match spec.better {
            Better::Lower => cur / base,
            Better::Higher => base / cur,
        };
        let limit = threshold * spec.slack;
        let status = if ratio > limit {
            regressed.push(spec.id);
            "**REGRESSED**"
        } else if ratio < 1.0 {
            "ok (improved)"
        } else {
            "ok"
        };
        let _ = writeln!(
            table,
            "| {} | {base:.3} | {cur:.3} | {ratio:.2}x (limit {limit:.2}x) | {status} |",
            spec.id
        );
    }
    print!("{table}");
    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(&summary) {
            let _ = writeln!(f, "{table}");
        }
    }
    if regressed.is_empty() {
        println!("\nbench_gate: all metrics within threshold");
        Ok(true)
    } else {
        println!(
            "\nbench_gate: REGRESSION in {} metric(s): {} — if intentional, refresh with \
             REPRO_UPDATE_BASELINE=1 scripts/bench_baseline.sh",
            regressed.len(),
            regressed.join(", ")
        );
        Ok(false)
    }
}

/// Pull every gated metric out of the parsed repro report.
fn extract_metrics(report: &json::Value) -> Result<BTreeMap<&'static str, f64>, String> {
    let sections = report
        .get("sections")
        .and_then(json::Value::as_array)
        .ok_or("report has no \"sections\" array")?;
    let mut out = BTreeMap::new();
    for spec in METRICS {
        let section = sections
            .iter()
            .find(|s| s.get("section").and_then(json::Value::as_str) == Some(spec.section))
            .ok_or_else(|| format!("section {:?} not found (metric {})", spec.section, spec.id))?;
        let rows = section
            .get("rows")
            .and_then(json::Value::as_array)
            .ok_or_else(|| format!("section {:?} has no rows", spec.section))?;
        let row = rows
            .iter()
            .find(|r| {
                spec.row
                    .iter()
                    .all(|(col, want)| r.get(col).and_then(json::Value::as_str) == Some(want))
            })
            .ok_or_else(|| {
                format!(
                    "no row matching {:?} in section {:?} (metric {})",
                    spec.row, spec.section, spec.id
                )
            })?;
        let raw = row
            .get(spec.col)
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("column {:?} missing (metric {})", spec.col, spec.id))?;
        let num: f64 = raw
            .trim()
            .trim_end_matches('x')
            .parse()
            .map_err(|_| format!("metric {}: cannot parse {raw:?} as a number", spec.id))?;
        out.insert(spec.id, num);
    }
    Ok(out)
}

/// Parse the flat `{"id": number, ...}` baseline file.
fn parse_baseline(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let v = json::parse(text)?;
    let obj = v.as_object().ok_or("baseline is not a JSON object")?;
    let mut out = BTreeMap::new();
    for (k, v) in obj {
        let n = v
            .as_f64()
            .ok_or_else(|| format!("baseline key {k:?} is not a number"))?;
        out.insert(k.clone(), n);
    }
    Ok(out)
}

/// A minimal JSON reader for the gate's two fixed-shape inputs (the
/// workspace has no serde — every external dep is an offline shim).
mod json {
    use std::collections::BTreeMap;

    #[derive(Debug)]
    pub enum Value {
        Null,
        // Parsed for completeness; the gate's inputs only carry strings.
        #[allow(dead_code)]
        Bool(bool),
        Num(f64),
        Str(String),
        Array(Vec<Value>),
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(m) => m.get(key),
                _ => None,
            }
        }
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(a) => Some(a),
                _ => None,
            }
        }
        pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
            match self {
                Value::Object(m) => Some(m),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.b
                .get(self.i)
                .copied()
                .ok_or_else(|| "unexpected end of input".into())
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek()? == c {
                self.i += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected {:?} at byte {}, found {:?}",
                    c as char, self.i, self.b[self.i] as char
                ))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Value::Str(self.string()?)),
                b't' => self.lit("true", Value::Bool(true)),
                b'f' => self.lit("false", Value::Bool(false)),
                b'n' => self.lit("null", Value::Null),
                _ => self.number(),
            }
        }

        fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                Err(format!("invalid literal at byte {}", self.i))
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.i;
            while self.i < self.b.len()
                && matches!(
                    self.b[self.i],
                    b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                )
            {
                self.i += 1;
            }
            std::str::from_utf8(&self.b[start..self.i])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                let c = *self.b.get(self.i).ok_or("unterminated string")?;
                self.i += 1;
                match c {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let e = *self.b.get(self.i).ok_or("unterminated escape")?;
                        self.i += 1;
                        match e {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .b
                                    .get(self.i..self.i + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or("bad \\u escape")?;
                                self.i += 4;
                                out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(format!("bad escape \\{}", e as char)),
                        }
                    }
                    _ => {
                        // Copy the UTF-8 byte run verbatim.
                        let start = self.i - 1;
                        while self.i < self.b.len()
                            && self.b[self.i] != b'"'
                            && self.b[self.i] != b'\\'
                        {
                            self.i += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.b[start..self.i])
                                .map_err(|_| "invalid UTF-8 in string")?,
                        );
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            if self.peek()? == b']' {
                self.i += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek()? {
                    b',' => self.i += 1,
                    b']' => {
                        self.i += 1;
                        return Ok(Value::Array(items));
                    }
                    c => return Err(format!("expected , or ] found {:?}", c as char)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.eat(b'{')?;
            let mut map = BTreeMap::new();
            if self.peek()? == b'}' {
                self.i += 1;
                return Ok(Value::Object(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.eat(b':')?;
                map.insert(key, self.value()?);
                match self.peek()? {
                    b',' => self.i += 1,
                    b'}' => {
                        self.i += 1;
                        return Ok(Value::Object(map));
                    }
                    c => return Err(format!("expected , or }} found {:?}", c as char)),
                }
            }
        }
    }
}
