//! In-tree validator **and parser** for the Prometheus text exposition
//! format (`text/plain; version=0.0.4`), so smoke tests and CI can
//! prove every `/metrics` line parses without an external Prometheus —
//! and so the fleet coordinator can scrape its workers' expositions
//! back into structured data with [`parse`].
//!
//! The checks cover structure, not semantics: line grammar, label
//! syntax, numeric sample values, `# TYPE` declared before (and at most
//! once per) family, histogram series completeness (`_bucket` with an
//! `le` label, cumulative non-decreasing bucket counts, a `+Inf` bucket
//! equal to `_count`), and the trailing-newline guarantee.
//!
//! One pass does both jobs: [`parse`] checks each line as it routes it
//! into an [`Exposition`], and [`validate`] is [`parse`] plus a
//! summary. [`Exposition::render`] reproduces the input byte-for-byte
//! for anything the workspace [`Registry`] renders — integer samples
//! stay exact `u64`s, label order and escape sequences are preserved.
//!
//! [`Registry`]: crate::metrics::Registry

use std::collections::HashMap;

use crate::metrics::{series_key, valid_name};

/// What [`validate`] learned about a well-formed exposition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExpoSummary {
    /// Families with a `# TYPE` declaration.
    pub families: usize,
    /// Total sample lines.
    pub samples: usize,
}

/// Validates `text` as Prometheus text exposition. Returns a summary
/// on success, or a message naming the first offending line.
pub fn validate(text: &str) -> Result<ExpoSummary, String> {
    let expo = parse(text)?;
    Ok(ExpoSummary {
        families: expo.families.iter().filter(|f| f.kind.is_some()).count(),
        samples: expo.samples().count(),
    })
}

/// A sample value: an exposition sample's, or one collected into a
/// [`SeriesStore`](crate::SeriesStore). Integer tokens and counter or
/// gauge readings stay exact `u64`s (the workspace
/// [`Registry`](crate::metrics::Registry) renders nothing else), so
/// re-rendering them reproduces the input bytes; everything else —
/// floats, negative numbers, `+Inf`, `-Inf`, `NaN`, derived
/// percentiles — is carried as an `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExpoValue {
    /// An exact non-negative integer sample.
    UInt(u64),
    /// Any other numeric sample.
    Float(f64),
}

impl ExpoValue {
    /// The value as a lossy `f64` (exact below 2^53).
    pub fn as_f64(self) -> f64 {
        match self {
            ExpoValue::UInt(v) => v as f64,
            ExpoValue::Float(f) => f,
        }
    }

    /// Renders the value in exposition syntax.
    pub fn render(self) -> String {
        match self {
            ExpoValue::UInt(v) => v.to_string(),
            ExpoValue::Float(f) if f == f64::INFINITY => "+Inf".to_string(),
            ExpoValue::Float(f) if f == f64::NEG_INFINITY => "-Inf".to_string(),
            ExpoValue::Float(f) if f.is_nan() => "NaN".to_string(),
            ExpoValue::Float(f) => format!("{f:?}"),
        }
    }
}

/// A parsed sample line: `name[{labels}] value [timestamp]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpoSample {
    /// The full sample name (including any `_bucket`/`_sum`/`_count`
    /// histogram suffix).
    pub name: String,
    /// Label pairs in source order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: ExpoValue,
    /// The optional millisecond timestamp.
    pub timestamp: Option<i64>,
}

impl ExpoSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A stable key over the labels, `le` excluded — identifies one
    /// histogram series across its bucket/sum/count lines.
    fn labels_key_without_le(&self) -> String {
        let mut pairs: Vec<String> = self
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        pairs.sort();
        pairs.join(",")
    }

    /// Renders the sample as one exposition line (with trailing
    /// newline).
    pub fn render(&self) -> String {
        let mut out = series_key(&self.name, &self.labels);
        out.push(' ');
        out.push_str(&self.value.render());
        if let Some(ts) = self.timestamp {
            out.push(' ');
            out.push_str(&ts.to_string());
        }
        out.push('\n');
        out
    }
}

/// A parsed metric family: every sample routed to one `# TYPE` (or, for
/// undeclared names, grouped by sample name with `kind == None`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpoFamily {
    /// The family name (histogram suffixes stripped).
    pub name: String,
    /// The raw `# HELP` text as written (escape sequences preserved).
    pub help: Option<String>,
    /// The declared kind (`counter`/`gauge`/`histogram`/`summary`/
    /// `untyped`), or `None` when the family was never declared.
    pub kind: Option<String>,
    /// The family's samples in source order.
    pub samples: Vec<ExpoSample>,
}

impl ExpoFamily {
    /// The first sample with this exact full `name` (suffix included).
    pub fn sample(&self, name: &str) -> Option<&ExpoSample> {
        self.samples.iter().find(|s| s.name == name)
    }
}

/// A fully parsed exposition: the structured inverse of
/// [`Registry::render`](crate::metrics::Registry::render).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Exposition {
    /// Families in declaration (or first-sample) order.
    pub families: Vec<ExpoFamily>,
}

impl Exposition {
    /// The family named `name`, if present.
    pub fn family(&self, name: &str) -> Option<&ExpoFamily> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Every sample across every family, in source order.
    pub fn samples(&self) -> impl Iterator<Item = &ExpoSample> {
        self.families.iter().flat_map(|f| f.samples.iter())
    }

    /// Renders the exposition back to text. For expositions produced by
    /// the workspace registry this reproduces the scraped bytes
    /// exactly; the output always validates and ends with a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            if let Some(help) = &f.help {
                out.push_str(&format!("# HELP {} {help}\n", f.name));
            }
            if let Some(kind) = &f.kind {
                out.push_str(&format!("# TYPE {} {kind}\n", f.name));
            }
            for s in &f.samples {
                out.push_str(&s.render());
            }
        }
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out
    }
}

/// What the checks track per family, beside its parsed form.
#[derive(Debug, Default)]
struct FamilyCheck {
    /// A sample was routed here while the family was undeclared, so a
    /// later `# TYPE` for it is out of order.
    sampled: bool,
    /// For histograms, per-label-set bucket/count state.
    hist: HashMap<String, HistState>,
}

#[derive(Debug, Default)]
struct HistState {
    last_le: Option<f64>,
    last_cum: Option<f64>,
    inf: Option<f64>,
    count: Option<f64>,
}

/// The families parsed so far, each with its [`FamilyCheck`].
#[derive(Default)]
struct Families {
    parsed: Vec<ExpoFamily>,
    checks: Vec<FamilyCheck>,
    index: HashMap<String, usize>,
}

impl Families {
    /// The index of family `name`, created (undeclared, empty) on first
    /// mention.
    fn entry(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        self.parsed.push(ExpoFamily {
            name: name.to_string(),
            help: None,
            kind: None,
            samples: Vec::new(),
        });
        self.checks.push(FamilyCheck::default());
        self.index.insert(name.to_string(), self.parsed.len() - 1);
        self.parsed.len() - 1
    }
}

/// Parses `text` into an [`Exposition`], checking it as it goes. An
/// error names the first offending line (or the histogram left
/// incomplete), so a successful parse is a valid exposition and
/// `parse(x).render()` always re-validates.
pub fn parse(text: &str) -> Result<Exposition, String> {
    if text.is_empty() {
        return Err("empty exposition".to_string());
    }
    if !text.ends_with('\n') {
        return Err("exposition does not end with a newline".to_string());
    }
    let mut fams = Families::default();
    // Declared histograms in `# TYPE` order, for the closing checks.
    let mut histograms: Vec<usize> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.splitn(2, ' ');
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("").trim();
                if !valid_name(name) {
                    return Err(format!("line {n}: bad metric name in TYPE: '{name}'"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {n}: unknown TYPE kind '{kind}'"));
                }
                let i = fams.entry(name);
                if fams.parsed[i].kind.is_some() {
                    return Err(format!("line {n}: duplicate TYPE for '{name}'"));
                }
                if fams.checks[i].sampled {
                    return Err(format!("line {n}: TYPE for '{name}' after its samples"));
                }
                fams.parsed[i].kind = Some(kind.to_string());
                if kind == "histogram" {
                    histograms.push(i);
                }
            } else if let Some(decl) = rest.strip_prefix("HELP ") {
                let mut parts = decl.splitn(2, ' ');
                let name = parts.next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {n}: bad metric name in HELP: '{name}'"));
                }
                let i = fams.entry(name);
                fams.parsed[i].help = Some(parts.next().unwrap_or("").to_string());
            }
            // Other comments are legal and ignored.
            continue;
        }
        let sample = parse_sample(line).map_err(|e| format!("line {n}: {e}"))?;
        // A `_bucket`/`_sum`/`_count` name whose stem is declared: a
        // histogram stem claims the sample; any other kind leaves it a
        // family of its own.
        let declared_stem = ["_bucket", "_sum", "_count"]
            .into_iter()
            .find_map(|suffix| {
                let &i = fams.index.get(sample.name.strip_suffix(suffix)?)?;
                fams.parsed[i].kind.as_deref().map(|kind| (i, suffix, kind))
            });
        let i = match declared_stem {
            Some((i, suffix, "histogram")) => {
                check_histogram_sample(&mut fams.checks[i], suffix, &sample)
                    .map_err(|e| format!("line {n}: {e}"))?;
                i
            }
            Some(_) => fams.entry(&sample.name),
            None => {
                let i = fams.entry(&sample.name);
                if fams.parsed[i].kind.as_deref() == Some("histogram") {
                    return Err(format!(
                        "line {n}: bare sample '{}' for histogram family",
                        sample.name
                    ));
                }
                fams.checks[i].sampled = true;
                i
            }
        };
        fams.parsed[i].samples.push(sample);
    }
    // Histogram closure: every labelled series needs +Inf == _count.
    for i in histograms {
        let name = &fams.parsed[i].name;
        let series = &fams.checks[i].hist;
        if series.is_empty() {
            return Err(format!("histogram '{name}' has no samples"));
        }
        for (labels, hist) in series {
            let what = if labels.is_empty() {
                name.clone()
            } else {
                format!("{name}{{{labels}}}")
            };
            let inf = hist
                .inf
                .ok_or_else(|| format!("histogram '{what}' missing +Inf bucket"))?;
            let count = hist
                .count
                .ok_or_else(|| format!("histogram '{what}' missing _count"))?;
            if inf != count {
                return Err(format!(
                    "histogram '{what}': +Inf bucket {inf} != count {count}"
                ));
            }
        }
    }
    Ok(Exposition {
        families: fams.parsed,
    })
}

/// Checks one `_bucket`/`_sum`/`_count` sample of a histogram series:
/// a bucket carries an `le` bound above the previous one and a count
/// no smaller than the previous one.
fn check_histogram_sample(
    check: &mut FamilyCheck,
    suffix: &str,
    sample: &ExpoSample,
) -> Result<(), String> {
    let hist = check
        .hist
        .entry(sample.labels_key_without_le())
        .or_default();
    let value = sample.value.as_f64();
    match suffix {
        "_bucket" => {
            let le = sample
                .label("le")
                .ok_or("histogram bucket without le label")?;
            let le = parse_le(le).ok_or_else(|| format!("bad le bound '{le}'"))?;
            if hist.last_le.is_some_and(|prev| le <= prev) {
                return Err("le bounds not increasing".to_string());
            }
            if hist.last_cum.is_some_and(|prev| value < prev) {
                return Err("bucket counts not cumulative".to_string());
            }
            hist.last_le = Some(le);
            hist.last_cum = Some(value);
            if le.is_infinite() {
                hist.inf = Some(value);
            }
        }
        "_count" => hist.count = Some(value),
        _ => {}
    }
    Ok(())
}

/// Parses one `name[{labels}] value [timestamp]` line.
fn parse_sample(line: &str) -> Result<ExpoSample, String> {
    let name_end = line.find(['{', ' ']).ok_or("sample line without value")?;
    let name = &line[..name_end];
    if !valid_name(name) {
        return Err(format!("bad metric name '{name}'"));
    }
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(body) = rest.strip_prefix('{') {
        let (parsed, after) = parse_labels(body)?;
        labels = parsed;
        rest = after;
    }
    let rest = rest.trim_start();
    let mut parts = rest.split(' ').filter(|p| !p.is_empty());
    let value = parts.next().ok_or("missing sample value")?;
    let value = parse_value(value).ok_or_else(|| format!("bad sample value '{value}'"))?;
    let timestamp = match parts.next() {
        Some(ts) => Some(
            ts.parse::<i64>()
                .map_err(|_| format!("bad timestamp '{ts}'"))?,
        ),
        None => None,
    };
    if parts.next().is_some() {
        return Err("trailing garbage after sample".to_string());
    }
    Ok(ExpoSample {
        name: name.to_string(),
        labels,
        value,
        timestamp,
    })
}

/// Parsed label pairs plus the remainder of the line.
type ParsedLabels<'a> = (Vec<(String, String)>, &'a str);

/// Parses a `key="value",...}` label block; returns the pairs and the
/// remainder of the line after the closing brace.
fn parse_labels(mut body: &str) -> Result<ParsedLabels<'_>, String> {
    let mut labels = Vec::new();
    loop {
        body = body.trim_start_matches(',');
        if let Some(rest) = body.strip_prefix('}') {
            return Ok((labels, rest));
        }
        let eq = body.find('=').ok_or("label without '='")?;
        let key = &body[..eq];
        if !valid_name(key) {
            return Err(format!("bad label name '{key}'"));
        }
        body = body[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value not quoted")?;
        let mut value = String::new();
        let mut chars = body.char_indices();
        let close = loop {
            let (i, c) = chars.next().ok_or("unterminated label value")?;
            match c {
                '"' => break i,
                '\\' => {
                    let (_, esc) = chars.next().ok_or("dangling escape")?;
                    match esc {
                        '\\' => value.push('\\'),
                        '"' => value.push('"'),
                        'n' => value.push('\n'),
                        other => return Err(format!("bad escape '\\{other}'")),
                    }
                }
                c => value.push(c),
            }
        };
        labels.push((key.to_string(), value));
        body = &body[close + 1..];
    }
}

/// Parses a sample value: decimal, float, or the IEEE special names.
/// Plain digit runs stay exact `u64`s.
fn parse_value(s: &str) -> Option<ExpoValue> {
    match s {
        "+Inf" => return Some(ExpoValue::Float(f64::INFINITY)),
        "-Inf" => return Some(ExpoValue::Float(f64::NEG_INFINITY)),
        "NaN" => return Some(ExpoValue::Float(f64::NAN)),
        _ => {}
    }
    if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(v) = s.parse::<u64>() {
            return Some(ExpoValue::UInt(v));
        }
    }
    s.parse::<f64>().ok().map(ExpoValue::Float)
}

/// Parses an `le` bound (a float or `+Inf`).
fn parse_le(s: &str) -> Option<f64> {
    if s == "+Inf" {
        return Some(f64::INFINITY);
    }
    s.parse::<f64>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn registry_output_always_validates() {
        let reg = Registry::new();
        reg.counter("predllc_jobs_total", "Jobs").add(3);
        reg.gauge("predllc_workers_alive", "Live workers").set(2);
        let h = reg.histogram_with("predllc_rtt_ns", "RTT", "worker", "w-0");
        for v in [5u64, 900, 70_000] {
            h.record_ns(v);
        }
        reg.histogram("predllc_empty_ns", "Never recorded");
        let text = reg.render();
        let summary = validate(&text).expect("registry output must validate");
        assert_eq!(summary.families, 4);
        assert!(summary.samples >= 8);
    }

    #[test]
    fn structural_errors_are_caught() {
        assert!(validate("").is_err());
        assert!(validate("predllc_x 1").is_err(), "missing trailing newline");
        assert!(validate("9bad_name 1\n").is_err());
        assert!(validate("predllc_x notanumber\n").is_err());
        assert!(
            validate("# TYPE predllc_h histogram\npredllc_h_bucket{le=\"+Inf\"} 2\npredllc_h_sum 3\npredllc_h_count 1\n")
                .is_err(),
            "+Inf != count"
        );
        assert!(
            validate("# TYPE predllc_h histogram\npredllc_h_sum 3\npredllc_h_count 1\n").is_err(),
            "missing +Inf bucket"
        );
        assert!(
            validate(concat!(
                "# TYPE predllc_h histogram\n",
                "predllc_h_bucket{le=\"10\"} 5\n",
                "predllc_h_bucket{le=\"20\"} 3\n",
                "predllc_h_bucket{le=\"+Inf\"} 5\n",
                "predllc_h_sum 1\npredllc_h_count 5\n"
            ))
            .is_err(),
            "non-cumulative buckets"
        );
        assert!(
            validate("# TYPE predllc_x counter\n# TYPE predllc_x counter\npredllc_x 1\n").is_err()
        );
    }

    #[test]
    fn labels_escapes_and_timestamps_parse() {
        let text = concat!(
            "# HELP predllc_x helpful text\n",
            "# TYPE predllc_x gauge\n",
            "predllc_x{path=\"a\\\\b\",msg=\"say \\\"hi\\\"\\n\"} 4.5 1712000000\n"
        );
        let summary = validate(text).expect("labelled sample must parse");
        assert_eq!(summary.samples, 1);
    }

    #[test]
    fn parse_is_structured_and_rejects_what_validate_rejects() {
        let text = concat!(
            "# HELP predllc_x helpful text\n",
            "# TYPE predllc_x gauge\n",
            "predllc_x{path=\"a\\\\b\"} 4.5 1712000000\n",
            "predllc_y_total 7\n"
        );
        let expo = parse(text).expect("must parse");
        assert_eq!(expo.families.len(), 2);
        let x = expo.family("predllc_x").expect("family x");
        assert_eq!(x.help.as_deref(), Some("helpful text"));
        assert_eq!(x.kind.as_deref(), Some("gauge"));
        assert_eq!(x.samples[0].label("path"), Some("a\\b"));
        assert_eq!(x.samples[0].value, ExpoValue::Float(4.5));
        assert_eq!(x.samples[0].timestamp, Some(1_712_000_000));
        let y = expo.family("predllc_y_total").expect("undeclared family");
        assert_eq!(y.kind, None);
        assert_eq!(y.samples[0].value, ExpoValue::UInt(7));
        assert!(parse("predllc_x 1").is_err(), "no trailing newline");
        assert!(parse("9bad 1\n").is_err());
    }

    #[test]
    fn parse_groups_histogram_suffixes_under_their_family() {
        let reg = Registry::new();
        let h = reg.histogram_with("predllc_rtt_ns", "RTT", "worker", "w-0");
        h.record_ns(7);
        h.record_ns(900);
        let text = reg.render();
        let expo = parse(&text).expect("histogram exposition parses");
        let fam = expo.family("predllc_rtt_ns").expect("histogram family");
        assert_eq!(fam.kind.as_deref(), Some("histogram"));
        assert!(fam.sample("predllc_rtt_ns_sum").is_some());
        assert!(fam.sample("predllc_rtt_ns_count").is_some());
        assert!(fam
            .samples
            .iter()
            .any(|s| s.name == "predllc_rtt_ns_bucket" && s.label("le") == Some("+Inf")));
    }

    #[test]
    fn parse_render_is_byte_identical_for_registry_output() {
        let reg = Registry::new();
        reg.counter("predllc_jobs_total", "Jobs").add(41);
        reg.gauge("predllc_depth", "Queue depth").set(3);
        reg.counter_with("predllc_by_worker", "Per worker", "worker", "127.0.0.1:1")
            .add(9);
        let h = reg.histogram_with("predllc_rtt_ns", "RTT", "worker", "w \"q\"\n\\x");
        for v in [0u64, 5, 5, 70_000, u64::MAX / 7] {
            h.record_ns(v);
        }
        let text = reg.render();
        let expo = parse(&text).expect("parses");
        assert_eq!(expo.render(), text, "parse∘render must be identity");
    }
}
