//! The exact-integer attribution extension of the point wire format:
//! per-component cycle totals, the [`WclWitness`] and the analytical
//! gap decomposition of one grid point, serialized losslessly through
//! the in-tree [`json`](crate::json) layer.
//!
//! Like the rest of [`PointMeasurement`](crate::PointMeasurement), the
//! format carries **only exact integers** — component totals, witness
//! cycles and gap budgets are `u64`s; the signed per-component slack is
//! recomputed from its two unsigned halves at the receiver — so a fleet
//! worker's attribution is bit-identical to the in-process one after a
//! wire round trip. The extension is strictly additive: a measurement
//! without attribution renders byte-identically to one taken before
//! this module existed.

use predllc_core::analysis::{GapComponent, GapEntry, MemoryAwareWcl, WclGapReport};
use predllc_core::{AttributionReport, Component, ComponentSet, SystemConfig, WclWitness};
use predllc_model::{BankId, CoreId, Cycles, LineAddr};

use crate::json::Json;

/// One grid point's attribution summary: the summed per-component
/// decomposition across every completed request, the run's WCL witness
/// and (when the analysis covers the configuration) the analytical gap
/// split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointAttribution {
    /// Per-component cycles summed over every completed request; the
    /// total is exactly the sum of all recorded request latencies.
    pub components: ComponentSet,
    /// The request that achieved the point's observed WCL (`None` when
    /// the run completed no request).
    pub witness: Option<WclWitness>,
    /// The analytical-vs-observed gap decomposition (`None` without a
    /// witness or a sound analytical bound).
    pub gap: Option<PointGap>,
}

/// The wire form of a [`WclGapReport`]: the bound, the observed WCL and
/// the per-component analytical/observed cycles in
/// [`GapComponent::ALL`] order (slack is derived, not shipped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointGap {
    /// The applicable analytical WCL bound.
    pub analytical_wcl: u64,
    /// The observed WCL (the witness's latency).
    pub observed_wcl: u64,
    /// Per-component entries in [`GapComponent::ALL`] order.
    pub entries: Vec<GapEntry>,
}

impl PointGap {
    fn from_report(report: &WclGapReport) -> PointGap {
        PointGap {
            analytical_wcl: report.analytical_wcl.as_u64(),
            observed_wcl: report.observed_wcl.as_u64(),
            entries: report.entries().to_vec(),
        }
    }

    /// `analytical_wcl − observed_wcl`, signed; the entries' slacks sum
    /// to it exactly.
    pub fn gap(&self) -> i64 {
        self.analytical_wcl as i64 - self.observed_wcl as i64
    }
}

impl PointAttribution {
    /// Summarizes a run's [`AttributionReport`] for the wire, deriving
    /// the gap split from `config`'s analytical bound when one exists.
    pub(crate) fn from_report(
        config: &SystemConfig,
        report: &AttributionReport,
    ) -> PointAttribution {
        let witness = report.witness().cloned();
        let gap = witness.as_ref().and_then(|w| {
            MemoryAwareWcl::from_config(config)
                .ok()
                .and_then(|m| m.bound())
                .map(|bound| PointGap::from_report(&WclGapReport::against(config, bound, w)))
        });
        PointAttribution {
            components: report.total_components(),
            witness,
            gap,
        }
    }

    /// Renders the attribution as a JSON value of exact integers.
    pub(crate) fn to_json(&self) -> Json {
        let mut members = vec![("components".into(), components_json(&self.components))];
        if let Some(w) = &self.witness {
            members.push(("witness".into(), witness_json(w)));
        }
        if let Some(g) = &self.gap {
            members.push(("gap".into(), gap_json(g)));
        }
        Json::Object(members)
    }

    /// Rebuilds an attribution from its JSON wire form (the value the
    /// fleet's point replies carry).
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json(doc: &Json) -> Result<PointAttribution, String> {
        let components = parse_components(
            doc.get("components")
                .ok_or("attribution field 'components' missing")?,
            "components",
        )?;
        let witness = match doc.get("witness") {
            None => None,
            Some(w) => Some(parse_witness(w)?),
        };
        let gap = match doc.get("gap") {
            None => None,
            Some(g) => Some(parse_gap(g)?),
        };
        Ok(PointAttribution {
            components,
            witness,
            gap,
        })
    }
}

fn components_json(set: &ComponentSet) -> Json {
    Json::Array(set.as_parts().iter().map(|&v| Json::UInt(v)).collect())
}

fn parse_components(value: &Json, at: &str) -> Result<ComponentSet, String> {
    let items = value
        .as_array()
        .ok_or_else(|| format!("attribution field '{at}' is not an array"))?;
    if items.len() != Component::ALL.len() {
        return Err(format!(
            "attribution field '{at}' has {} entries, expected {}",
            items.len(),
            Component::ALL.len()
        ));
    }
    let mut parts = [0u64; Component::ALL.len()];
    for (i, item) in items.iter().enumerate() {
        parts[i] = item
            .as_u64()
            .ok_or_else(|| format!("attribution field '{at}[{i}]' is not an integer"))?;
    }
    Ok(ComponentSet::from_parts(parts))
}

fn witness_json(w: &WclWitness) -> Json {
    let interferers = w
        .interferers
        .iter()
        .map(|s| {
            let mut members = vec![("core".into(), Json::UInt(u64::from(s.core.index())))];
            if let Some(line) = s.pending_line {
                members.push(("pending_line".into(), Json::UInt(line.as_u64())));
            }
            if let Some(since) = s.pending_since {
                members.push(("pending_since".into(), Json::UInt(since.as_u64())));
            }
            members.push(("pwb_depth".into(), Json::UInt(s.pwb_depth as u64)));
            members.push(("writebacks_sent".into(), Json::UInt(s.writebacks_sent)));
            members.push(("blocked_slots".into(), Json::UInt(s.blocked_slots)));
            Json::Object(members)
        })
        .collect();
    let open_rows = w
        .open_rows
        .iter()
        .map(|&(bank, row)| Json::Array(vec![Json::UInt(u64::from(bank.index())), Json::UInt(row)]))
        .collect();
    Json::Object(vec![
        ("core".into(), Json::UInt(u64::from(w.core.index()))),
        ("line".into(), Json::UInt(w.line.as_u64())),
        ("issued_at".into(), Json::UInt(w.issued_at.as_u64())),
        ("completed_at".into(), Json::UInt(w.completed_at.as_u64())),
        ("latency".into(), Json::UInt(w.latency.as_u64())),
        ("slot".into(), Json::UInt(w.slot)),
        ("components".into(), components_json(&w.components)),
        ("interferers".into(), Json::Array(interferers)),
        ("open_rows".into(), Json::Array(open_rows)),
    ])
}

fn field_u64(doc: &Json, key: &str, at: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{at} field '{key}' missing or not an integer"))
}

fn core_id(value: u64, at: &str) -> Result<CoreId, String> {
    u16::try_from(value)
        .map(CoreId::new)
        .map_err(|_| format!("{at} core id {value} out of range"))
}

fn parse_witness(doc: &Json) -> Result<WclWitness, String> {
    let mut interferers = Vec::new();
    for (i, s) in doc
        .get("interferers")
        .and_then(Json::as_array)
        .ok_or("witness field 'interferers' missing or not an array")?
        .iter()
        .enumerate()
    {
        let at = format!("witness interferer[{i}]");
        interferers.push(predllc_core::attribution::InterfererSnapshot {
            core: core_id(field_u64(s, "core", &at)?, &at)?,
            pending_line: s
                .get("pending_line")
                .map(Json::as_u64)
                .map(|v| {
                    v.map(LineAddr::new)
                        .ok_or_else(|| format!("{at} pending_line not an integer"))
                })
                .transpose()?,
            pending_since: s
                .get("pending_since")
                .map(Json::as_u64)
                .map(|v| {
                    v.map(Cycles::new)
                        .ok_or_else(|| format!("{at} pending_since not an integer"))
                })
                .transpose()?,
            pwb_depth: field_u64(s, "pwb_depth", &at)? as usize,
            writebacks_sent: field_u64(s, "writebacks_sent", &at)?,
            blocked_slots: field_u64(s, "blocked_slots", &at)?,
        });
    }
    let mut open_rows = Vec::new();
    for (i, pair) in doc
        .get("open_rows")
        .and_then(Json::as_array)
        .ok_or("witness field 'open_rows' missing or not an array")?
        .iter()
        .enumerate()
    {
        match pair.as_array() {
            Some([bank, row]) => {
                let bank = bank
                    .as_u64()
                    .and_then(|b| u32::try_from(b).ok())
                    .ok_or(format!("witness open_rows[{i}] bank not a valid integer"))?;
                open_rows.push((
                    BankId::new(bank),
                    row.as_u64()
                        .ok_or(format!("witness open_rows[{i}] row not an integer"))?,
                ));
            }
            _ => return Err(format!("witness open_rows[{i}] is not a [bank, row] pair")),
        }
    }
    Ok(WclWitness {
        core: core_id(field_u64(doc, "core", "witness")?, "witness")?,
        line: LineAddr::new(field_u64(doc, "line", "witness")?),
        issued_at: Cycles::new(field_u64(doc, "issued_at", "witness")?),
        completed_at: Cycles::new(field_u64(doc, "completed_at", "witness")?),
        latency: Cycles::new(field_u64(doc, "latency", "witness")?),
        slot: field_u64(doc, "slot", "witness")?,
        components: parse_components(
            doc.get("components")
                .ok_or("witness field 'components' missing")?,
            "witness components",
        )?,
        interferers,
        open_rows,
    })
}

fn gap_json(g: &PointGap) -> Json {
    Json::Object(vec![
        ("analytical_wcl".into(), Json::UInt(g.analytical_wcl)),
        ("observed_wcl".into(), Json::UInt(g.observed_wcl)),
        (
            "analytical".into(),
            Json::Array(
                g.entries
                    .iter()
                    .map(|e| Json::UInt(e.analytical.as_u64()))
                    .collect(),
            ),
        ),
        (
            "observed".into(),
            Json::Array(
                g.entries
                    .iter()
                    .map(|e| Json::UInt(e.observed.as_u64()))
                    .collect(),
            ),
        ),
    ])
}

fn parse_gap(doc: &Json) -> Result<PointGap, String> {
    let axis = |key: &str| -> Result<Vec<u64>, String> {
        let items = doc
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("gap field '{key}' missing or not an array"))?;
        if items.len() != GapComponent::ALL.len() {
            return Err(format!(
                "gap field '{key}' has {} entries, expected {}",
                items.len(),
                GapComponent::ALL.len()
            ));
        }
        items
            .iter()
            .enumerate()
            .map(|(i, v)| {
                v.as_u64()
                    .ok_or_else(|| format!("gap field '{key}[{i}]' is not an integer"))
            })
            .collect()
    };
    let analytical = axis("analytical")?;
    let observed = axis("observed")?;
    let entries = GapComponent::ALL
        .iter()
        .enumerate()
        .map(|(i, &component)| GapEntry {
            component,
            analytical: Cycles::new(analytical[i]),
            observed: Cycles::new(observed[i]),
            slack: analytical[i] as i64 - observed[i] as i64,
        })
        .collect();
    Ok(PointGap {
        analytical_wcl: field_u64(doc, "analytical_wcl", "gap")?,
        observed_wcl: field_u64(doc, "observed_wcl", "gap")?,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use predllc_core::{SharingMode, Simulator, SystemConfig};
    use predllc_model::{Address, MemOp};

    fn attributed_point() -> (SystemConfig, PointAttribution) {
        let cfg = SystemConfig::shared_partition(1, 16, 4, SharingMode::SetSequencer)
            .unwrap()
            .with_attribution(true);
        let traces: Vec<Vec<MemOp>> = (0..4)
            .map(|c| {
                vec![
                    MemOp::read(Address::new(c * 64)),
                    MemOp::read(Address::new(4096 + c * 64)),
                ]
            })
            .collect();
        let report = Simulator::new(cfg.clone()).unwrap().run(traces).unwrap();
        let attr = PointAttribution::from_report(&cfg, report.attribution().unwrap());
        (cfg, attr)
    }

    #[test]
    fn attribution_round_trips_exactly() {
        let (_, attr) = attributed_point();
        assert!(attr.witness.is_some());
        assert!(attr.gap.is_some());
        let wire = attr.to_json().render();
        let back = PointAttribution::from_json(&json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, attr, "round trip changed the attribution: {wire}");
        // Rendering is deterministic, so the wire form is too.
        assert_eq!(back.to_json().render(), wire);
    }

    #[test]
    fn gap_slacks_survive_the_unsigned_wire() {
        let (_, attr) = attributed_point();
        let gap = attr.gap.as_ref().unwrap();
        let slack: i64 = gap.entries.iter().map(|e| e.slack).sum();
        assert_eq!(slack, gap.gap());
        let wire = attr.to_json().render();
        let back = PointAttribution::from_json(&json::parse(&wire).unwrap()).unwrap();
        let back_gap = back.gap.unwrap();
        assert_eq!(back_gap.entries, gap.entries);
        assert_eq!(back_gap.gap(), gap.gap());
    }

    #[test]
    fn corrupt_attribution_is_rejected() {
        let (_, attr) = attributed_point();
        let wire = attr.to_json().render();
        for (needle, replacement, expect) in [
            ("\"components\"", "\"komponents\"", "components"),
            ("\"latency\"", "\"latencia\"", "latency"),
            ("\"analytical_wcl\"", "\"wcl\"", "analytical_wcl"),
        ] {
            let broken = wire.replacen(needle, replacement, 1);
            let err = PointAttribution::from_json(&json::parse(&broken).unwrap()).unwrap_err();
            assert!(err.contains(expect), "{err} should mention {expect}");
        }
        // A truncated component vector is inconsistent, not resized.
        let doc = json::parse(&wire).unwrap();
        let mut members = doc.as_object().unwrap().to_vec();
        for m in &mut members {
            if m.0 == "components" {
                m.1 = Json::Array(vec![Json::UInt(1)]);
            }
        }
        assert!(PointAttribution::from_json(&Json::Object(members))
            .unwrap_err()
            .contains("entries"));
    }
}
