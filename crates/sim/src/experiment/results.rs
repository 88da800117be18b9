//! Result collection: per-run records, baseline normalisation, geo-means
//! and dependency-free CSV/JSON export.
//!
//! Every exported table is an [`ExportRow`] type: [`RunSummary`] (one row
//! per run), [`TenantSummary`] (one row per run and tenant) and
//! [`ShardSummary`] (one row per sharded run and shard). Each declares its
//! columns once; one CSV writer, CSV reader, JSON writer and JSON reader
//! serve all three.

use crate::runner::RunMetrics;
use crate::schemes::Scheme;
use palermo_analysis::stats::geometric_mean;
use palermo_workloads::{Workload, WorkloadSpec};
use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// The outcome of one executed [`RunSpec`](super::RunSpec).
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The spec's label.
    pub label: String,
    /// The scheme that was simulated.
    pub scheme: Scheme,
    /// The workload spec that drove it.
    pub workload: WorkloadSpec,
    /// Full metrics of the measured window.
    pub metrics: RunMetrics,
}

/// One cell of an exported row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A string: CSV replaces `,` by `;` and control characters by spaces;
    /// JSON quotes and escapes it.
    Text(String),
    /// A number, written verbatim in both formats.
    Num(String),
}

fn text(s: impl Into<String>) -> Cell {
    Cell::Text(s.into())
}

fn num(v: impl Display) -> Cell {
    Cell::Num(v.to_string())
}

/// Reads a row's cells back in column order.
struct CellReader<'a>(std::slice::Iter<'a, String>);

impl CellReader<'_> {
    fn text(&mut self) -> Option<String> {
        self.0.next().cloned()
    }

    fn num<T: FromStr>(&mut self) -> Option<T> {
        self.0.next()?.parse().ok()
    }
}

/// One row type of the exported tables, and the CSV/JSON codec shared by
/// all of them.
///
/// A row type declares its columns once: [`ExportRow::HEADER`] names them,
/// [`ExportRow::cells`] renders a row's values in that order and
/// [`ExportRow::from_cells`] reads them back. The provided methods write
/// and read whole documents:
///
/// * CSV: the header line, then one line per row. Text cells have `,`
///   replaced by `;` and control characters by spaces, so every row stays
///   one line with one cell per column.
/// * JSON: an array of flat objects keyed by the column names, one object
///   per line; an empty table is `[]`. Text cells are escaped, so every
///   string survives exactly.
///
/// Numbers use Rust's shortest round-trippable formatting, so
/// `parse_json(&to_json(rows)) == Some(rows)` exactly, and `parse_csv`
/// inverts `to_csv` up to the CSV replacements above. The readers are
/// minimal readers for the shape the writers emit, not general CSV or JSON
/// parsers; they return `None` on a malformed document or an unknown
/// scheme or workload name, and never panic.
pub trait ExportRow: Sized {
    /// The comma-separated column names, in cell order.
    const HEADER: &'static str;

    /// The rows one record contributes to this table.
    fn rows(record: &RunRecord) -> Vec<Self>;

    /// This row's cells, one per column of [`ExportRow::HEADER`].
    fn cells(&self) -> Vec<Cell>;

    /// Rebuilds a row from its cells' text (string cells already
    /// unescaped), or `None` if a cell does not parse.
    fn from_cells(cells: &[String]) -> Option<Self>;

    /// Renders `rows` as CSV, header line first.
    fn to_csv(rows: &[Self]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", Self::HEADER);
        for row in rows {
            let cells: Vec<String> = row
                .cells()
                .into_iter()
                .map(|cell| match cell {
                    Cell::Text(s) => sanitize_csv(&s),
                    Cell::Num(s) => s,
                })
                .collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }

    /// Parses CSV written by [`ExportRow::to_csv`].
    fn parse_csv(csv: &str) -> Option<Vec<Self>> {
        let mut lines = csv.lines();
        if lines.next()? != Self::HEADER {
            return None;
        }
        let width = Self::HEADER.split(',').count();
        lines
            .map(|line| {
                let cells: Vec<String> = line.split(',').map(str::to_string).collect();
                if cells.len() != width {
                    return None;
                }
                Self::from_cells(&cells)
            })
            .collect()
    }

    /// Renders `rows` as a JSON array of flat objects.
    fn to_json(rows: &[Self]) -> String {
        if rows.is_empty() {
            return "[]\n".to_string();
        }
        let objects: Vec<String> = rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = Self::HEADER
                    .split(',')
                    .zip(row.cells())
                    .map(|(key, cell)| match cell {
                        Cell::Text(s) => format!("\"{key}\":\"{}\"", escape_json(&s)),
                        Cell::Num(s) => format!("\"{key}\":{s}"),
                    })
                    .collect();
                format!("  {{{}}}", fields.join(","))
            })
            .collect();
        format!("[\n{}\n]\n", objects.join(",\n"))
    }

    /// Parses JSON written by [`ExportRow::to_json`].
    fn parse_json(json: &str) -> Option<Vec<Self>> {
        let body = json.trim();
        let body = body.strip_prefix('[')?.strip_suffix(']')?.trim();
        if body.is_empty() {
            return Some(Vec::new());
        }
        split_top_level_objects(body)?
            .iter()
            .map(|object| {
                let cells = Self::HEADER
                    .split(',')
                    .map(|key| json_field(object, key))
                    .collect::<Option<Vec<_>>>()?;
                Self::from_cells(&cells)
            })
            .collect()
    }
}

/// The scalar per-run summary: one row of the run table.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// The spec's label.
    pub label: String,
    /// The scheme.
    pub scheme: Scheme,
    /// The workload spec, exported by its canonical name
    /// ([`WorkloadSpec::name`]) and parsed back with
    /// [`WorkloadSpec::from_name`].
    pub workload: WorkloadSpec,
    /// Prefetch length the run used (1 = none).
    pub prefetch_length: u32,
    /// Real ORAM requests completed in the measured window.
    pub oram_requests: u64,
    /// Workload accesses consumed in the measured window.
    pub workload_accesses: u64,
    /// Dummy (background-eviction) requests completed.
    pub dummy_requests: u64,
    /// Cycles spent in the measured window.
    pub cycles: u64,
    /// Mean ORAM response latency in cycles.
    pub mean_latency: f64,
    /// LLC hit rate over the whole run.
    pub llc_hit_rate: f64,
    /// Highest stash occupancy observed anywhere in the hierarchy.
    pub stash_high_water: usize,
    /// DRAM data-bus utilisation over the measured window.
    pub bandwidth_utilization: f64,
    /// Total ORAM-sync stall cycles over the measured window.
    pub sync_stall_cycles: u64,
    /// Open-loop arrivals resolved in the measured window (0 for
    /// closed-loop runs).
    pub arrivals: u64,
    /// Open-loop arrivals dropped by the admission policy in the measured
    /// window (0 for closed-loop runs).
    pub dropped_arrivals: u64,
    /// Mean admission-queue wait in cycles (0 for closed-loop runs).
    pub mean_queue_wait: f64,
    /// Shard count of a sharded run (0 for single-system runs — the
    /// per-shard rows live in the shard table).
    pub shards: u32,
    /// Name of the hardware profile the run executed on ("ddr4-3200" for
    /// the default).
    pub hardware: String,
    /// Total memory energy of the measured window, joules.
    pub energy_j: f64,
}

impl RunSummary {
    /// Measured workload accesses per cycle (the end-to-end speedup metric).
    pub fn accesses_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.workload_accesses as f64 / self.cycles as f64
    }
}

impl ExportRow for RunSummary {
    const HEADER: &'static str = "label,scheme,workload,prefetch_length,oram_requests,\
workload_accesses,dummy_requests,cycles,mean_latency,llc_hit_rate,stash_high_water,\
bandwidth_utilization,sync_stall_cycles,arrivals,dropped_arrivals,mean_queue_wait,shards,\
hardware,energy_j";

    fn rows(record: &RunRecord) -> Vec<Self> {
        let m = &record.metrics;
        vec![RunSummary {
            label: record.label.clone(),
            scheme: record.scheme,
            workload: record.workload.clone(),
            prefetch_length: m.prefetch_length,
            oram_requests: m.oram_requests,
            workload_accesses: m.workload_accesses,
            dummy_requests: m.dummy_requests,
            cycles: m.cycles,
            mean_latency: m.mean_latency(),
            llc_hit_rate: m.llc_hit_rate,
            stash_high_water: m.stash_high_water,
            bandwidth_utilization: m.dram.bandwidth_utilization(),
            sync_stall_cycles: m.sync_stall_cycles,
            arrivals: m.arrivals,
            dropped_arrivals: m.dropped_arrivals,
            mean_queue_wait: m.mean_queue_wait(),
            shards: m.per_shard.len() as u32,
            hardware: m.hardware.clone(),
            energy_j: m.energy_j(),
        }]
    }

    fn cells(&self) -> Vec<Cell> {
        vec![
            text(&self.label),
            text(self.scheme.name()),
            text(self.workload.name()),
            num(self.prefetch_length),
            num(self.oram_requests),
            num(self.workload_accesses),
            num(self.dummy_requests),
            num(self.cycles),
            num(self.mean_latency),
            num(self.llc_hit_rate),
            num(self.stash_high_water),
            num(self.bandwidth_utilization),
            num(self.sync_stall_cycles),
            num(self.arrivals),
            num(self.dropped_arrivals),
            num(self.mean_queue_wait),
            num(self.shards),
            text(&self.hardware),
            num(self.energy_j),
        ]
    }

    fn from_cells(cells: &[String]) -> Option<Self> {
        let mut c = CellReader(cells.iter());
        Some(RunSummary {
            label: c.text()?,
            scheme: Scheme::from_name(&c.text()?)?,
            workload: WorkloadSpec::from_name(&c.text()?)?,
            prefetch_length: c.num()?,
            oram_requests: c.num()?,
            workload_accesses: c.num()?,
            dummy_requests: c.num()?,
            cycles: c.num()?,
            mean_latency: c.num()?,
            llc_hit_rate: c.num()?,
            stash_high_water: c.num()?,
            bandwidth_utilization: c.num()?,
            sync_stall_cycles: c.num()?,
            arrivals: c.num()?,
            dropped_arrivals: c.num()?,
            mean_queue_wait: c.num()?,
            shards: c.num()?,
            hardware: c.text()?,
            energy_j: c.num()?,
        })
    }
}

/// One tenant's scalar QoS summary of one run: one row of the tenant
/// table. One run contributes one row per tenant (none when it ran with
/// per-tenant attribution disabled).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// The run's label.
    pub label: String,
    /// The scheme.
    pub scheme: Scheme,
    /// The workload spec of the whole run (canonical name in the exports).
    pub workload: WorkloadSpec,
    /// Tenant index within the spec.
    pub tenant: u32,
    /// Canonical name of the tenant's child workload (= the spec name for
    /// single-tenant runs).
    pub tenant_workload: String,
    /// Real requests submitted while the measured window was open.
    pub submitted: u64,
    /// Real requests completed inside the measured window.
    pub completed: u64,
    /// Workload accesses consumed by the completed requests.
    pub workload_accesses: u64,
    /// Mean response latency in cycles.
    pub mean_latency: f64,
    /// Median latency estimate in cycles.
    pub p50_latency: u64,
    /// 95th-percentile latency estimate in cycles.
    pub p95_latency: u64,
    /// 99th-percentile tail latency estimate in cycles.
    pub p99_latency: u64,
    /// DRAM bursts issued for the tenant's completed requests.
    pub dram_ops: u64,
    /// The tenant's share of all tenant-attributed DRAM bursts in the run.
    pub dram_share: f64,
    /// The tenant's share of the run's memory energy in joules,
    /// attributed proportionally to `dram_ops` — the per-tenant bill next
    /// to the per-tenant p99.
    pub energy_j: f64,
}

impl ExportRow for TenantSummary {
    const HEADER: &'static str = "label,scheme,workload,tenant,tenant_workload,\
submitted,completed,workload_accesses,mean_latency,p50_latency,p95_latency,p99_latency,\
dram_ops,dram_share,energy_j";

    fn rows(record: &RunRecord) -> Vec<Self> {
        let m = &record.metrics;
        m.per_tenant
            .iter()
            .map(|t| TenantSummary {
                label: record.label.clone(),
                scheme: record.scheme,
                workload: record.workload.clone(),
                tenant: t.tenant,
                tenant_workload: record
                    .workload
                    .tenant_workload_name(t.tenant as usize)
                    .unwrap_or_default(),
                submitted: t.submitted,
                completed: t.completed,
                workload_accesses: t.workload_accesses,
                mean_latency: t.mean_latency(),
                p50_latency: t.p50_latency(),
                p95_latency: t.p95_latency(),
                p99_latency: t.p99_latency(),
                dram_ops: t.dram_ops,
                dram_share: m.tenant_dram_share(t.tenant as usize),
                energy_j: m.tenant_energy_j(t.tenant as usize),
            })
            .collect()
    }

    fn cells(&self) -> Vec<Cell> {
        vec![
            text(&self.label),
            text(self.scheme.name()),
            text(self.workload.name()),
            num(self.tenant),
            text(&self.tenant_workload),
            num(self.submitted),
            num(self.completed),
            num(self.workload_accesses),
            num(self.mean_latency),
            num(self.p50_latency),
            num(self.p95_latency),
            num(self.p99_latency),
            num(self.dram_ops),
            num(self.dram_share),
            num(self.energy_j),
        ]
    }

    fn from_cells(cells: &[String]) -> Option<Self> {
        let mut c = CellReader(cells.iter());
        Some(TenantSummary {
            label: c.text()?,
            scheme: Scheme::from_name(&c.text()?)?,
            workload: WorkloadSpec::from_name(&c.text()?)?,
            tenant: c.num()?,
            tenant_workload: c.text()?,
            submitted: c.num()?,
            completed: c.num()?,
            workload_accesses: c.num()?,
            mean_latency: c.num()?,
            p50_latency: c.num()?,
            p95_latency: c.num()?,
            p99_latency: c.num()?,
            dram_ops: c.num()?,
            dram_share: c.num()?,
            energy_j: c.num()?,
        })
    }
}

/// One shard's scalar summary of one sharded run: one row of the shard
/// table. One sharded run contributes one row per shard; single-system
/// runs contribute none.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// The run's label.
    pub label: String,
    /// The scheme.
    pub scheme: Scheme,
    /// The workload spec of the whole run (canonical name in the exports).
    pub workload: WorkloadSpec,
    /// Shard index within the run.
    pub shard: u32,
    /// Real ORAM requests the shard completed in its measured window.
    pub oram_requests: u64,
    /// Workload accesses consumed by the shard's completed requests.
    pub workload_accesses: u64,
    /// Dummy (background-eviction) requests the shard completed.
    pub dummy_requests: u64,
    /// Cycles the shard spent in its measured window.
    pub cycles: u64,
    /// Real requests the shard submitted while measuring.
    pub submitted_requests: u64,
    /// Open-loop arrivals the shard resolved (0 for closed-loop runs).
    pub arrivals: u64,
    /// Open-loop arrivals the shard's admission policy dropped.
    pub dropped_arrivals: u64,
    /// Mean response latency of the shard's completions, in cycles.
    pub mean_latency: f64,
    /// 99th-percentile tail latency estimate in cycles.
    pub p99_latency: u64,
    /// Highest stash occupancy the shard's hierarchy observed.
    pub stash_high_water: usize,
}

impl ExportRow for ShardSummary {
    const HEADER: &'static str = "label,scheme,workload,shard,oram_requests,\
workload_accesses,dummy_requests,cycles,submitted_requests,arrivals,dropped_arrivals,\
mean_latency,p99_latency,stash_high_water";

    fn rows(record: &RunRecord) -> Vec<Self> {
        record
            .metrics
            .per_shard
            .iter()
            .map(|s| ShardSummary {
                label: record.label.clone(),
                scheme: record.scheme,
                workload: record.workload.clone(),
                shard: s.shard,
                oram_requests: s.oram_requests,
                workload_accesses: s.workload_accesses,
                dummy_requests: s.dummy_requests,
                cycles: s.cycles,
                submitted_requests: s.submitted_requests,
                arrivals: s.arrivals,
                dropped_arrivals: s.dropped_arrivals,
                mean_latency: s.latency.mean(),
                p99_latency: s.latency.p99(),
                stash_high_water: s.stash_high_water,
            })
            .collect()
    }

    fn cells(&self) -> Vec<Cell> {
        vec![
            text(&self.label),
            text(self.scheme.name()),
            text(self.workload.name()),
            num(self.shard),
            num(self.oram_requests),
            num(self.workload_accesses),
            num(self.dummy_requests),
            num(self.cycles),
            num(self.submitted_requests),
            num(self.arrivals),
            num(self.dropped_arrivals),
            num(self.mean_latency),
            num(self.p99_latency),
            num(self.stash_high_water),
        ]
    }

    fn from_cells(cells: &[String]) -> Option<Self> {
        let mut c = CellReader(cells.iter());
        Some(ShardSummary {
            label: c.text()?,
            scheme: Scheme::from_name(&c.text()?)?,
            workload: WorkloadSpec::from_name(&c.text()?)?,
            shard: c.num()?,
            oram_requests: c.num()?,
            workload_accesses: c.num()?,
            dummy_requests: c.num()?,
            cycles: c.num()?,
            submitted_requests: c.num()?,
            arrivals: c.num()?,
            dropped_arrivals: c.num()?,
            mean_latency: c.num()?,
            p99_latency: c.num()?,
            stash_high_water: c.num()?,
        })
    }
}

/// Makes a label safe for one CSV cell: the separator becomes `;` and
/// control characters (which would break the line structure) become spaces.
fn sanitize_csv(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            ',' => ';',
            c if c.is_control() => ' ',
            c => c,
        })
        .collect()
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The ordered results of one executed experiment grid.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    records: Vec<RunRecord>,
}

impl ResultSet {
    /// Wraps an ordered list of records.
    pub fn new(records: Vec<RunRecord>) -> Self {
        ResultSet { records }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when the set holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates the records in grid order.
    pub fn iter(&self) -> std::slice::Iter<'_, RunRecord> {
        self.records.iter()
    }

    /// The records in grid order.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Consumes the set, returning the owned records in grid order (use
    /// this to move `RunMetrics` out instead of cloning them).
    pub fn into_records(self) -> Vec<RunRecord> {
        self.records
    }

    /// The first record for the given (scheme, Table II workload) cell, if
    /// any. Sweeps produce several records per cell — disambiguate those
    /// with [`ResultSet::by_label`]; replay/mix cells are looked up with
    /// [`ResultSet::get_spec`].
    pub fn get(&self, scheme: Scheme, workload: Workload) -> Option<&RunRecord> {
        self.get_spec(scheme, &WorkloadSpec::Table2(workload))
    }

    /// The first record for the given (scheme, workload spec) cell, if any.
    pub fn get_spec(&self, scheme: Scheme, workload: &WorkloadSpec) -> Option<&RunRecord> {
        self.records
            .iter()
            .find(|r| r.scheme == scheme && &r.workload == workload)
    }

    /// The record with the given label, if any.
    pub fn by_label(&self, label: &str) -> Option<&RunRecord> {
        self.records.iter().find(|r| r.label == label)
    }

    /// End-to-end speedup (workload accesses per cycle) of `scheme` over
    /// `baseline` on one workload. `None` when either run is missing.
    pub fn speedup_over(
        &self,
        baseline: Scheme,
        scheme: Scheme,
        workload: Workload,
    ) -> Option<f64> {
        let base = self.get(baseline, workload)?.metrics.accesses_per_cycle();
        let this = self.get(scheme, workload)?.metrics.accesses_per_cycle();
        Some(this / base.max(f64::MIN_POSITIVE))
    }

    /// The `workloads × schemes` matrix of speedups over `baseline`
    /// (missing cells are 0.0) — the Fig. 10 normalisation.
    pub fn speedup_matrix(
        &self,
        baseline: Scheme,
        workloads: &[Workload],
        schemes: &[Scheme],
    ) -> Vec<Vec<f64>> {
        workloads
            .iter()
            .map(|&w| {
                schemes
                    .iter()
                    .map(|&s| self.speedup_over(baseline, s, w).unwrap_or(0.0))
                    .collect()
            })
            .collect()
    }

    /// Geometric-mean speedup of `scheme` over `baseline` across the given
    /// workloads (cells missing from the set are skipped).
    pub fn geo_mean_speedup(
        &self,
        baseline: Scheme,
        scheme: Scheme,
        workloads: &[Workload],
    ) -> f64 {
        let speedups: Vec<f64> = workloads
            .iter()
            .filter_map(|&w| self.speedup_over(baseline, scheme, w))
            .collect();
        geometric_mean(&speedups)
    }

    /// The rows of one exported table for every record, in grid order
    /// (record by record, then tenant or shard order within a record).
    pub fn rows<T: ExportRow>(&self) -> Vec<T> {
        self.records.iter().flat_map(T::rows).collect()
    }
}

impl<'a> IntoIterator for &'a ResultSet {
    type Item = &'a RunRecord;
    type IntoIter = std::slice::Iter<'a, RunRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

/// Splits `{..},{..},..` into the individual `{..}` bodies, honouring
/// string literals so braces inside labels don't confuse the nesting count.
fn split_top_level_objects(body: &str) -> Option<Vec<String>> {
    let mut objects = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut current = String::new();
    for c in body.chars() {
        if in_string {
            current.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                current.push(c);
            }
            '{' => {
                depth += 1;
                current.push(c);
            }
            '}' => {
                depth = depth.checked_sub(1)?;
                current.push(c);
                if depth == 0 {
                    objects.push(current.trim().to_string());
                    current = String::new();
                }
            }
            ',' if depth == 0 => {}
            _ => {
                if depth > 0 {
                    current.push(c);
                }
            }
        }
    }
    if depth != 0 || in_string {
        return None;
    }
    Some(objects)
}

/// Extracts the value of `"key":` from a flat JSON object body.
fn json_field(object: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":");
    let start = object.find(&marker)? + marker.len();
    let rest = &object[start..];
    if let Some(rest) = rest.strip_prefix('"') {
        // String value: scan to the closing unescaped quote, decoding the
        // escapes `escape_json` can produce.
        let mut value = String::new();
        let mut chars = rest.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => return Some(value),
                '\\' => match chars.next()? {
                    '"' => value.push('"'),
                    '\\' => value.push('\\'),
                    'n' => value.push('\n'),
                    'r' => value.push('\r'),
                    't' => value.push('\t'),
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        let code = u32::from_str_radix(&hex, 16).ok()?;
                        value.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c => value.push(c),
            }
        }
        None
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, SerialExecutor};
    use crate::system::SystemConfig;

    fn small_set() -> ResultSet {
        let mut cfg = SystemConfig::small_for_tests();
        cfg.measured_requests = 20;
        cfg.warmup_requests = 5;
        Experiment::new(cfg)
            .schemes([Scheme::PathOram, Scheme::Palermo])
            .workloads([Workload::Random])
            .run(&SerialExecutor)
            .unwrap()
    }

    #[test]
    fn speedup_and_geo_mean_normalise_against_the_baseline() {
        let set = small_set();
        let self_speedup = set
            .speedup_over(Scheme::PathOram, Scheme::PathOram, Workload::Random)
            .unwrap();
        assert!((self_speedup - 1.0).abs() < 1e-12);
        let palermo = set
            .speedup_over(Scheme::PathOram, Scheme::Palermo, Workload::Random)
            .unwrap();
        assert!(palermo > 1.0);
        let matrix = set.speedup_matrix(Scheme::PathOram, &[Workload::Random], &[Scheme::Palermo]);
        assert_eq!(matrix, vec![vec![palermo]]);
        let gm = set.geo_mean_speedup(Scheme::PathOram, Scheme::Palermo, &[Workload::Random]);
        assert!((gm - palermo).abs() < 1e-12);
        assert!(set
            .speedup_over(Scheme::IrOram, Scheme::Palermo, Workload::Random)
            .is_none());
    }

    #[test]
    fn csv_round_trips_exactly() {
        let set = small_set();
        let rows: Vec<RunSummary> = set.rows();
        assert_eq!(
            RunSummary::parse_csv(&RunSummary::to_csv(&rows)),
            Some(rows)
        );
    }

    fn mix_set() -> ResultSet {
        use palermo_workloads::MixSpec;
        let mut cfg = SystemConfig::small_for_tests();
        cfg.measured_requests = 20;
        cfg.warmup_requests = 5;
        let mix = WorkloadSpec::Mix(
            MixSpec::round_robin()
                .tenant(Workload::Redis.into(), 2)
                .tenant(Workload::Llm.into(), 1),
        );
        Experiment::new(cfg)
            .schemes([Scheme::Palermo])
            .workload_specs([mix])
            .run(&SerialExecutor)
            .unwrap()
    }

    #[test]
    fn tenant_csv_round_trips_exactly() {
        let set = mix_set();
        let summaries: Vec<TenantSummary> = set.rows();
        assert_eq!(summaries.len(), 2, "one row per tenant");
        assert_eq!(summaries[0].tenant_workload, "redis");
        assert_eq!(summaries[1].tenant_workload, "llm");
        let parsed = TenantSummary::parse_csv(&TenantSummary::to_csv(&summaries)).unwrap();
        assert_eq!(parsed, summaries);
    }

    #[test]
    fn tenant_json_round_trips_exactly() {
        let set = mix_set();
        let rows: Vec<TenantSummary> = set.rows();
        assert_eq!(
            TenantSummary::parse_json(&TenantSummary::to_json(&rows)),
            Some(rows)
        );
        // Single-tenant sets export one row per run, and empty sets parse.
        let single = small_set();
        assert_eq!(single.rows::<TenantSummary>().len(), single.len());
        assert_eq!(TenantSummary::parse_json("[]").unwrap(), Vec::new());
        assert!(TenantSummary::parse_csv("nope\n1,2").is_none());
    }

    fn shard_set() -> ResultSet {
        let mut cfg = SystemConfig::small_for_tests();
        cfg.measured_requests = 20;
        cfg.warmup_requests = 4;
        Experiment::new(cfg)
            .schemes([Scheme::RingOram])
            .workload_specs([WorkloadSpec::from_name("shard:2:hash:random").unwrap()])
            .run(&SerialExecutor)
            .unwrap()
    }

    #[test]
    fn shard_csv_round_trips_exactly() {
        let set = shard_set();
        let summaries: Vec<ShardSummary> = set.rows();
        assert_eq!(summaries.len(), 2, "one row per shard");
        assert_eq!(summaries[0].shard, 0);
        assert_eq!(summaries[1].shard, 1);
        assert_eq!(set.rows::<RunSummary>()[0].shards, 2);
        let parsed = ShardSummary::parse_csv(&ShardSummary::to_csv(&summaries)).unwrap();
        assert_eq!(parsed, summaries);
        // Single-system sets export no shard rows and a shards count of 0.
        let single = small_set();
        assert!(single.rows::<ShardSummary>().is_empty());
        assert!(single.rows::<RunSummary>().iter().all(|s| s.shards == 0));
        assert!(ShardSummary::parse_csv("nope\n1,2").is_none());
    }

    #[test]
    fn shard_json_round_trips_exactly() {
        let set = shard_set();
        let rows: Vec<ShardSummary> = set.rows();
        assert_eq!(
            ShardSummary::parse_json(&ShardSummary::to_json(&rows)),
            Some(rows)
        );
        assert_eq!(ShardSummary::parse_json("[]").unwrap(), Vec::new());
    }

    #[test]
    fn empty_tables_write_the_same_documents() {
        fn check<T: ExportRow + PartialEq + std::fmt::Debug>() {
            let rows: Vec<T> = ResultSet::default().rows();
            assert!(rows.is_empty());
            assert_eq!(T::to_json(&rows), "[]\n");
            assert_eq!(T::to_csv(&rows), format!("{}\n", T::HEADER));
            assert_eq!(T::parse_json("[]\n"), Some(Vec::new()));
            assert_eq!(T::parse_csv(&T::to_csv(&rows)), Some(rows));
        }
        check::<RunSummary>();
        check::<TenantSummary>();
        check::<ShardSummary>();
    }

    #[test]
    fn shard_exports_survive_hostile_labels_both_directions() {
        let set = shard_set();
        let mut record = set.records()[0].clone();
        record.label = "odd \"label\" with {braces},\ncommas\tand\u{1}controls".to_string();
        let odd = ResultSet::new(vec![record]);
        let rows: Vec<ShardSummary> = odd.rows();
        let json = ShardSummary::to_json(&rows);
        let parsed = ShardSummary::parse_json(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed[0].label,
            "odd \"label\" with {braces},\ncommas\tand\u{1}controls"
        );
        assert_eq!(parsed[0].workload.name(), "shard:2:hash:random");
        assert!(!json.chars().any(|c| c.is_control() && c != '\n'));
        // CSV flattens the label but stays one well-formed row per shard.
        let csv = ShardSummary::to_csv(&rows);
        assert_eq!(csv.lines().count(), 3);
        let parsed = ShardSummary::parse_csv(&csv).unwrap();
        assert_eq!(
            parsed[1].label,
            "odd \"label\" with {braces}; commas and controls"
        );
        // The sharded run-level summary round-trips through both formats
        // too (its workload cell carries the reserved `:`-grammar name).
        let runs: Vec<RunSummary> = odd.rows();
        let run_parsed = RunSummary::parse_csv(&RunSummary::to_csv(&runs)).unwrap();
        assert_eq!(run_parsed[0].shards, 2);
        assert_eq!(run_parsed[0].workload.name(), "shard:2:hash:random");
        assert_eq!(
            RunSummary::parse_json(&RunSummary::to_json(&runs)),
            Some(runs)
        );
    }

    fn hardware_set() -> ResultSet {
        use palermo_dram::HardwareProfile;
        let mut cfg = SystemConfig::small_for_tests();
        cfg.measured_requests = 20;
        cfg.warmup_requests = 5;
        Experiment::new(cfg)
            .schemes([Scheme::Palermo])
            .workloads([Workload::Random])
            .sweep_hardware(&HardwareProfile::builtins())
            .run(&SerialExecutor)
            .unwrap()
    }

    #[test]
    fn hardware_and_energy_columns_round_trip_exactly() {
        let set = hardware_set();
        let summaries: Vec<RunSummary> = set.rows();
        assert_eq!(summaries.len(), 3, "one run per profile");
        let names: Vec<&str> = summaries.iter().map(|s| s.hardware.as_str()).collect();
        assert_eq!(names, ["ddr4-3200", "ddr5-6400", "hbm2e"]);
        assert!(summaries.iter().all(|s| s.energy_j > 0.0));
        let csv = RunSummary::to_csv(&summaries);
        assert_eq!(RunSummary::parse_csv(&csv).unwrap(), summaries);
        let parsed = RunSummary::parse_json(&RunSummary::to_json(&summaries)).unwrap();
        assert_eq!(parsed, summaries);
        // A pre-extension row (17 fields) no longer parses.
        let short_row: String = csv
            .lines()
            .nth(1)
            .unwrap()
            .split(',')
            .take(17)
            .collect::<Vec<_>>()
            .join(",");
        let legacy = format!("{}\n{short_row}\n", RunSummary::HEADER);
        assert!(RunSummary::parse_csv(&legacy).is_none());
    }

    #[test]
    fn tenant_energy_column_round_trips_and_partitions_the_total() {
        let set = mix_set();
        let record = &set.records()[0];
        let summaries: Vec<TenantSummary> = set.rows();
        let tenant_total: f64 = summaries.iter().map(|t| t.energy_j).sum();
        assert!(tenant_total > 0.0);
        assert!(
            (tenant_total - record.metrics.energy_j()).abs() <= record.metrics.energy_j() * 1e-12
        );
        let parsed = TenantSummary::parse_csv(&TenantSummary::to_csv(&summaries)).unwrap();
        assert_eq!(parsed, summaries);
        let parsed = TenantSummary::parse_json(&TenantSummary::to_json(&summaries)).unwrap();
        assert_eq!(parsed, summaries);
    }

    #[test]
    fn tenant_shares_partition_the_dram_demand() {
        let set = mix_set();
        let record = &set.records()[0];
        let shares: f64 = (0..record.metrics.per_tenant.len())
            .map(|i| record.metrics.tenant_dram_share(i))
            .sum();
        assert!((shares - 1.0).abs() < 1e-12, "shares sum to {shares}");
        assert!(record.metrics.tenant_conservation_ok());
    }

    #[test]
    fn json_round_trips_exactly() {
        let rows: Vec<RunSummary> = small_set().rows();
        assert_eq!(
            RunSummary::parse_json(&RunSummary::to_json(&rows)),
            Some(rows)
        );
    }

    #[test]
    fn json_labels_with_quotes_braces_and_control_chars_survive() {
        let set = small_set();
        let mut record = set.records()[0].clone();
        record.label = "odd \"label\" with {braces},\ncommas\tand\u{1}controls".to_string();
        let rows: Vec<RunSummary> = ResultSet::new(vec![record]).rows();
        let json = RunSummary::to_json(&rows);
        let parsed = RunSummary::parse_json(&json).unwrap();
        assert_eq!(
            parsed[0].label,
            "odd \"label\" with {braces},\ncommas\tand\u{1}controls"
        );
        // The JSON document itself contains no raw control characters.
        assert!(!json.chars().any(|c| c.is_control() && c != '\n'));
        // CSV flattens the label but stays one well-formed row per record.
        let csv = RunSummary::to_csv(&rows);
        assert_eq!(csv.lines().count(), 2);
        let parsed = RunSummary::parse_csv(&csv).unwrap();
        assert_eq!(
            parsed[0].label,
            "odd \"label\" with {braces}; commas and controls"
        );
    }

    #[test]
    fn into_records_moves_the_metrics_out() {
        let set = small_set();
        let len = set.len();
        let records = set.into_records();
        assert_eq!(records.len(), len);
        assert!(records.iter().all(|r| !r.metrics.latencies.is_empty()));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(RunSummary::parse_csv("not,a,header\n1,2").is_none());
        assert!(RunSummary::parse_json("{\"not\":\"an array\"").is_none());
        let short = format!("{}\ntoo,few,fields\n", RunSummary::HEADER);
        assert!(RunSummary::parse_csv(&short).is_none());
        assert_eq!(RunSummary::parse_json("[]").unwrap(), Vec::new());
    }

    #[test]
    fn lookup_helpers_find_records() {
        let set = small_set();
        assert!(set.get(Scheme::Palermo, Workload::Random).is_some());
        assert!(set.by_label("Palermo/random").is_some());
        assert!(set.by_label("nope").is_none());
        assert_eq!(set.iter().count(), set.len());
        assert_eq!((&set).into_iter().count(), 2);
    }
}
