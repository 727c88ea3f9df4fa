//! Result records for experiment cells and simple text-table rendering.

/// The measurements the paper reports for one run: the columns of
/// Tables 3–11.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellResult {
    /// Packets client → server.
    pub packets_c2s: u64,
    /// Packets server → client.
    pub packets_s2c: u64,
    /// Total bytes on the wire (TCP/IP headers included).
    pub bytes: u64,
    /// Bytes after link-level (modem) compression, when active.
    pub physical_bytes: u64,
    /// Elapsed seconds, first packet to last.
    pub secs: f64,
    /// `%ov`: TCP/IP header overhead percentage.
    pub overhead_pct: f64,
    /// Total TCP connections the client used.
    pub sockets_used: u64,
    /// Peak simultaneously-open sockets on the client.
    pub max_sockets: u64,
    /// Objects fetched.
    pub fetched: u64,
    /// 304 responses among them.
    pub validated: u64,
    /// Entity bytes delivered to the application (decoded).
    pub body_bytes: u64,
    /// Requests retried after an early server close.
    pub retries: u64,
    /// RST events observed by the client.
    pub resets: u64,
    /// TCP segments retransmitted on the wire (either direction).
    pub retransmits: u64,
    /// Packets the network dropped (loss + outage + queue overflow).
    pub drops: u64,
    /// Drops attributed to the random/bursty loss model.
    pub drops_loss: u64,
    /// Drops attributed to a scheduled link outage.
    pub drops_outage: u64,
    /// Drops attributed to queue (buffer) overflow at the bottleneck.
    pub drops_queue: u64,
    /// Packets the network duplicated.
    pub dups: u64,
    /// Packets that overtook an earlier packet in flight.
    pub reorders: u64,
    /// Seconds from the first packet to the first response payload byte
    /// reaching the client — perceived first-render latency.
    pub first_byte_secs: f64,
    /// Responses that arrived as unsolicited server pushes (multiplexed
    /// setups only; zero elsewhere).
    pub pushed_responses: u64,
    /// Entity bytes delivered by those pushes.
    pub pushed_bytes: u64,
    /// Pushes the client refused with a reset.
    pub cancelled_pushes: u64,
    /// Push DATA bytes already in flight when cancelled — wire waste.
    pub cancelled_push_bytes: u64,
    /// Stall-attribution summary, present when the cell ran with the
    /// flight recorder enabled ([`CellSpec::probe`]).
    ///
    /// [`CellSpec::probe`]: ../harness/struct.CellSpec.html#structfield.probe
    pub probe: Option<netsim::ProbeReport>,
    /// Telemetry volume roll-up, present when the cell ran with the
    /// time-series sink enabled ([`CellSpec::telemetry`]).
    ///
    /// [`CellSpec::telemetry`]: ../harness/struct.CellSpec.html#structfield.telemetry
    pub telemetry: Option<netsim::TelemetrySummary>,
}

impl CellResult {
    /// Total packets in both directions.
    pub fn packets(&self) -> u64 {
        self.packets_c2s + self.packets_s2c
    }
}

/// A labelled table of cells, renderable as text.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// The title.
    pub title: String,
    /// Column headers after the row-label column.
    pub columns: Vec<String>,
    /// (row label, formatted values).
    pub rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// Create a new, empty instance.
    pub fn new(title: &str, columns: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a labelled row (width-checked).
    pub fn push_row(&mut self, label: &str, values: Vec<String>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.to_string(), values));
    }

    /// Append the paper-style metric columns for one cell:
    /// Pa / Bytes / Sec / %ov.
    pub fn cell_columns(cell: &CellResult) -> Vec<String> {
        vec![
            cell.packets().to_string(),
            cell.bytes.to_string(),
            format!("{:.2}", cell.secs),
            format!("{:.1}", cell.overhead_pct),
        ]
    }

    /// Render as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = Vec::new();
        let label_width = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([2])
            .max()
            .unwrap();
        for (i, c) in self.columns.iter().enumerate() {
            let w = self
                .rows
                .iter()
                .map(|(_, vals)| vals[i].len())
                .chain([c.len()])
                .max()
                .unwrap();
            widths.push(w);
        }
        let mut out = String::new();
        out.push_str(&format!("=== {} ===\n", self.title));
        out.push_str(&format!("{:<label_width$}", ""));
        for (c, w) in self.columns.iter().zip(&widths) {
            out.push_str(&format!("  {c:>w$}"));
        }
        out.push('\n');
        for (label, vals) in &self.rows {
            out.push_str(&format!("{label:<label_width$}"));
            for (v, w) in vals.iter().zip(&widths) {
                out.push_str(&format!("  {v:>w$}"));
            }
            out.push('\n');
        }
        out
    }
}

/// A stable digest over rendered tables: FNV-1a over each `render()` in
/// order. Two runs of the same grid must agree bit-for-bit, regardless of
/// thread count.
pub fn tables_digest(tables: &[Table]) -> u64 {
    use crate::experiments::{fnv1a, FNV_OFFSET};
    tables
        .iter()
        .fold(FNV_OFFSET, |hash, t| fnv1a(t.render().as_bytes(), hash))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_total() {
        let c = CellResult {
            packets_c2s: 25,
            packets_s2c: 58,
            ..Default::default()
        };
        assert_eq!(c.packets(), 83);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["Pa", "Sec"]);
        t.push_row("HTTP/1.0", vec!["497".into(), "1.85".into()]);
        t.push_row("HTTP/1.1 Pipelined", vec!["83".into(), "3.02".into()]);
        let s = t.render();
        assert!(s.contains("=== Demo ==="));
        assert!(s.contains("HTTP/1.0"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Values right-aligned under headers.
        assert!(lines[2].trim_end().ends_with("1.85"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("Demo", &["A", "B"]);
        t.push_row("x", vec!["1".into()]);
    }

    #[test]
    fn cell_columns_format() {
        let c = CellResult {
            packets_c2s: 10,
            packets_s2c: 20,
            bytes: 12345,
            secs: 1.234,
            overhead_pct: 8.55,
            ..Default::default()
        };
        assert_eq!(Table::cell_columns(&c), vec!["30", "12345", "1.23", "8.6"]);
    }

    #[test]
    fn cell_result_is_debuggable_and_copy() {
        let c = CellResult {
            packets_c2s: 1,
            bytes: 2,
            secs: 3.0,
            ..Default::default()
        };
        let d = c; // Copy
        assert!(format!("{d:?}").contains("packets_c2s: 1"));
    }
}
