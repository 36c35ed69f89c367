//! Replaying real trace files.
//!
//! The evaluation's generators ([`crate::TaxiTrace`], [`crate::PollutionTrace`])
//! are trace-*shaped* stand-ins because the DEBS'15 and CityBench datasets
//! are not redistributable. Users who have the original CSVs can replay
//! them through this module instead: [`CsvTraceReader`] parses delimited
//! records into [`StreamItem`]s and groups them into interval batches,
//! ready for `Driver::push_interval` (after splitting by stratum) or
//! `SimEngine::push_interval`.
//!
//! The parser handles plain delimited text (no quoted-field escapes — the
//! DEBS taxi dump uses none) and is configured by column indices, so it
//! also covers the CityBench pollution CSVs and similar sensor logs.

use approxiot_core::{Batch, StratumId, StreamItem};
use std::collections::BTreeMap;
use std::fmt;
use std::io::BufRead;

/// Which columns of a delimited record to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsvSchema {
    /// Column holding the numeric value the query aggregates
    /// (e.g. `total_amount`, column 16, in the DEBS taxi dump).
    pub value_column: usize,
    /// Column whose contents identify the stratum (e.g. `medallion`,
    /// column 0). Distinct strings map to distinct dense [`StratumId`]s.
    pub stratum_column: usize,
    /// Optional column holding a timestamp in seconds (fractions allowed).
    /// When `None`, records are stamped by their position at replay rate.
    pub timestamp_column: Option<usize>,
    /// Field delimiter.
    pub delimiter: char,
    /// Skip the first line (header row).
    pub has_header: bool,
}

impl CsvSchema {
    /// The DEBS 2015 taxi-trip layout: stratum = medallion (column 0),
    /// value = total_amount (column 16), event time = pickup_datetime is
    /// textual so positional stamping is used.
    pub fn debs_taxi() -> Self {
        CsvSchema {
            value_column: 16,
            stratum_column: 0,
            timestamp_column: None,
            delimiter: ',',
            has_header: false,
        }
    }

    /// A generic `stratum,value` two-column layout (handy for tests and
    /// quick experiments).
    pub fn two_column() -> Self {
        CsvSchema {
            value_column: 1,
            stratum_column: 0,
            timestamp_column: None,
            delimiter: ',',
            has_header: false,
        }
    }
}

/// A parse failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseTraceError {}

/// Reads delimited trace records into [`StreamItem`]s.
///
/// Stratum strings are interned to dense ids in first-seen order;
/// [`CsvTraceReader::stratum_names`] recovers the mapping for reporting.
///
/// # Examples
///
/// ```
/// use approxiot_workload::replay::{CsvSchema, CsvTraceReader};
///
/// let csv = "sensorA,1.5\nsensorB,2.0\nsensorA,3.0\n";
/// let mut reader = CsvTraceReader::new(CsvSchema::two_column());
/// let items = reader.read_items(csv.as_bytes())?;
/// assert_eq!(items.len(), 3);
/// assert_eq!(reader.stratum_names(), vec!["sensorA", "sensorB"]);
/// assert_eq!(items[0].stratum, items[2].stratum);
/// # Ok::<(), approxiot_workload::replay::ParseTraceError>(())
/// ```
#[derive(Debug)]
pub struct CsvTraceReader {
    schema: CsvSchema,
    strata: BTreeMap<String, StratumId>,
    names: Vec<String>,
    next_seq: BTreeMap<StratumId, u64>,
    position: u64,
}

impl CsvTraceReader {
    /// Creates a reader for the given schema.
    pub fn new(schema: CsvSchema) -> Self {
        CsvTraceReader {
            schema,
            strata: BTreeMap::new(),
            names: Vec::new(),
            next_seq: BTreeMap::new(),
            position: 0,
        }
    }

    /// The schema in use.
    pub fn schema(&self) -> CsvSchema {
        self.schema
    }

    /// Stratum names in id order (index = `StratumId::index()`).
    pub fn stratum_names(&self) -> Vec<&str> {
        self.names.iter().map(String::as_str).collect()
    }

    fn intern(&mut self, name: &str) -> StratumId {
        if let Some(&id) = self.strata.get(name) {
            return id;
        }
        let id = StratumId::new(self.names.len() as u32);
        self.strata.insert(name.to_string(), id);
        self.names.push(name.to_string());
        id
    }

    /// Parses every record of `input` into items. Positional timestamps
    /// advance by one microsecond per record unless the schema names a
    /// timestamp column.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] for short rows, unparsable numbers or
    /// I/O failures.
    pub fn read_items<R: BufRead>(&mut self, input: R) -> Result<Vec<StreamItem>, ParseTraceError> {
        let mut items = Vec::new();
        for (idx, line) in input.lines().enumerate() {
            let line_no = idx + 1;
            let line = line.map_err(|e| ParseTraceError {
                line: line_no,
                reason: format!("read error: {e}"),
            })?;
            if idx == 0 && self.schema.has_header {
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(self.schema.delimiter).collect();
            let need = self
                .schema
                .value_column
                .max(self.schema.stratum_column)
                .max(self.schema.timestamp_column.unwrap_or(0));
            if fields.len() <= need {
                return Err(ParseTraceError {
                    line: line_no,
                    reason: format!(
                        "expected at least {} fields, found {}",
                        need + 1,
                        fields.len()
                    ),
                });
            }
            let value: f64 = fields[self.schema.value_column]
                .trim()
                .parse()
                .map_err(|_| ParseTraceError {
                    line: line_no,
                    reason: format!("bad value {:?}", fields[self.schema.value_column]),
                })?;
            let stratum = self.intern(fields[self.schema.stratum_column].trim());
            let ts = match self.schema.timestamp_column {
                Some(col) => {
                    let secs: f64 = fields[col].trim().parse().map_err(|_| ParseTraceError {
                        line: line_no,
                        reason: format!("bad timestamp {:?}", fields[col]),
                    })?;
                    (secs * 1e9) as u64
                }
                None => {
                    let ts = self.position * 1_000; // 1 µs per record
                    self.position += 1;
                    ts
                }
            };
            let seq = self.next_seq.entry(stratum).or_insert(0);
            items.push(StreamItem::with_meta(stratum, value, *seq, ts));
            *seq += 1;
        }
        Ok(items)
    }

    /// Parses `input` and groups the items into batches of
    /// `interval_nanos` by timestamp — the shape `SimEngine::push_interval`
    /// and, split by stratum, `Driver::push_interval` expect.
    ///
    /// # Errors
    ///
    /// Propagates [`ParseTraceError`] from [`CsvTraceReader::read_items`].
    ///
    /// # Panics
    ///
    /// Panics if `interval_nanos` is zero.
    pub fn read_batches<R: BufRead>(
        &mut self,
        input: R,
        interval_nanos: u64,
    ) -> Result<Vec<Batch>, ParseTraceError> {
        assert!(interval_nanos > 0, "interval must be positive");
        let items = self.read_items(input)?;
        let mut per_interval: BTreeMap<u64, Vec<StreamItem>> = BTreeMap::new();
        for item in items {
            per_interval
                .entry(item.source_ts / interval_nanos)
                .or_default()
                .push(item);
        }
        Ok(per_interval.into_values().map(Batch::from_items).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_column_roundtrip() {
        let csv = "a,1.0\nb,2.5\na,-3.0\n";
        let mut reader = CsvTraceReader::new(CsvSchema::two_column());
        let items = reader.read_items(csv.as_bytes()).expect("parses");
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].value, 1.0);
        assert_eq!(items[2].value, -3.0);
        assert_eq!(items[0].stratum, items[2].stratum);
        assert_ne!(items[0].stratum, items[1].stratum);
        // Per-stratum sequences are dense.
        assert_eq!(items[0].seq, 0);
        assert_eq!(items[2].seq, 1);
    }

    #[test]
    fn header_is_skipped() {
        let csv = "sensor,value\na,1.0\n";
        let schema = CsvSchema {
            has_header: true,
            ..CsvSchema::two_column()
        };
        let mut reader = CsvTraceReader::new(schema);
        let items = reader.read_items(csv.as_bytes()).expect("parses");
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn blank_lines_are_ignored() {
        let csv = "a,1.0\n\n  \nb,2.0\n";
        let mut reader = CsvTraceReader::new(CsvSchema::two_column());
        assert_eq!(reader.read_items(csv.as_bytes()).expect("parses").len(), 2);
    }

    #[test]
    fn short_rows_error_with_line_number() {
        let csv = "a,1.0\nbad-row\n";
        let mut reader = CsvTraceReader::new(CsvSchema::two_column());
        let err = reader.read_items(csv.as_bytes()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("fields"));
    }

    #[test]
    fn bad_numbers_error() {
        let csv = "a,not-a-number\n";
        let mut reader = CsvTraceReader::new(CsvSchema::two_column());
        let err = reader.read_items(csv.as_bytes()).unwrap_err();
        assert!(err.reason.contains("bad value"));
    }

    #[test]
    fn timestamp_column_drives_batching() {
        let csv = "a,1.0,0.05\na,2.0,0.15\na,3.0,0.16\n";
        let schema = CsvSchema {
            value_column: 1,
            stratum_column: 0,
            timestamp_column: Some(2),
            delimiter: ',',
            has_header: false,
        };
        let mut reader = CsvTraceReader::new(schema);
        let batches = reader
            .read_batches(csv.as_bytes(), 100_000_000)
            .expect("parses");
        assert_eq!(batches.len(), 2, "0.05 s | 0.15+0.16 s");
        assert_eq!(batches[0].len(), 1);
        assert_eq!(batches[1].len(), 2);
    }

    #[test]
    fn debs_taxi_layout_parses_a_realistic_row() {
        // A row in the DEBS 2015 dump's 17-column layout.
        let row = "07290D3599E7A0D62097A346EFCC1FB5,E7750A37CAB07D0DFF0AF7E3573AC141,\
                   2013-01-01 00:00:00,2013-01-01 00:02:00,120,0.44,-73.956528,40.716976,\
                   -73.962440,40.715008,CSH,3.50,0.50,0.50,0.00,0.00,4.50\n";
        let mut reader = CsvTraceReader::new(CsvSchema::debs_taxi());
        let items = reader.read_items(row.as_bytes()).expect("parses");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].value, 4.50, "total_amount column");
        assert_eq!(
            reader.stratum_names().len(),
            1,
            "medallion interned as stratum"
        );
    }

    #[test]
    fn replayed_batches_flow_through_whs() {
        use approxiot_core::{whs_sample, Allocation, ThetaStore, WeightMap};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let csv: String = (0..500)
            .map(|i| format!("s{},{}\n", i % 3, (i % 7) as f64))
            .collect();
        let mut reader = CsvTraceReader::new(CsvSchema::two_column());
        let batches = reader
            .read_batches(csv.as_bytes(), 100_000)
            .expect("parses");
        let mut rng = StdRng::seed_from_u64(1);
        let mut theta = ThetaStore::new();
        let mut truth = 0.0;
        for batch in &batches {
            truth += batch.value_sum();
            theta.push(whs_sample(
                batch,
                20,
                &WeightMap::new(),
                Allocation::Uniform,
                &mut rng,
            ));
        }
        // Count reconstruction is exact even on replayed data.
        assert!((theta.count_estimate() - 500.0).abs() < 1e-9);
        let est = theta.sum_estimate().value;
        assert!((est - truth).abs() / truth < 0.25);
    }
}
