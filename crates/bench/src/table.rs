//! One table type for every experiment's machine-readable results.
//!
//! A [`Table`] is a named grid of typed [`Cell`]s plus the parameters the
//! run was made with. Every column declares the [`Direction`] its values
//! may drift in before the regression gate calls the drift a regression.
//! `paper_tables` renders each table twice, from the same cells: as
//! `<name>.csv` ([`Table::csv`]) and as the `BENCH_<name>.json` document
//! ([`Table::json`]) that `bench_regression` diffs against a committed
//! baseline, reading each column's direction from the baseline itself.

use kw_gpu_sim::escape_json;

/// How a column's fresh value may drift from its baseline before the
/// regression gate fails it. Strings, bools and nulls always match
/// exactly, whatever their column declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Lower is better (costs): fails only when the fresh value rises
    /// past the tolerance.
    Lower,
    /// Higher is better (speedups, throughputs): fails only when the fresh
    /// value falls past the tolerance.
    Higher,
    /// Labels, sizes and structural counts: any change fails.
    Exact,
    /// Drift past the tolerance fails either way: fractions, and the
    /// unfused baseline's costs, whose fall would erode fusion's speedup.
    TwoSided,
}

impl Direction {
    /// The name a BENCH document stores under `directions`.
    pub fn name(self) -> &'static str {
        match self {
            Direction::Lower => "lower",
            Direction::Higher => "higher",
            Direction::Exact => "exact",
            Direction::TwoSided => "two_sided",
        }
    }

    /// Parse a stored name; `None` for anything [`Direction::name`] does
    /// not print.
    pub fn parse(name: &str) -> Option<Direction> {
        use Direction::*;
        [Lower, Higher, Exact, TwoSided]
            .into_iter()
            .find(|d| d.name() == name)
    }
}

/// One typed cell. Numbers render with Rust's `{}` in both formats.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A count, size or other integer.
    Int(u64),
    /// A measured or derived number.
    Num(f64),
    /// A label.
    Text(String),
    /// A verdict.
    Bool(bool),
    /// No value, e.g. a percentile over zero queries: an empty CSV field
    /// and a JSON `null`.
    Null,
}

impl Cell {
    /// The cell's CSV field or, with `json`, its JSON value.
    fn render(&self, json: bool) -> String {
        match self {
            Cell::Int(v) => v.to_string(),
            Cell::Num(v) => v.to_string(),
            Cell::Bool(b) => b.to_string(),
            Cell::Text(s) if json => format!("\"{}\"", escape_json(s)),
            Cell::Text(s) => s.clone(),
            Cell::Null if json => "null".to_string(),
            Cell::Null => String::new(),
        }
    }
}

macro_rules! cell_from {
    ($($t:ty => |$v:ident| $cell:expr),* $(,)?) => {$(
        impl From<$t> for Cell {
            fn from($v: $t) -> Cell {
                $cell
            }
        }
    )*};
}

cell_from! {
    u32 => |v| Cell::Int(u64::from(v)),
    u64 => |v| Cell::Int(v),
    usize => |v| Cell::Int(v as u64),
    f64 => |v| Cell::Num(v),
    bool => |v| Cell::Bool(v),
    &str => |v| Cell::Text(v.to_string()),
    String => |v| Cell::Text(v),
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(v: Option<T>) -> Cell {
        v.map_or(Cell::Null, Into::into)
    }
}

/// A named experiment result: parameters plus typed, direction-declaring
/// columns of equal length.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    params: Vec<(String, Cell)>,
    columns: Vec<(String, Direction)>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table; `name` names its files (`<name>.csv`,
    /// `BENCH_<name>.json`).
    pub fn new(name: &str) -> Table {
        Table {
            name: name.to_string(),
            params: Vec::new(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Add a run parameter. The regression gate requires parameters to
    /// match exactly.
    pub fn param(mut self, key: &str, value: impl Into<Cell>) -> Table {
        self.params.push((key.to_string(), value.into()));
        self
    }

    /// Add a column holding `value` of each of `rows`.
    ///
    /// # Panics
    ///
    /// If `rows` is not as long as the columns already added.
    pub fn column<'a, R, V: Into<Cell>>(
        mut self,
        rows: &'a [R],
        name: &str,
        direction: Direction,
        value: impl Fn(&'a R) -> V,
    ) -> Table {
        if self.columns.is_empty() {
            self.rows = vec![Vec::new(); rows.len()];
        }
        assert_eq!(
            self.rows.len(),
            rows.len(),
            "{}: column {name} has a different row count",
            self.name
        );
        for (cells, row) in self.rows.iter_mut().zip(rows) {
            cells.push(value(row).into());
        }
        self.columns.push((name.to_string(), direction));
        self
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// The rows as CSV: a header of column names, then one line per row.
    ///
    /// # Panics
    ///
    /// If a text cell holds a comma, a quote or a line break: the CSV
    /// has no quoting.
    pub fn csv(&self) -> String {
        let header: Vec<&str> = self.columns.iter().map(|(name, _)| name.as_str()).collect();
        let mut out = header.join(",") + "\n";
        for row in &self.rows {
            let fields: Vec<String> = row.iter().map(|c| c.render(false)).collect();
            let line = fields.join(",");
            assert!(
                line.split(',').count() == header.len() && !line.contains(['"', '\n', '\r']),
                "{}: CSV cannot hold the row {line:?}",
                self.name
            );
            out += &(line + "\n");
        }
        out
    }

    /// The BENCH document: the experiment name, its parameters, each
    /// column's direction, and one object per row.
    pub fn json(&self) -> String {
        fn object<'a>(entries: impl Iterator<Item = (&'a String, String)>) -> String {
            let fields: Vec<String> = entries
                .map(|(k, v)| format!("\"{}\": {v}", escape_json(k)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        }
        let params = object(self.params.iter().map(|(k, v)| (k, v.render(true))));
        let directions = object(
            self.columns
                .iter()
                .map(|(name, d)| (name, format!("\"{}\"", d.name()))),
        );
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells = self.columns.iter().zip(row);
                format!(
                    "    {}",
                    object(cells.map(|((name, _), c)| (name, c.render(true))))
                )
            })
            .collect();
        format!(
            "{{\n  \"experiment\": \"{}\",\n  \"params\": {params},\n  \"directions\": \
             {directions},\n  \"rows\": [\n{}\n  ]\n}}\n",
            escape_json(&self.name),
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use kw_gpu_sim::{parse_json, JsonValue};

    /// The direction `column` declares in `t`'s BENCH document.
    pub(crate) fn declared(t: &Table, column: &str) -> Option<Direction> {
        let doc = parse_json(&t.json()).expect("BENCH document parses");
        let direction = doc.get("directions")?.get(column)?.as_str()?;
        Direction::parse(direction)
    }

    #[test]
    fn direction_names_round_trip() {
        use Direction::*;
        for d in [Lower, Higher, Exact, TwoSided] {
            assert_eq!(Direction::parse(d.name()), Some(d));
        }
        assert_eq!(Direction::parse("sideways"), None);
    }

    #[test]
    fn every_csv_cell_is_the_json_value_text() {
        let rows = [
            ("C:\\tmp\t(tab)", 3u64, Some(0.25), true),
            ("plain", 0, None, false),
        ];
        let t = Table::new("cells")
            .param("seed", 7u64)
            .column(&rows, "label", Direction::Exact, |r| r.0)
            .column(&rows, "count", Direction::Lower, |r| r.1)
            .column(&rows, "share", Direction::TwoSided, |r| r.2)
            .column(&rows, "ok", Direction::Exact, |r| r.3);
        let doc = parse_json(&t.json()).expect("BENCH document parses");
        assert_eq!(
            doc.get("experiment").and_then(JsonValue::as_str),
            Some("cells")
        );
        assert_eq!(
            doc.get("params")
                .and_then(|p| p.get("seed"))
                .and_then(JsonValue::as_f64),
            Some(7.0)
        );
        let directions = doc.get("directions").expect("directions");
        assert_eq!(
            directions.get("count").and_then(JsonValue::as_str),
            Some("lower")
        );
        assert_eq!(
            directions.get("share").and_then(JsonValue::as_str),
            Some("two_sided")
        );

        let csv = t.csv();
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().expect("header").split(',').collect();
        assert_eq!(header, ["label", "count", "share", "ok"]);
        let json_rows = doc.get("rows").and_then(JsonValue::as_array).expect("rows");
        assert_eq!(json_rows.len(), rows.len());
        for (line, row) in lines.zip(json_rows) {
            for (field, key) in line.split(',').zip(&header) {
                let text = match row.get(key).expect("every column in every row") {
                    JsonValue::Str(s) => s.clone(),
                    JsonValue::Number(n) => n.to_string(),
                    JsonValue::Bool(b) => b.to_string(),
                    JsonValue::Null => String::new(),
                    other => panic!("{key}: unexpected {other:?}"),
                };
                assert_eq!(field, text, "column {key}");
            }
        }
        assert_eq!(json_rows[1].get("share"), Some(&JsonValue::Null));
        assert_eq!(csv.lines().nth(2), Some("plain,0,,false"));
    }

    #[test]
    #[should_panic(expected = "CSV cannot hold")]
    fn csv_rejects_a_comma_in_text() {
        Table::new("t")
            .column(&["a,b"], "label", Direction::Exact, |r| *r)
            .csv();
    }
}
