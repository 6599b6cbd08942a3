//! Tabular result rendering.
//!
//! Every experiment binary in `spb-experiments` ends by printing a
//! [`Table`] whose rows/columns mirror the corresponding figure or table
//! in the paper, so a reader can diff shape against the publication.

use std::fmt;

/// A rectangular table of `f64` cells with named rows and columns.
///
/// # Examples
///
/// ```
/// use spb_stats::Table;
///
/// let mut t = Table::new("Fig. 5", &["at-commit", "SPB"]);
/// t.push_row("SB56", &[0.981, 1.005]);
/// t.push_row("SB14", &[0.859, 0.954]);
/// assert_eq!(t.get("SB56", "SPB"), Some(1.005));
/// println!("{t}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
    precision: usize,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            precision: 3,
        }
    }

    /// Sets the number of decimal places used when rendering (default 3).
    pub fn set_precision(&mut self, precision: usize) -> &mut Self {
        self.precision = precision;
        self
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    pub fn columns(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(String::as_str)
    }

    /// Row labels in insertion order.
    pub(crate) fn row_labels(&self) -> impl Iterator<Item = &str> {
        self.rows.iter().map(|(l, _)| l.as_str())
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `cells` does not have exactly one value per column.
    pub fn push_row(&mut self, label: impl Into<String>, cells: &[f64]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push((label.into(), cells.to_vec()));
        self
    }

    /// Looks up a cell by row label and column header.
    pub fn get(&self, row: &str, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column)?;
        let (_, cells) = self.rows.iter().find(|(l, _)| l == row)?;
        cells.get(col).copied()
    }

    /// Returns one column's values in row order.
    pub(crate) fn column_values(&self, column: &str) -> Option<Vec<f64>> {
        let col = self.columns.iter().position(|c| c == column)?;
        Some(self.rows.iter().map(|(_, cells)| cells[col]).collect())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(self.title.len().min(24)))
            .max()
            .unwrap_or(8)
            .max(8);
        let col_w = self
            .columns
            .iter()
            .map(|c| c.len())
            .max()
            .unwrap_or(8)
            .max(self.precision + 4);
        writeln!(f, "== {} ==", self.title)?;
        write!(f, "{:label_w$}", "")?;
        for c in &self.columns {
            write!(f, " {c:>col_w$}")?;
        }
        writeln!(f)?;
        for (label, cells) in &self.rows {
            write!(f, "{label:label_w$}")?;
            for v in cells {
                write!(f, " {v:>col_w$.prec$}", prec = self.precision)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row("r1", &[1.0, 2.0]);
        t.push_row("r2", &[3.0, 4.0]);
        t
    }

    #[test]
    fn get_finds_cells_by_name() {
        let t = sample();
        assert_eq!(t.get("r1", "b"), Some(2.0));
        assert_eq!(t.get("r2", "a"), Some(3.0));
        assert_eq!(t.get("zz", "a"), None);
        assert_eq!(t.get("r1", "zz"), None);
    }

    #[test]
    fn column_values_preserve_row_order() {
        let t = sample();
        assert_eq!(t.column_values("a"), Some(vec![1.0, 3.0]));
        assert_eq!(t.column_values("nope"), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn push_row_rejects_wrong_width() {
        let mut t = Table::new("t", &["a"]);
        t.push_row("r", &[1.0, 2.0]);
    }

    #[test]
    fn display_is_nonempty_and_aligned() {
        let shown = format!("{}", sample());
        assert!(shown.contains("== t =="));
        assert!(shown.contains("r1"));
    }

    #[test]
    fn len_and_is_empty() {
        let t = Table::new("t", &["a"]);
        assert!(t.is_empty());
        assert_eq!(sample().len(), 2);
    }
}
