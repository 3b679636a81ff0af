//! Markdown table rendering for the experiment binaries.

/// A simple markdown table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; short rows are padded, long rows truncated to the
    /// header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Render as a GitHub-flavored markdown table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, &w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Format a float with 3 decimals for table cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// `text` broken into lines of at most 70 columns, at spaces (a longer
/// word gets a line of its own): an experiment's closing paragraph.
pub fn wrap(text: &str) -> String {
    let mut out = String::new();
    let mut line = 0;
    for word in text.split_whitespace() {
        let width = word.chars().count();
        if line > 0 && line + 1 + width > 70 {
            out.push('\n');
            line = 0;
        } else if line > 0 {
            out.push(' ');
            line += 1;
        }
        out.push_str(word);
        line += width;
    }
    out
}

/// Print an experiment section header.
pub fn section(title: &str) {
    println!("\n## {title}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["b", "22"]);
        let text = t.render();
        assert!(text.contains("| name  | value |"));
        assert!(text.contains("| alpha | 1     |"));
        assert!(text.lines().count() == 4);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only"]);
        assert_eq!(t.rows.len(), 1);
        let text = t.render();
        assert!(text.contains("only"));
    }

    #[test]
    fn formatters_behave() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(pct(0.5), "50.0%");
    }

    #[test]
    fn wrap_breaks_at_spaces_within_seventy_columns() {
        let text = "word ".repeat(40);
        let wrapped = wrap(&text);
        assert!(wrapped.lines().all(|line| line.len() <= 70));
        assert_eq!(wrapped.split_whitespace().count(), 40);
        assert_eq!(wrap(&"x".repeat(90)), "x".repeat(90));
        assert_eq!(wrap("a  b\nc"), "a b c");
    }
}
