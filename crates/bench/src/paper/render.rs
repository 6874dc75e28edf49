//! Plain-text rendering: aligned tables for every experiment and Fig. 6
//! as an actual figure on stdout.

use super::metrics::Series;

/// Renders rows as an aligned monospace table with a header rule.
///
/// Columns are right-aligned when every body cell in them parses as a
/// number (typical for measurement columns), left-aligned otherwise.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let n_cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(n_cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let numeric: Vec<bool> = (0..n_cols)
        .map(|i| {
            !rows.is_empty()
                && rows.iter().all(|r| {
                    r.get(i)
                        .map(|c| c.trim().parse::<f64>().is_ok() || c.trim().is_empty())
                        .unwrap_or(true)
                })
        })
        .collect();
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize], numeric: &[bool]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            if numeric[i] {
                line.push_str(&format!("{:>width$}", cell, width = widths[i]));
            } else {
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
        &vec![false; n_cols],
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (n_cols - 1)));
    out.push('\n');
    for row in rows {
        let mut cells = row.clone();
        cells.resize(n_cols, String::new());
        out.push_str(&fmt_row(cells, &widths, &numeric));
        out.push('\n');
    }
    out
}

/// Glyphs assigned to series in order.
const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];

/// Renders series as an ASCII scatter/line chart of the given plot size
/// (`width` × `height` characters, axes and labels added around it).
/// X and Y scale linearly from zero to the maxima across all series.
pub fn render_ascii_chart(series: &[&Series], width: usize, height: usize) -> String {
    assert!(width >= 10 && height >= 4, "chart too small to be legible");
    let max_x = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, _)| x))
        .max()
        .unwrap_or(0)
        .max(1);
    let max_y = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(_, y)| y))
        .max()
        .unwrap_or(0)
        .max(1);

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            let col = ((x as f64 / max_x as f64) * (width - 1) as f64).round() as usize;
            let row = ((y as f64 / max_y as f64) * (height - 1) as f64).round() as usize;
            let row = height - 1 - row; // y grows upward
            // First-come glyphs win so overlapping series stay readable.
            if grid[row][col] == ' ' {
                grid[row][col] = glyph;
            }
        }
    }

    let y_label_width = max_y.to_string().len();
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{max_y:>y_label_width$}")
        } else if i == height - 1 {
            format!("{:>y_label_width$}", 0)
        } else {
            " ".repeat(y_label_width)
        };
        out.push_str(&label);
        out.push_str(" |");
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&" ".repeat(y_label_width));
    out.push_str(" +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&" ".repeat(y_label_width + 2));
    out.push_str(&format!("0{:>width$}\n", max_x, width = width - 1));
    // Legend.
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", GLYPHS[si % GLYPHS.len()], s.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<String>> {
        vec![
            vec!["site0".into(), "100".into(), "25".into()],
            vec!["site1".into(), "4000".into(), "3".into()],
        ]
    }

    #[test]
    fn table_aligns_columns() {
        let t = render_table(&["site", "updates", "corr"], &rows());
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("site"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Numeric columns right-aligned: "100" padded to width of "updates".
        assert!(lines[2].contains("    100"), "got: {:?}", lines[2]);
        assert!(lines[3].contains("   4000"), "got: {:?}", lines[3]);
        // Text column left-aligned.
        assert!(lines[2].starts_with("site0"));
    }

    #[test]
    fn table_handles_short_rows_and_empty() {
        let t = render_table(&["a", "b"], &[vec!["x".into()]]);
        assert!(t.contains('x'));
        let empty = render_table(&["a"], &[]);
        assert_eq!(empty.lines().count(), 2);
    }

    fn series(name: &str, pts: &[(u64, u64)]) -> Series {
        let mut s = Series::new(name);
        for &(x, y) in pts {
            s.push(x, y);
        }
        s
    }

    #[test]
    fn chart_has_expected_dimensions() {
        let a = series("up", &[(0, 0), (50, 50), (100, 100)]);
        let text = render_ascii_chart(&[&a], 40, 10);
        // 10 plot rows + axis + x labels + 1 legend line.
        assert_eq!(text.lines().count(), 13);
        assert!(text.contains("up"));
        assert!(text.contains('*'));
    }

    #[test]
    fn corners_carry_min_max_labels() {
        let a = series("s", &[(0, 0), (200, 80)]);
        let text = render_ascii_chart(&[&a], 30, 8);
        assert!(text.lines().next().unwrap().starts_with("80"));
        assert!(text.contains("200"));
    }

    #[test]
    fn two_series_get_distinct_glyphs() {
        let a = series("low", &[(0, 0), (100, 10)]);
        let b = series("high", &[(0, 0), (100, 100)]);
        let text = render_ascii_chart(&[&a, &b], 40, 10);
        assert!(text.contains('*'));
        assert!(text.contains('o'));
        assert!(text.contains("low"));
        assert!(text.contains("high"));
    }

    #[test]
    fn linear_series_occupies_the_diagonal() {
        let a = series("diag", &[(0, 0), (25, 25), (50, 50), (75, 75), (100, 100)]);
        let text = render_ascii_chart(&[&a], 20, 10);
        let plot_rows: Vec<&str> = text.lines().take(10).collect();
        // Top row has a glyph near the right, bottom row near the left.
        assert!(plot_rows[0].trim_end().ends_with('*'));
        assert!(plot_rows[9].contains('*'));
    }

    #[test]
    fn empty_series_render_without_panic() {
        let a = Series::new("empty");
        let text = render_ascii_chart(&[&a], 20, 5);
        assert!(text.contains("empty"));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_chart_rejected() {
        let a = Series::new("x");
        render_ascii_chart(&[&a], 5, 2);
    }
}
