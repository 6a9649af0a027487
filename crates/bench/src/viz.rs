//! Terminal line charts for the figure reproductions: log-scale multi-
//! series plots rendered with Unicode block characters, so `reproduce`
//! can *draw* Figure 5 rather than only tabulate it.

/// One series: a label and `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points (x ascending).
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series.
    pub fn new(label: &str, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.to_string(),
            points,
        }
    }
}

/// Marker glyphs assigned to series in order.
const MARKS: [char; 6] = ['o', 'x', '+', '*', '#', '@'];

/// Renders series into a `width × height` character grid with a
/// log2-scaled y axis (the natural scale for runtime plots) and linear x.
pub fn render_chart(title: &str, series: &[Series], width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 4, "chart too small");
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if pts.is_empty() {
        return format!("== {title} ==\n(no data)\n");
    }
    let (x_min, x_max) = min_max(pts.iter().map(|p| p.0));
    let (y_min, y_max) = min_max(pts.iter().map(|p| p.1.max(f64::MIN_POSITIVE).log2()));
    let x_span = (x_max - x_min).max(1e-12);
    let y_span = (y_max - y_min).max(1e-12);

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let mark = MARKS[si % MARKS.len()];
        for &(x, y) in &s.points {
            let cx = (((x - x_min) / x_span) * (width - 1) as f64).round() as usize;
            let cy = (((y.max(f64::MIN_POSITIVE).log2() - y_min) / y_span) * (height - 1) as f64)
                .round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = mark;
        }
    }

    let mut out = format!("== {title} ==\n");
    let y_hi = format!("2^{:.1}", y_max);
    let y_lo = format!("2^{:.1}", y_min);
    for (r, row) in grid.iter().enumerate() {
        let margin = if r == 0 {
            format!("{y_hi:>8} ")
        } else if r == height - 1 {
            format!("{y_lo:>8} ")
        } else {
            " ".repeat(9)
        };
        out.push_str(&margin);
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "{:>9}+{}\n{:>10}{:<w$.1}{:>w2$.1}\n",
        "",
        "-".repeat(width),
        "",
        x_min,
        x_max,
        w = width / 2,
        w2 = width - width / 2
    ));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", MARKS[si % MARKS.len()], s.label));
    }
    out
}

fn min_max(vals: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in vals {
        if v < lo {
            lo = v;
        }
        if v > hi {
            hi = v;
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_series() -> Vec<Series> {
        vec![
            Series::new("linear", (0..8).map(|i| (i as f64, 2f64.powi(i))).collect()),
            Series::new("flat", (0..8).map(|i| (i as f64, 16.0)).collect()),
        ]
    }

    #[test]
    fn renders_with_title_and_legend() {
        let s = render_chart("demo", &demo_series(), 40, 10);
        assert!(s.contains("== demo =="));
        assert!(s.contains("o linear"));
        assert!(s.contains("x flat"));
        assert!(s.lines().count() > 10);
    }

    #[test]
    fn marks_appear_in_grid() {
        let s = render_chart("demo", &demo_series(), 40, 10);
        assert!(s.contains('o'));
        assert!(s.contains('x'));
    }

    #[test]
    fn growing_series_slopes_up() {
        let s = render_chart(
            "slope",
            &[Series::new(
                "up",
                (0..10).map(|i| (i as f64, 4f64.powi(i))).collect(),
            )],
            40,
            12,
        );
        // The first 'o' (top row downward) must be to the right of the
        // last row's 'o'.
        let rows: Vec<&str> = s.lines().filter(|l| l.contains('|')).collect();
        let top = rows.iter().position(|l| l.contains('o')).unwrap();
        let bottom = rows.iter().rposition(|l| l.contains('o')).unwrap();
        let cx = |l: &str| l.find('o').unwrap();
        assert!(cx(rows[top]) > cx(rows[bottom]), "log plot slopes upward");
    }

    #[test]
    fn empty_series_is_handled() {
        let s = render_chart("none", &[], 40, 8);
        assert!(s.contains("(no data)"));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_canvas_rejected() {
        render_chart("x", &demo_series(), 4, 2);
    }
}
