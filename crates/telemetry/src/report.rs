//! Self-contained HTML report rendering: page scaffold plus inline-SVG
//! chart builders (stacked bars, heatmap, sparkline).
//!
//! Everything is hand-rolled strings — no template engine, no JS, no
//! external CSS — so `results/report.html` opens anywhere, including from
//! a CI artifact zip. The bench layer owns *what* to plot (attribution
//! buckets, attack matrix, epoch series); this module owns only *how* to
//! draw it.

/// Okabe–Ito colorblind-safe palette, cycled by series index.
const PALETTE: &[&str] = &[
    "#0072b2", "#e69f00", "#009e73", "#d55e00", "#cc79a7", "#56b4e9", "#f0e442", "#555555",
];

/// Escapes text for embedding in HTML/SVG element content or attributes.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Color for series `i`, cycling the palette.
pub fn color(i: usize) -> &'static str {
    PALETTE[i % PALETTE.len()]
}

/// Horizontal 100%-stacked bars, one row per `(label, values)` entry, with
/// a shared legend. Rows whose values sum to zero render as empty tracks.
pub fn stacked_bars(rows: &[(String, Vec<f64>)], legend: &[&str]) -> String {
    if rows.is_empty() {
        return "<p class=\"empty\">no data</p>".to_string();
    }
    let (w, row_h, ml, mr) = (720.0, 22.0, 170.0, 12.0);
    let legend_h = 20.0;
    let h = rows.len() as f64 * row_h + legend_h + 8.0;
    let pw = w - ml - mr;
    let mut svg = format!(
        "<svg viewBox=\"0 0 {w} {h:.0}\" width=\"{w}\" height=\"{h:.0}\" \
         font-family=\"sans-serif\" font-size=\"11\" role=\"img\">\n"
    );
    let mut lx = ml;
    for (i, name) in legend.iter().enumerate() {
        svg.push_str(&format!(
            "<rect x=\"{lx:.1}\" y=\"3\" width=\"10\" height=\"10\" fill=\"{}\"/>\
             <text x=\"{:.1}\" y=\"12\" fill=\"#333\">{}</text>\n",
            color(i),
            lx + 14.0,
            esc(name)
        ));
        lx += 14.0 + 7.0 * name.len() as f64 + 16.0;
    }
    for (r, (label, values)) in rows.iter().enumerate() {
        let y = legend_h + r as f64 * row_h + 4.0;
        let total: f64 = values.iter().sum();
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\" fill=\"#333\">{}</text>\n",
            ml - 8.0,
            y + 12.0,
            esc(label)
        ));
        let mut x = ml;
        if total > 0.0 {
            for (i, &v) in values.iter().enumerate() {
                let bw = v / total * pw;
                if bw <= 0.0 {
                    continue;
                }
                let pct = v / total * 100.0;
                svg.push_str(&format!(
                    "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{bw:.1}\" height=\"16\" \
                     fill=\"{}\"><title>{}: {pct:.1}%</title></rect>\n",
                    color(i),
                    esc(legend.get(i).unwrap_or(&"?")),
                ));
                x += bw;
            }
        } else {
            svg.push_str(&format!(
                "<rect x=\"{ml}\" y=\"{y:.1}\" width=\"{pw}\" height=\"16\" \
                 fill=\"#f2f2f2\"/>\n"
            ));
        }
    }
    svg.push_str("</svg>");
    svg
}

/// A heatmap of `values[row][col]` in `[0, 1]`; `None` cells render gray.
/// Used for the attack-matrix success-probability grid.
pub fn heatmap(
    row_labels: &[String],
    col_labels: &[String],
    values: &[Vec<Option<f64>>],
) -> String {
    if row_labels.is_empty() || col_labels.is_empty() {
        return "<p class=\"empty\">no data</p>".to_string();
    }
    let (cell_w, cell_h, ml, mt) = (72.0, 24.0, 190.0, 64.0);
    let w = ml + col_labels.len() as f64 * cell_w + 12.0;
    let h = mt + row_labels.len() as f64 * cell_h + 8.0;
    let mut svg = format!(
        "<svg viewBox=\"0 0 {w:.0} {h:.0}\" width=\"{w:.0}\" height=\"{h:.0}\" \
         font-family=\"sans-serif\" font-size=\"11\" role=\"img\">\n"
    );
    for (c, label) in col_labels.iter().enumerate() {
        let x = ml + (c as f64 + 0.5) * cell_w;
        svg.push_str(&format!(
            "<text x=\"{x:.1}\" y=\"{:.1}\" text-anchor=\"start\" fill=\"#333\" \
             transform=\"rotate(-35 {x:.1} {:.1})\">{}</text>\n",
            mt - 10.0,
            mt - 10.0,
            esc(label)
        ));
    }
    for (r, label) in row_labels.iter().enumerate() {
        let y = mt + (r as f64 + 0.5) * cell_h;
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\" fill=\"#333\">{}</text>\n",
            ml - 8.0,
            y + 4.0,
            esc(label)
        ));
        for c in 0..col_labels.len() {
            let v = values.get(r).and_then(|row| row.get(c).copied()).flatten();
            let x = ml + c as f64 * cell_w;
            let yy = mt + r as f64 * cell_h;
            match v {
                Some(p) => {
                    let p = p.clamp(0.0, 1.0);
                    // White (0.0, attack defeated) to deep red (1.0).
                    let (g, b) = ((255.0 - 215.0 * p) as u8, (255.0 - 225.0 * p) as u8);
                    let text_fill = if p > 0.55 { "#fff" } else { "#333" };
                    svg.push_str(&format!(
                        "<rect x=\"{x:.1}\" y=\"{yy:.1}\" width=\"{:.1}\" height=\"{:.1}\" \
                         fill=\"rgb(255,{g},{b})\" stroke=\"#ccc\"/>\
                         <text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\" \
                         fill=\"{text_fill}\">{p:.2}</text>\n",
                        cell_w - 1.0,
                        cell_h - 1.0,
                        x + cell_w / 2.0,
                        yy + cell_h / 2.0 + 4.0,
                    ));
                }
                None => svg.push_str(&format!(
                    "<rect x=\"{x:.1}\" y=\"{yy:.1}\" width=\"{:.1}\" height=\"{:.1}\" \
                     fill=\"#eee\" stroke=\"#ccc\"/>\n",
                    cell_w - 1.0,
                    cell_h - 1.0,
                )),
            }
        }
    }
    svg.push_str("</svg>");
    svg
}

/// A small inline sparkline of `values` against their index.
pub fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return "<span class=\"empty\">–</span>".to_string();
    }
    let (w, h, pad) = (160.0, 28.0, 2.0);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if hi == lo {
        hi = lo + 1.0;
    }
    let n = values.len().max(2) as f64 - 1.0;
    let pts: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let x = pad + i as f64 / n * (w - 2.0 * pad);
            let y = pad + (1.0 - (v - lo) / (hi - lo)) * (h - 2.0 * pad);
            format!("{x:.1},{y:.1}")
        })
        .collect();
    format!(
        "<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" role=\"img\">\
         <polyline points=\"{}\" fill=\"none\" stroke=\"{}\" stroke-width=\"1.4\"/></svg>",
        pts.join(" "),
        PALETTE[0]
    )
}

/// Accumulates titled sections into one standalone HTML page.
#[derive(Debug, Default)]
pub struct HtmlReport {
    title: String,
    sections: Vec<(String, String)>,
}

impl HtmlReport {
    /// A new report page titled `title`.
    pub fn new(title: &str) -> Self {
        HtmlReport {
            title: title.to_string(),
            ..Self::default()
        }
    }

    /// Appends a section; `body_html` is trusted markup from this module's
    /// own builders (escape any data-derived text with [`esc`]).
    pub fn section(&mut self, title: &str, body_html: &str) -> &mut Self {
        self.sections.push((esc(title), body_html.to_string()));
        self
    }

    /// Renders the full page.
    pub fn finish(&self) -> String {
        let mut body = String::new();
        for (title, html) in &self.sections {
            body.push_str(&format!(
                "<section>\n<h2>{title}</h2>\n{html}\n</section>\n"
            ));
        }
        format!(
            "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
             <title>{title}</title>\n<style>\n\
             body{{font-family:sans-serif;margin:24px auto;max-width:860px;color:#222}}\n\
             h1{{font-size:22px;margin-bottom:2px}}\n\
             h2{{font-size:16px;border-bottom:1px solid #ddd;padding-bottom:4px}}\n\
             .empty{{color:#999;font-style:italic}}\n\
             table{{border-collapse:collapse;font-size:12px}}\n\
             td,th{{border:1px solid #ddd;padding:3px 8px;text-align:right}}\n\
             th{{background:#f5f5f5}}\n\
             td:first-child,th:first-child{{text-align:left}}\n\
             section{{margin-bottom:28px}}\n</style>\n</head>\n<body>\n\
             <h1>{title}</h1>\n{body}</body>\n</html>\n",
            title = esc(&self.title),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_html_metacharacters() {
        assert_eq!(esc("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&#39;");
    }

    #[test]
    fn stacked_bars_normalize_to_full_width() {
        let rows = vec![("mirza/lbm".to_string(), vec![3.0, 1.0])];
        let svg = stacked_bars(&rows, &["queue", "refresh"]);
        assert!(svg.contains("75.0%"));
        assert!(svg.contains("25.0%"));
        // Zero rows render an empty track, not a panic.
        let svg = stacked_bars(&[("x".to_string(), vec![0.0, 0.0])], &["a", "b"]);
        assert!(svg.contains("#f2f2f2"));
    }

    #[test]
    fn heatmap_marks_missing_cells_gray() {
        let svg = heatmap(
            &["feint".to_string()],
            &["mirza".to_string(), "trr".to_string()],
            &[vec![Some(0.75), None]],
        );
        assert!(svg.contains("0.75"));
        assert!(svg.contains("#eee"));
    }

    #[test]
    fn sparkline_handles_flat_and_empty_series() {
        assert!(sparkline(&[]).contains("empty"));
        assert!(sparkline(&[5.0, 5.0, 5.0]).contains("polyline"));
    }

    #[test]
    fn page_scaffold_is_standalone_html() {
        let mut r = HtmlReport::new("MIRZA run report");
        r.section("Attack matrix", "<p>chart</p>");
        let html = r.finish();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<h2>Attack matrix</h2>"));
        assert!(html.contains("<p>chart</p>"));
        assert!(html.ends_with("</html>\n"));
        // Titles are escaped.
        let mut r = HtmlReport::new("a<b");
        let html = r.section("x&y", "").finish();
        assert!(html.contains("a&lt;b") && html.contains("x&amp;y"));
    }
}
