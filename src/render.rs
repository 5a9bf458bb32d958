//! Rendering of visibility maps: SVG (vector, the object-space output
//! drawn directly) and PPM (the z-buffer's image-space picture, for
//! contrast).

use hsr_core::zbuffer::ZBuffer;
use hsr_core::VisibilityMap;
use hsr_terrain::Tin;
use std::fmt::Write as _;

/// Renders a visibility map as an SVG document: every visible piece is a
/// line segment in the image plane, colored by its edge id; crossings are
/// small dots. This is the "rendering procedure" consuming the paper's
/// combinatorial output.
pub fn visibility_svg(vis: &VisibilityMap, width_px: f64) -> String {
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut z0, mut z1) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in &vis.pieces {
        x0 = x0.min(p.x0);
        x1 = x1.max(p.x1);
        z0 = z0.min(p.z_min());
        z1 = z1.max(p.z_max());
    }
    if !x0.is_finite() {
        (x0, x1, z0, z1) = (0.0, 1.0, 0.0, 1.0);
    }
    let pad = 0.03 * (x1 - x0).max(z1 - z0).max(1e-9);
    let (x0, x1, z0, z1) = (x0 - pad, x1 + pad, z0 - pad, z1 + pad);
    let scale = width_px / (x1 - x0);
    let height_px = (z1 - z0) * scale;
    let tx = |x: f64| (x - x0) * scale;
    let ty = |z: f64| height_px - (z - z0) * scale; // flip: +z is up

    let mut svg = String::with_capacity(vis.pieces.len() * 90 + 512);
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width_px:.0}" height="{height_px:.0}" viewBox="0 0 {width_px:.1} {height_px:.1}">"#
    );
    let _ = writeln!(svg, r##"<rect width="100%" height="100%" fill="#0b1020"/>"##);
    for p in &vis.pieces {
        let hue = (p.edge.wrapping_mul(2654435761) % 360) as f64;
        let _ = writeln!(
            svg,
            r#"<line x1="{:.2}" y1="{:.2}" x2="{:.2}" y2="{:.2}" stroke="hsl({hue:.0},70%,60%)" stroke-width="1"/>"#,
            tx(p.x0),
            ty(p.z0),
            tx(p.x1),
            ty(p.z1),
        );
    }
    for c in &vis.crossings {
        let _ = writeln!(
            svg,
            r##"<circle cx="{:.2}" cy="{:.2}" r="1.2" fill="#ffffff" fill-opacity="0.6"/>"##,
            tx(c.x),
            ty(c.z),
        );
    }
    svg.push_str("</svg>\n");
    svg
}

/// Renders the z-buffer depth image as a binary PPM (near = bright).
pub fn zbuffer_ppm(tin: &Tin, res: usize) -> Vec<u8> {
    let zb = ZBuffer::render(tin, res);
    let (lo, hi) = tin.ground_bounds();
    let (dlo, dhi) = (lo.x, hi.x);
    let span = (dhi - dlo).max(1e-9);
    let mut out = Vec::with_capacity(zb.ny * zb.nz * 3 + 32);
    out.extend_from_slice(format!("P6\n{} {}\n255\n", zb.ny, zb.nz).as_bytes());
    // PPM scans top-to-bottom: iterate z from high to low.
    let (y0, y1, z0, z1) = {
        let (zl, zh) = tin.height_range();
        (lo.y, hi.y, zl, zh)
    };
    for iz in (0..zb.nz).rev() {
        let z = z0 + (iz as f64 + 0.5) / zb.nz as f64 * (z1 - z0);
        for iy in 0..zb.ny {
            let y = y0 + (iy as f64 + 0.5) / zb.ny as f64 * (y1 - y0);
            let d = zb.depth_at(y, z);
            let v = if d.is_finite() {
                (255.0 * ((d - dlo) / span).clamp(0.0, 1.0)) as u8
            } else {
                0
            };
            out.extend_from_slice(&[v, v / 2, 255 - v]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{Scene, View};
    use hsr_terrain::gen;

    #[test]
    fn svg_is_well_formed_and_counts_match_report() {
        let scene = Scene::from_grid(&gen::fbm(8, 8, 3, 6.0, 5)).unwrap();
        let report = scene.eval(&View::orthographic(0.0)).unwrap();
        let svg = visibility_svg(&report.vis, 640.0);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // One <line> per visible piece, one <circle> per crossing — the
        // drawing is exactly the report's combinatorial output, so the
        // element counts must reproduce k (up to the vertical points,
        // which have no extent to draw).
        assert_eq!(svg.matches("<line").count(), report.vis.pieces.len());
        assert_eq!(svg.matches("<circle").count(), report.vis.crossings.len());
        assert_eq!(
            svg.matches("<line").count()
                + svg.matches("<circle").count()
                + report.vis.vertical_visible.len(),
            report.k
        );
    }

    #[test]
    fn svg_is_deterministic_for_a_fixed_seed() {
        let scene = Scene::from_grid(&gen::ridge_field(10, 10, 3, 8.0, 21)).unwrap();
        let a = visibility_svg(&scene.eval(&View::orthographic(0.3)).unwrap().vis, 800.0);
        let b = visibility_svg(&scene.eval(&View::orthographic(0.3)).unwrap().vis, 800.0);
        assert_eq!(a, b, "same seed + view must render byte-identically");
    }

    #[test]
    fn svg_of_empty_map() {
        let svg = visibility_svg(&VisibilityMap::default(), 100.0);
        assert!(svg.contains("svg"));
    }

    #[test]
    fn ppm_has_header_and_exact_payload_size() {
        let tin = gen::gaussian_hills(8, 8, 3, 1).to_tin().unwrap();
        let ppm = zbuffer_ppm(&tin, 64);
        assert!(ppm.starts_with(b"P6\n"));
        // Header declares the dimensions; the payload is 3 bytes/pixel.
        let header_end = ppm
            .windows(4)
            .position(|w| w == b"255\n")
            .map(|p| p + 4)
            .unwrap();
        let header = std::str::from_utf8(&ppm[..header_end]).unwrap();
        let dims: Vec<usize> = header
            .split_whitespace()
            .skip(1)
            .take(2)
            .map(|t| t.parse().unwrap())
            .collect();
        assert_eq!(ppm.len() - header_end, dims[0] * dims[1] * 3);
    }

    #[test]
    fn ppm_is_deterministic_for_a_fixed_seed() {
        let tin = gen::gaussian_hills(8, 8, 3, 17).to_tin().unwrap();
        assert_eq!(zbuffer_ppm(&tin, 48), zbuffer_ppm(&tin, 48));
    }
}
