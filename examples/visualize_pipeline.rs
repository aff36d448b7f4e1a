//! Visual debugging: dump every pipeline stage as PGM images you can open
//! with any viewer — the reference texture, the simulated re-capture, and a
//! side-by-side match visualization with correspondence lines — plus a
//! Perfetto timeline of the multi-stream GPU pipeline schedule.
//!
//! ```sh
//! cargo run --release -p texid-apps --example visualize_pipeline
//! # → ./texid-viz/*.pgm + ./texid-viz/pipeline.trace.json
//! # open the .trace.json at https://ui.perfetto.dev or chrome://tracing
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use texid_gpu::{DeviceSpec, GpuSim, Precision};
use texid_image::io::write_pgm;
use texid_image::{CaptureCondition, GrayImage, TextureGenerator};
use texid_knn::geometry::{verify_matches, RansacParams};
use texid_knn::{match_pair, FeatureBlock, MatchConfig};
use texid_sift::{extract, FeatureMatrix, SiftConfig};

/// Draw a small cross at (x, y).
fn draw_cross(im: &mut GrayImage, x: f32, y: f32, value: f32) {
    let (xi, yi) = (x.round() as isize, y.round() as isize);
    for d in -2isize..=2 {
        for (px, py) in [(xi + d, yi), (xi, yi + d)] {
            if px >= 0 && py >= 0 && (px as usize) < im.width() && (py as usize) < im.height() {
                im.set(px as usize, py as usize, value);
            }
        }
    }
}

/// Draw a line with integer DDA.
fn draw_line(im: &mut GrayImage, x0: f32, y0: f32, x1: f32, y1: f32, value: f32) {
    let steps = ((x1 - x0).abs().max((y1 - y0).abs()).ceil() as usize).max(1);
    for s in 0..=steps {
        let t = s as f32 / steps as f32;
        let x = (x0 + (x1 - x0) * t).round() as isize;
        let y = (y0 + (y1 - y0) * t).round() as isize;
        if x >= 0 && y >= 0 && (x as usize) < im.width() && (y as usize) < im.height() {
            im.set(x as usize, y as usize, value);
        }
    }
}

/// Side-by-side canvas with a separator column.
fn side_by_side(a: &GrayImage, b: &GrayImage) -> GrayImage {
    let h = a.height().max(b.height());
    let w = a.width() + b.width() + 4;
    let mut canvas = GrayImage::filled(w, h, 0.0);
    for y in 0..a.height() {
        for x in 0..a.width() {
            canvas.set(x, y, a.get(x, y));
        }
    }
    for y in 0..b.height() {
        for x in 0..b.width() {
            canvas.set(a.width() + 4 + x, y, b.get(x, y));
        }
    }
    canvas
}

fn main() -> std::io::Result<()> {
    let out_dir = std::path::PathBuf::from("texid-viz");
    std::fs::create_dir_all(&out_dir)?;

    // Stage 1: reference texture + its re-capture.
    let factory = TextureGenerator::with_size(256);
    let reference_img = factory.generate(5);
    let mut rng = SmallRng::seed_from_u64(17);
    let cond = CaptureCondition::moderate(&mut rng);
    let query_img = cond.apply(&reference_img, 0);
    write_pgm(&reference_img, &out_dir.join("01_reference.pgm"))?;
    write_pgm(&query_img, &out_dir.join("02_query_capture.pgm"))?;

    // Stage 2: keypoints.
    let reference: FeatureMatrix = extract(&reference_img, &SiftConfig::reference(384));
    let query: FeatureMatrix = extract(&query_img, &SiftConfig::query(768));
    let mut ref_kp_img = reference_img.clone();
    for kp in &reference.keypoints {
        draw_cross(&mut ref_kp_img, kp.x, kp.y, 1.0);
    }
    write_pgm(&ref_kp_img, &out_dir.join("03_reference_keypoints.pgm"))?;
    println!(
        "extracted {} reference / {} query features (rotation {:.1} deg, zoom {:.2})",
        reference.len(),
        query.len(),
        cond.rotation_deg,
        cond.scale
    );

    // Stage 3: matching + geometric verification.
    let cfg = MatchConfig { precision: Precision::F32, ..MatchConfig::default() };
    let mut sim = GpuSim::new(DeviceSpec::tesla_p100());
    let st = sim.default_stream();
    let out = match_pair(
        &cfg,
        &FeatureBlock::F32(reference.mat.clone()),
        &FeatureBlock::F32(query.mat.clone()),
        &mut sim,
        st,
    );
    let geo = verify_matches(&out.matches, &reference.keypoints, &query.keypoints, &RansacParams::default());
    println!(
        "{} ratio-test matches, {} geometric inliers (recovered rot {:.1} deg, scale {:.2})",
        out.matches.len(),
        geo.inlier_count(),
        geo.transform.rotation().to_degrees(),
        geo.transform.scale()
    );

    // Stage 4: correspondence visualization (inliers bright, outliers dim).
    let mut canvas = side_by_side(&reference_img, &query_img);
    let off = (reference_img.width() + 4) as f32;
    let inlier_set: std::collections::HashSet<usize> = geo.inliers.iter().copied().collect();
    for (i, m) in out.matches.iter().enumerate() {
        let r = &reference.keypoints[m.ref_idx as usize];
        let q = &query.keypoints[m.query_idx as usize];
        let v = if inlier_set.contains(&i) { 1.0 } else { 0.25 };
        draw_line(&mut canvas, r.x, r.y, q.x + off, q.y, v);
    }
    write_pgm(&canvas, &out_dir.join("04_matches.pgm"))?;
    println!("wrote texid-viz/01..04*.pgm");

    // Stage 5: the schedule itself — a 4-stream, 16-chunk pipeline run as a
    // Chrome trace-event timeline (streams, DMA/compute engines, and the
    // driver lock each on their own track, all on the sim clock).
    let spec = DeviceSpec::tesla_p100();
    let chunk = texid_gpu::pipeline::ChunkSpec {
        batch: 64,
        m: 768,
        n: 768,
        d: 128,
        precision: Precision::F16,
        pinned: true,
    };
    let (stats, trace) = texid_gpu::pipeline::simulate_traced(
        &spec,
        &chunk,
        16,
        4,
        spec.calib.stream_serial_fraction,
    );
    let trace_path = out_dir.join("pipeline.trace.json");
    std::fs::write(&trace_path, trace.to_json())?;
    println!(
        "wrote {} ({} events, makespan {:.0} us) — open in https://ui.perfetto.dev",
        trace_path.display(),
        trace.len(),
        stats.makespan_us
    );

    assert!(geo.inlier_count() > 20, "visualization ran on a failed match");
    Ok(())
}
