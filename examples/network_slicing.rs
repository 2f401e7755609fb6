//! Network-slicing dimensioning — the paper's motivating application.
//!
//! The introduction argues that understanding *when* each service is
//! consumed enables dynamic resource orchestration: "an effective
//! orchestration of network slices builds on the spatial [and temporal]
//! complementarity of the demands for the different services". This
//! example quantifies that: if every service category got its own
//! statically-dimensioned slice (provisioned for its own peak), how much
//! more capacity would that need than a shared pool provisioned for the
//! peak of the *sum*? The temporal heterogeneity the paper demonstrates
//! (services peaking at different topical times) is exactly what makes
//! the shared pool cheaper.
//!
//! ```text
//! cargo run --release --example network_slicing
//! ```

use mobilenet::core::slicing::per_category_slicing;
use mobilenet::traffic::Direction;
use mobilenet::{Pipeline, Scale};

fn main() {
    let study = Pipeline::builder()
        .scale(Scale::Small)
        .seed(42)
        .run()
        .expect("small config is valid")
        .into_study();
    // One slice per service category, over the national hourly downlink.
    let report = per_category_slicing(&study, Direction::Down);

    println!("== per-slice (static) dimensioning ==");
    println!(
        "{:<16} {:>12} {:>12} {:>8}",
        "slice", "peak MB/h", "mean MB/h", "peak/mean"
    );
    for slice in &report.slices {
        println!(
            "{:<16} {:>12.0} {:>12.0} {:>8.2}",
            slice.name,
            slice.peak,
            slice.mean,
            slice.peak_to_mean()
        );
    }

    println!("\n== pooling gain from temporal complementarity ==");
    println!(
        "sum of per-slice peaks : {:>12.0} MB/h",
        report.sum_of_peaks
    );
    println!("peak of the shared pool: {:>12.0} MB/h", report.shared_peak);
    println!(
        "static slicing over-provisions by {:.1}% — the temporal heterogeneity of §4 is the saving",
        report.pooling_gain() * 100.0
    );

    // When does each slice need its capacity? Distinct peak hours are the
    // fingerprint of Figure 6.
    println!("\n== peak hour of each slice (hour-of-week, 0 = Sat 00:00) ==");
    for slice in &report.slices {
        let day = ["Sat", "Sun", "Mon", "Tue", "Wed", "Thu", "Fri"][slice.peak_hour / 24];
        println!("{:<16} {} {:02}:00", slice.name, day, slice.peak_hour % 24);
    }
}
