//! Urbanization and land use seen through mobile demand — the paper's §5
//! in one report, plus an ASCII rendering of Figure 9's maps.
//!
//! ```text
//! cargo run --release --example urban_planning
//! ```

use mobilenet::core::maps::{coverage_map, per_user_map};
use mobilenet::core::spatial::{concentration, spatial_correlation};
use mobilenet::core::urbanization::{mean_temporal_r2, mean_volume_ratios, urbanization_profiles};
use mobilenet::geo::UsageClass;
use mobilenet::traffic::Direction;
use mobilenet::{Pipeline, Scale};

fn main() {
    // Expected-value path: noise-free aggregates at demo scale. The measured
    // path gives the same picture at figure scale (6k+ communes) — see the
    // `figures` binary — but at 1,000 communes its sampling noise would blur
    // this illustration.
    let study = Pipeline::builder()
        .scale(Scale::Small)
        .expected()
        .seed(42)
        .run()
        .expect("small config is valid")
        .into_study();

    // Figure 8: demand concentration across communes.
    let twitter = study
        .catalog()
        .head()
        .iter()
        .position(|s| s.name == "Twitter")
        .unwrap();
    let conc = concentration(&study, twitter);
    println!("== demand concentration (Twitter, Figure 8) ==");
    println!(
        "top 1% of communes carry {:.0}% of the traffic; top 10% carry {:.0}%",
        conc.top1_share * 100.0,
        conc.top10_share * 100.0
    );
    println!(
        "median weekly per-subscriber volume {:.2} MB; 90th percentile {:.2} MB\n",
        conc.per_user_cdf.inverse(0.5),
        conc.per_user_cdf.inverse(0.9)
    );

    // Figure 10: geography is shared across services.
    let corr = spatial_correlation(&study, Direction::Down);
    let outliers: Vec<&str> = corr.outlier_order()[..3]
        .iter()
        .map(|&i| corr.names[i])
        .collect();
    println!("== spatial correlation (Figure 10) ==");
    println!(
        "mean pairwise r² of per-user maps: {:.2} (paper: 0.60); least-correlated: {}\n",
        corr.mean_r2,
        outliers.join(", ")
    );

    // Figure 11: urbanization scales volume, not timing.
    let urb = urbanization_profiles(&study, Direction::Down);
    let ratios = mean_volume_ratios(&urb);
    let r2 = mean_temporal_r2(&urb);
    println!("== urbanization (Figure 11) ==");
    println!(
        "{:<12} {:>14} {:>14}",
        "class", "volume ratio", "temporal r²"
    );
    for class in UsageClass::ALL {
        println!(
            "{:<12} {:>14.2} {:>14.2}",
            class.label(),
            ratios[class.index()],
            r2[class.index()]
        );
    }
    println!("(volume ratios relative to urban; TGV stands apart in timing)\n");

    // Figure 9: the maps, rendered as ASCII (cities and corridors glow).
    println!("== per-subscriber Twitter downlink (Figure 9 left) ==");
    println!(
        "{}",
        per_user_map(&study, Direction::Down, twitter, 72).to_ascii()
    );

    println!("== 3G/4G coverage (Figure 9 right; ' '=none, ':'=3G, '@'=4G) ==");
    let grid = coverage_map(study.country(), 72);
    let rendered: String = grid
        .cells
        .chunks(grid.width)
        .map(|row| {
            row.iter()
                .map(|v| match *v as u8 {
                    2 => '@',
                    1 => ':',
                    _ => ' ',
                })
                .collect::<String>()
                + "\n"
        })
        .collect();
    println!("{rendered}");
}
