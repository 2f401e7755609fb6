//! Quickstart: generate a synthetic country, simulate one week of mobile
//! traffic through the measurement pipeline, and reproduce the paper's
//! headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mobilenet::core::ranking::{service_ranking, uplink_fraction, zipf_ranking};
use mobilenet::core::report::overview_text;
use mobilenet::traffic::Direction;
use mobilenet::{Pipeline, Scale};

fn main() {
    // A ~1,000-commune country with the full measurement pipeline:
    // sessions → GTP probes → ULI localization → DPI → commune aggregation.
    println!("generating study (this samples a few million sessions)...\n");
    let study = Pipeline::builder()
        .scale(Scale::Small)
        .seed(42)
        .run()
        .expect("small config is valid")
        .into_study();

    println!("== dataset overview ==\n{}", overview_text(&study));

    // §3 / Figure 2: the service ranking follows a Zipf law in its head.
    let fig2 = zipf_ranking(&study);
    if let Some(fit) = &fig2.dl_fit {
        println!(
            "== figure 2 ==\ndownlink Zipf exponent {:.2} (paper: 1.69), r² {:.3}, {:.1} orders of magnitude spanned\n",
            fit.exponent, fit.r2, fig2.dl_span_orders
        );
    }

    // §3 / Figure 3: who carries the traffic.
    let ranking = service_ranking(&study, Direction::Down);
    println!("== figure 3: top services by downlink share ==");
    for s in ranking.services.iter().take(8) {
        println!(
            "  {:<16} {:<16} {:>5.1}%",
            s.name,
            s.category.label(),
            s.share_of_total * 100.0
        );
    }
    let video = ranking
        .category_shares
        .get("video streaming")
        .copied()
        .unwrap_or(0.0);
    println!(
        "  video streaming carries {:.0}% of downlink (paper: >46%)",
        video * 100.0
    );
    println!(
        "  uplink is {:.1}% of the total load (paper: <5%)",
        uplink_fraction(&study) * 100.0
    );
}
