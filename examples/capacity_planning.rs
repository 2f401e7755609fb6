//! Capacity planning from demand forecasts — the follow-on to the paper's
//! orchestration motivation: given the first five days of the measurement
//! week, how well can an operator predict (and therefore pre-provision
//! for) the weekend's per-service demand?
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use mobilenet::core::forecast::{forecast_report, holt_winters, HoltWintersConfig};
use mobilenet::traffic::Direction;
use mobilenet::{Pipeline, Scale};

fn main() {
    let study = Pipeline::builder()
        .scale(Scale::Small)
        .seed(42)
        .run()
        .expect("small config is valid")
        .into_study();
    let train_hours = 120; // Sat..Wed; predict Thu+Fri

    println!("== per-service predictability (train 5 days, test 2) ==");
    println!(
        "{:<17} {:>12} {:>12} {:>9}",
        "service", "naive sMAPE", "HW sMAPE", "winner"
    );
    let report = forecast_report(&study, Direction::Down, train_hours);
    let mut hw_wins = 0;
    for f in &report {
        let winner = if f.holt_winters.smape <= f.naive.smape {
            hw_wins += 1;
            "HW"
        } else {
            "naive"
        };
        println!(
            "{:<17} {:>11.1}% {:>11.1}% {:>9}",
            f.name,
            f.naive.smape * 100.0,
            f.holt_winters.smape * 100.0,
            winner
        );
    }
    println!(
        "\nHolt-Winters wins on {hw_wins}/{} services.",
        report.len()
    );

    // Provisioning: forecast the total downlink demand and compare the
    // implied peak-hour capacity against what actually happened.
    let n = study.catalog().head().len();
    let mut total = vec![0.0; mobilenet::traffic::HOURS_PER_WEEK];
    for s in 0..n {
        for (acc, v) in total
            .iter_mut()
            .zip(study.dataset().national_series(Direction::Down, s).iter())
        {
            *acc += v;
        }
    }
    let (train, test) = total.split_at(train_hours);
    let forecast = holt_winters(train, &HoltWintersConfig::hourly(), test.len());
    let predicted_peak = forecast.iter().cloned().fold(0.0f64, f64::max);
    let actual_peak = test.iter().cloned().fold(0.0f64, f64::max);
    println!("\n== peak-hour provisioning for the held-out days ==");
    println!("predicted peak demand: {predicted_peak:>12.0} MB/h");
    println!("actual peak demand:    {actual_peak:>12.0} MB/h");
    let headroom = predicted_peak * 1.15;
    println!(
        "provisioning at forecast +15% headroom ({headroom:.0} MB/h) {} the actual peak",
        if headroom >= actual_peak {
            "covers"
        } else {
            "misses"
        }
    );
}
