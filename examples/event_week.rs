//! Why the paper picked an event-free week.
//!
//! §2: the measurement week "was carefully selected so as to avoid major
//! nationwide events like holidays or strikes". This example injects a
//! Saturday-evening stadium event near the capital and shows what it does
//! to the paper's analyses: a surge in the host commune's per-user demand,
//! and extra activity peaks at a non-topical moment.
//!
//! ```text
//! cargo run --release --example event_week
//! ```

use mobilenet::core::peaks::PeakConfig;
use mobilenet::core::topical::topical_profiles;
use mobilenet::traffic::{Direction, EventSpec};
use mobilenet::{Pipeline, Scale};

fn main() {
    let seed = 42;
    let clean = Pipeline::builder()
        .scale(Scale::Small)
        .seed(seed)
        .run()
        .expect("small config is valid")
        .into_study();

    // The same week, with a stadium match near the capital on Saturday
    // evening. The epicenter must be chosen on the same country, so peek
    // at the clean study's geography.
    let capital = clean.country().cities()[0].center;
    let event = Pipeline::builder()
        .scale(Scale::Small)
        .configure(|c| c.traffic.events.push(EventSpec::stadium_match(capital)))
        .seed(seed)
        .run()
        .expect("small config is valid")
        .into_study();

    // Effect 1: the host commune's demand surges.
    let host = clean.country().commune_at(&capital);
    let facebook = clean
        .catalog()
        .head()
        .iter()
        .position(|s| s.name == "Facebook")
        .unwrap();
    let before = clean
        .dataset()
        .per_user_commune_vector(Direction::Up, facebook)[host.index()];
    let after = event
        .dataset()
        .per_user_commune_vector(Direction::Up, facebook)[host.index()];
    println!("== host-commune effect (Facebook uplink, per subscriber) ==");
    println!(
        "clean week: {before:.2} MB/week   event week: {after:.2} MB/week   ({:+.0}%)",
        (after / before - 1.0) * 100.0
    );

    // Effect 2: the national series of affected services pick up peaks at
    // the event hour (Saturday 19:00–22:00 is near no weekday topical
    // time; on weekends only midday/evening are topical, so the 19:00
    // front lands close to the weekend-evening slot — or off the grid).
    println!("\n== detector view (downlink, fronts per topical time + off-grid) ==");
    println!(
        "{:<17} {:>14} {:>14} {:>11} {:>11}",
        "service", "we-evening(ck)", "we-evening(ev)", "off-grid(ck)", "off-grid(ev)"
    );
    let clean_profiles = topical_profiles(&clean, Direction::Down, &PeakConfig::paper());
    let event_profiles = topical_profiles(&event, Direction::Down, &PeakConfig::paper());
    for name in ["Facebook", "SnapChat", "YouTube", "Mail"] {
        let c = clean_profiles.iter().find(|p| p.name == name).unwrap();
        let e = event_profiles.iter().find(|p| p.name == name).unwrap();
        let we = mobilenet::traffic::TopicalTime::WeekendEvening.index();
        println!(
            "{:<17} {:>14} {:>14} {:>11} {:>11}",
            name,
            c.front_counts[we],
            e.front_counts[we],
            c.off_topical_fronts,
            e.off_topical_fronts
        );
    }

    println!(
        "\nA single localized event already nudges the national peak structure — at\n\
         nationwide-event scale it would rewrite it, which is why the paper's week\n\
         was chosen to avoid holidays and strikes."
    );
}
